"""Permutation bookkeeping for the lattice shift action on the tower.

A group element g in Z^d acts at level n by translating the lattice slots
of stage n, the points of Z_{2^n}^d: z maps to z + g reduced mod 2^n, while
the star slot and all projection slots stay put.  Level 0 has a single
lattice point, so every g acts there as the identity.  The unitary
implementing g along the whole tower is just the list of these slot
permutations, one per level.

``check_equivariance`` checks the compatibility between one connecting
map and the shift: pushing every slot and every evaluation label of the
map out of stage n forward by the level-n permutation must reproduce the
map's own census exactly.  A map holds its lattice arrows as its
description, ``LatticeArrows`` (one full diagonal run z -> z per target
row, plus the star arrow), so the check is a lemma, not a replay:
translation by g is a bijection of Z_{2^n}^d, so it maps the full run
{(z, z) : z in Z_{2^n}^d} onto itself, and it fixes the star slot and
every projection slot.  That costs O(1) per map whatever 2^(nd) is, and
it is one entry per (map, g).  A map holding any other arrows (only an
edited map does) fails it; a projection span that claims lattice slots
fails ``check_unital``'s coverage and census of that row.

``outerness_witness`` returns the first level at which g visibly moves a
slot, which is 1 + min over coordinates of the 2-adic valuation of g; at
that level the slot at the origin and its translate are distinct, and the
two matrix units supported there are orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .report import Checker, CheckReport
from .tower import ConnectingMap


@dataclass(frozen=True)
class LevelPermutation:
    """The slot permutation of one level: translation by ``shift`` on the
    lattice part, identity elsewhere."""

    level: int
    shift: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return 2 ** self.level

    def apply_point(self, point: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((p + s) % self.modulus for p, s in zip(point, self.shift))


def level_permutation(g: tuple[int, ...], level: int) -> LevelPermutation:
    """The slot permutation of g on the lattice of stage ``level`` (>= 0)."""
    if level < 0:
        raise ValueError("levels start at 0")
    if not g:
        raise ValueError("g must have at least one coordinate")
    modulus = 2 ** level
    return LevelPermutation(level=level,
                            shift=tuple(x % modulus for x in g))


def check_equivariance(cmap: ConnectingMap, g: tuple[int, ...]) -> CheckReport:
    """Compatibility of one connecting map with the shift by g.

    The image of a slot arrow moves both its slot and (for lattice point
    evaluations) its evaluation label by g mod 2^n; projection spans and
    the star slot are fixed pointwise.  The pushed-forward census equals
    the original as a multiset, per target row, for the map's description
    by the translation lemma, so the one entry reads ``described``.
    """
    if len(g) != cmap.d:
        raise ValueError(f"g has {len(g)} coordinates, map expects {cmap.d}")
    c = Checker()
    c.check("census invariant under shift (lemma)", cmap.described,
            cmap.not_described)
    return c.report()


def two_adic_valuation(x: int) -> int:
    """Largest e with 2^e dividing x, for x != 0."""
    if x == 0:
        raise ValueError("0 is divisible by every power of 2")
    x = abs(x)
    return (x & -x).bit_length() - 1


@dataclass(frozen=True)
class OuternessWitness:
    """First level where g moves a slot, with the separated slot pair."""

    g: tuple[int, ...]
    level: int
    base_slot: tuple[int, ...]
    moved_slot: tuple[int, ...]

    @property
    def separated(self) -> bool:
        return self.base_slot != self.moved_slot


def outerness_witness(g: tuple[int, ...]) -> OuternessWitness:
    """Least n with g outside 2^n Z^d, plus the slot pair split at level n."""
    if not g or all(x == 0 for x in g):
        raise ValueError("the zero element has no outerness witness")
    level = 1 + min(two_adic_valuation(x) for x in g if x != 0)
    base = (0,) * len(g)
    moved = level_permutation(g, level).apply_point(base)
    witness = OuternessWitness(g=g, level=level, base_slot=base, moved_slot=moved)
    if not witness.separated:
        raise RuntimeError("witness level failed to separate slots")
    return witness
