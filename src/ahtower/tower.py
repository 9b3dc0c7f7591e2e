"""Stages of the recursive tower and the maps that connect them.

Stage n holds two homogeneous blocks over products of 2-spheres:

  * the C row: 2^(nd) matrix components of size r(n) over a base of real
    dimension 2*h(n)*s(n), indexed by the order-2^n lattice points
    Z_{2^n}^d;
  * the B row: one component of size r(n) over a base of dimension
    2*h'(n)*s'(n).

A stage is not stored: the diagram writes its shape straight from the
tables.

The map into stage n+1 is described slot by slot against the index set

    L(n+1) = Z_{2^n}^d  |_|  {star}  |_|  {1, ..., d(n+1)}

of size l(n+1).  Into each target block, every lattice slot z receives a
point evaluation of the C row (labelled by z), the star slot receives a
point evaluation of the B row, and the projection slots receive either
coordinate projections or further point evaluations of the B row:
d(n+1) projections into the C row; into the B row, projections on slots
1..d'(n+1) and point evaluations on the remaining d(n+1)-d'(n+1) slots.

Projection-slot arrows are stored as index spans (lo..hi), never expanded:
d(n+1) reaches 10^23 within six levels, so a per-slot list is
representable only at toy depth.

The lattice and star arrows are a pure function of (d, n), so a map holds
them only as a description, ``LatticeArrows(d, n)``: one full diagonal
run of ``pointEvalX`` arrows, the slot of every z in Z_{2^n}^d labelled z
and fed from the C row, and one star arrow from the B row, per target
row.  That run covers each lattice and star slot once, with its own label
and source, by construction, so ``check_unital`` records it as one lemma
entry that reads the description, in time independent of 2^(nd).  A map
whose arrows are anything else (only an edited map is) fails that entry,
with a detail that says so, and the diagram writers refuse it.

Multiplicity bookkeeping is a 2x2 integer matrix of (source, target) path
counts whose per-target totals (column sums) are l(n+1).  Composing the
matrices along levels m..n gives per-target totals r(n)/r(m), and that is
checked by a lemma, not by multiplying the products out: column sums
multiply along a product.  If 1^T A = c_A 1^T and 1^T B = c_B 1^T, then

    1^T (A B) = (1^T A) B = c_A 1^T B = c_A c_B 1^T,

so when every step k -> k+1 has column sums l(k+1), with r(k) l(k+1) =
r(k+1) (the tables entry "r(k+1) multiplicative"), the product m -> n has
constant column sums r(n)/r(m).  The single steps imply every per-range
row "totals of m -> n equal r(n)/r(m)", so the one lemma row compares
column sums with l(k+1), in O(depth) small comparisons where the products
cost O(depth^2) multiplications of integers as long as r(depth).

>>> from ahtower import tables_from_cli
>>> tables = tables_from_cli("1/2", "1/3", d=1, depth=3)
>>> multiplicity_matrix(tables, 0).into_totals(), tables.l(1)
({'C': 5, 'B': 5}, 5)

The check suites share one build of each map: ``lattice_maps`` builds the
map out of every level once.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from .report import Checker, CheckReport
from .sequences import GrowthTables

BLOCK_C = "C"
BLOCK_B = "B"

KIND_POINT_EVAL_X = "pointEvalX"
KIND_POINT_EVAL_Y = "pointEvalY"
KIND_STAR_EVAL = "starEval"
KIND_COORD_PROJECTION = "coordProjection"


# ----------------------------------------------------------------------
# slots and arrows
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TorusSlot:
    """A lattice slot z in Z_{2^n}^d, stored as a tuple of residues."""

    point: tuple[int, ...]


@dataclass(frozen=True)
class StarSlot:
    pass


STAR = StarSlot()


@dataclass(frozen=True)
class Arrow:
    """One slot of a connecting map: source block, target block, kind.

    ``eval_point`` is the lattice label of a point evaluation of the C row
    and None for every other kind.
    """

    source: str
    target: str
    kind: str
    slot: TorusSlot | StarSlot
    eval_point: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ArrowSpan:
    """A run of projection slots lo..hi (inclusive) sharing one arrow kind."""

    source: str
    target: str
    kind: str
    lo: int
    hi: int

    @property
    def count(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True)
class LatticeArrows(Sequence):
    """The lattice and star arrows of the map out of stage ``level``.

    It reads as a sequence of ``Arrow``: into the C row and then into the
    B row, the ``pointEvalX`` arrow of every z in Z_{2^level}^d, in
    lexicographic order and labelled z, followed by the star arrow.  An
    ``Arrow`` is made only when it is read.

    >>> arrows = LatticeArrows(d=1, level=1)
    >>> len(arrows), arrows[1].eval_point, arrows[-1].target
    (6, (1,), 'B')
    >>> [a.kind for a in arrows][:3]
    ['pointEvalX', 'pointEvalX', 'starEval']
    """

    d: int
    level: int

    @property
    def points(self) -> int:
        """Lattice points per target row."""
        return 2 ** (self.d * self.level)

    def __len__(self) -> int:
        return 2 * (self.points + 1)

    def __iter__(self):
        for target in (BLOCK_C, BLOCK_B):
            for z in torus_lattice(self.d, self.level):
                yield Arrow(BLOCK_C, target, KIND_POINT_EVAL_X, TorusSlot(z),
                            z)
            yield Arrow(BLOCK_B, target, KIND_STAR_EVAL, STAR)

    def __getitem__(self, index: int) -> Arrow:
        row, k = divmod(range(len(self))[index], self.points + 1)
        target = (BLOCK_C, BLOCK_B)[row]
        if k == self.points:
            return Arrow(BLOCK_B, target, KIND_STAR_EVAL, STAR)
        side = 2 ** self.level
        z = tuple(k // side ** e % side for e in reversed(range(self.d)))
        return Arrow(BLOCK_C, target, KIND_POINT_EVAL_X, TorusSlot(z), z)


# ----------------------------------------------------------------------
# multiplicity bookkeeping
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BlockMatrix:
    """Path counts between rows, one field per (source, target) pair."""

    cc: int
    cb: int
    bc: int
    bb: int

    def into_totals(self) -> dict[str, int]:
        """Total source blocks absorbed by each target row."""
        return {BLOCK_C: self.cc + self.bc, BLOCK_B: self.cb + self.bb}


def multiplicity_matrix(tables: GrowthTables, level: int) -> BlockMatrix:
    """The (source, target) counts for the map out of ``level``."""
    if not 0 <= level < tables.depth:
        raise ValueError(f"no connecting map out of level {level}")
    pts = tables.torus_points(level)
    d_next = tables.d(level + 1)
    return BlockMatrix(cc=pts + d_next, cb=pts, bc=1, bb=1 + d_next)


# ----------------------------------------------------------------------
# maps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectingMap:
    """Slot-by-slot description of the map from stage ``level`` to the next."""

    level: int
    d: int
    arrows: LatticeArrows
    spans: tuple[ArrowSpan, ...]

    @property
    def described(self) -> bool:
        """Whether ``arrows`` is the description of this map's own lattice
        (true of every built map; only an edited map holds anything else)."""
        return self.arrows == LatticeArrows(self.d, self.level)

    def not_described(self) -> str:
        """Why the checks fail, and the writers refuse, an edited map."""
        return f"arrows are not {LatticeArrows(self.d, self.level)}"

    def spans_into(self, target: str):
        return [s for s in self.spans if s.target == target]


def torus_lattice(d: int, n: int):
    """All points of Z_{2^n}^d in lexicographic order."""
    return itertools.product(range(2 ** n), repeat=d)


def build_connecting_map(tables: GrowthTables, n: int) -> ConnectingMap:
    if not 0 <= n < tables.depth:
        raise ValueError(f"no connecting map out of level {n}")
    d = tables.params.d
    d_next, dp_next = tables.d(n + 1), tables.d_prime(n + 1)
    spans = [ArrowSpan(BLOCK_C, BLOCK_C, KIND_COORD_PROJECTION, 1, d_next)]
    if dp_next < d_next:
        spans.append(ArrowSpan(BLOCK_B, BLOCK_B, KIND_POINT_EVAL_Y,
                               dp_next + 1, d_next))
    spans.append(ArrowSpan(BLOCK_B, BLOCK_B, KIND_COORD_PROJECTION, 1, dp_next))
    return ConnectingMap(level=n, d=d, arrows=LatticeArrows(d, n),
                         spans=tuple(spans))


def lattice_maps(tables: GrowthTables) -> tuple[ConnectingMap, ...]:
    """The map out of each level, built once for the check suites to
    share."""
    return tuple(build_connecting_map(tables, n) for n in range(tables.depth))


# ----------------------------------------------------------------------
# soundness checks
# ----------------------------------------------------------------------

def check_unital(tables: GrowthTables, cmap: ConnectingMap) -> CheckReport:
    """The lattice and star arrows by lemma, then per target row the
    coverage, census and sources of the projection spans.

    The lattice and star arrows are read off the map's description (one
    full labelled run from the C row and one star arrow from the B row per
    target row), so one entry records them; a map holding other arrows
    fails it, with ``not_described`` as its detail.  Spans that cover
    1..d(n+1) once count d(n+1) slots, so each row's total is l(n+1) by
    the identity l(n+1) = d(n+1) + 1 + 2^(nd), which ``verify_tables``
    checks with r(n+1) = r(n)*l(n+1).
    """
    n = cmap.level
    c = Checker()
    d_next, dp_next = tables.d(n + 1), tables.d_prime(n + 1)
    c.check("lattice and star arrows described (lemma)", cmap.described,
            cmap.not_described)
    for target in (BLOCK_C, BLOCK_B):
        spans = cmap.spans_into(target)
        runs = sorted((s.lo, s.hi) for s in spans)
        disjoint = all(a[1] < b[0] for a, b in zip(runs, runs[1:]))
        complete = (not runs) if d_next == 0 else bool(
            runs and runs[0][0] == 1 and runs[-1][1] == d_next
            and all(a[1] + 1 == b[0] for a, b in zip(runs, runs[1:])))
        c.check(f"{target}-target projection slots covered once",
                disjoint and complete and all(s.lo <= s.hi for s in spans))

        by_kind = {}
        for s in spans:
            by_kind[s.kind] = by_kind.get(s.kind, 0) + s.count
        if target == BLOCK_C:
            want = {KIND_COORD_PROJECTION: d_next}
        else:
            want = {KIND_COORD_PROJECTION: dp_next}
            if d_next > dp_next:
                want[KIND_POINT_EVAL_Y] = d_next - dp_next
        c.check(f"{target}-target census", by_kind == want,
                lambda: f"{by_kind} vs {want}")
        c.check(f"{target}-target sources",
                all(s.source == (BLOCK_C if target == BLOCK_C else BLOCK_B)
                    for s in spans if s.kind == KIND_COORD_PROJECTION)
                and all(s.source == BLOCK_B for s in spans
                        if s.kind == KIND_POINT_EVAL_Y))
    return c.report()


def verify_tower(tables: GrowthTables,
                 maps: tuple[ConnectingMap, ...]) -> CheckReport:
    """Every connecting map, and the composed multiplicities by the
    column-sum lemma of the module docstring.

    ``maps`` comes from ``lattice_maps``.
    """
    c = Checker()
    for n, cmap in enumerate(maps):
        c.merge(check_unital(tables, cmap), prefix=f"map {n}: ")
    failed = None
    for k in range(tables.depth):
        totals = multiplicity_matrix(tables, k).into_totals()
        if not totals[BLOCK_C] == totals[BLOCK_B] == tables.l(k + 1):
            failed = k
            break
    c.check("composed totals m->n = r(n)/r(m) (lemma)", failed is None,
            lambda: f"step {failed}->{failed + 1}")
    return c.report()
