"""Exact comparison-radius bookkeeping for the tower.

Two ingredients, all in integer or rational arithmetic:

  * a tiny characteristic-class computation in Z[x_1..x_k]/(x_i^2 = 0)
    certifying that the k-fold product of a line bundle with first class
    x_1 + ... + x_k admits no complement below trivial rank 2k (the top
    class of the would-be inverse survives in degree k).  It runs on a
    table of 2^k coefficients indexed by monomial mask, packed as
    fixed-width fields of two nonnegative ints, a positive and a negative
    part: the coefficient at mask m is field m of the first less field m
    of the second, and field m holds bits [m w, (m + 1) w).  The inverse
    is built by doubling, and the identity is certified by folding each
    factor (1 + x_i) into it, k masked shifts per part, for k up to
    ``MAX_CHERN_K``;
  * the projection symbols of the construction: a patterned projection of
    rank h(n)s(m) plus trivial padding, of total rank h(n)s(n)r(m), against
    an entirely trivial companion on the other row with the same
    normalized trace h(n)s(n), together with the trivial rank that absorbs
    the pattern, which the witness ledgers of ``certificates`` compare
    against.  The transform reads the primed sequences (see
    ``GrowthTables.side``).

The field width is w = 8 ceil((k + 2)/8) bits.  The inverse's fields are
0 or 1, and a fold at most doubles a field, so after j folds no field
passes 2^j <= 2^k < 2^(w-1): no field ever carries into the next, whatever
the folds compute.  So every field difference d_m, and d_0 - 1, lies
strictly between -2^(w-1) and 2^(w-1), and a sum of terms e_m 2^(m w) with
every |e_m| < 2^(w-1) is 0 only when every e_m is 0.  Hence the prefix
identity ``(pos & low) - (neg & low) == 1`` holds exactly when the
coefficient at mask 0 is 1 and every other one below ``low`` is 0.

At k = 2 the fields are bytes; a table packs and reads back as

>>> table = [3, -1, 0, 2]
>>> pos = int.from_bytes(bytes(max(c, 0) for c in table), "little")
>>> neg = int.from_bytes(bytes(max(-c, 0) for c in table), "little")
>>> [_coefficient(pos, neg, m, _field_width(2)) for m in range(4)]
[3, -1, 0, 2]
>>> _doubled_inverse(2) == (int.from_bytes(bytes([1, 0, 0, 1]), "little"),
...                         int.from_bytes(bytes([0, 1, 1, 0]), "little"))
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .rational import ints_to_json
from .report import CheckReport
from .sequences import DocumentKind, GrowthTables


# ----------------------------------------------------------------------
# the square-zero class ring
# ----------------------------------------------------------------------

def _field_width(k: int) -> int:
    """Bits per coefficient field of a k-variable table, 8 ceil((k+2)/8):
    a multiple of 8, so a field is whole bytes."""
    return 8 * ((k + 9) // 8)


def _coefficient(pos: int, neg: int, mask: int, width: int) -> int:
    """The coefficient at ``mask`` of the packed table (pos, neg)."""
    shift, field = mask * width, (1 << width) - 1
    return (pos >> shift & field) - (neg >> shift & field)


def _fold_one_plus(pos: int, neg: int, bit: int, k: int) -> tuple[int, int]:
    """Multiply a packed k-variable table by (1 + x), x the variable of
    ``bit``.

    Every field at a mask without ``bit`` is added into its partner mask
    with it, ``bit`` fields higher: ``lacking`` keeps exactly the fields
    at masks without ``bit``, so each part takes one masked shift added
    back in.
    """
    width = _field_width(k)
    run = b"\xff" * (width // 8 * bit)
    lacking = int.from_bytes((run + bytes(len(run))) * ((1 << k) // (2 * bit)),
                             "little")
    shift = bit * width
    return pos + ((pos & lacking) << shift), neg + ((neg & lacking) << shift)


def _doubled_inverse(k: int) -> tuple[int, int]:
    """prod(1 - x_i) over i = 1..k as a packed table, built by doubling."""
    width = _field_width(k)
    pos, neg = 1, 0
    for i in range(k):
        shift = width << i
        pos, neg = pos | neg << shift, neg | pos << shift
    return pos, neg


# k = 20 takes about 0.17 s, and a fresh process that makes the one call
# peaks at 43 MB RSS (CPython 3.11.7); each step up about doubles the time
# and the tables' 2 x 2^k fields
MAX_CHERN_K = 20


def chern_min_embedding_ranks(k: int) -> list[int]:
    """Least trivial rank into which the j-fold line-bundle product embeds,
    for each j = 1..k, all certified from one table.

    Works on the 2^k coefficients of Z[x_1..x_k]/(x_i^2), packed by
    monomial mask (see the module docstring).  The inverse prod(1 - x_i)
    of the total class prod(1 + x_i) is built by doubling: a table of 2^j
    fields holds no monomial in x_(j+1), so placing its negation (the two
    parts swapped) above it is the exact product by (1 - x_(j+1)).  The
    identity is certified by folding each factor (1 + x_i) into it:
    the exact product must be 1.  The first 2^j fields of either table are
    rank j's, and the folds of x_(j+1)..x_k write only above them, so rank
    j is checked on its prefix right after the fold of x_j.  The inverse
    survives in top degree j with coefficient (-1)^j; a complement inside
    trivial rank N would need the inverse to vanish above degree N - j,
    so N = 2j is the least possibility.  k must lie in [1, MAX_CHERN_K].
    """
    if not 1 <= k <= MAX_CHERN_K:
        raise ValueError(f"k must be an integer in [1, {MAX_CHERN_K}]")
    width = _field_width(k)
    pos, neg = _doubled_inverse(k)
    # only the full mask of rank j has degree j, so its coefficient in the
    # inverse settles the top; read before the folds, so the inverse is
    # not kept beside the product
    tops = [_coefficient(pos, neg, (1 << j) - 1, width)
            for j in range(1, k + 1)]
    ranks = []
    for j, top in enumerate(tops, start=1):
        pos, neg = _fold_one_plus(pos, neg, 1 << (j - 1), k)
        low = (1 << (width << j)) - 1
        if (pos & low) - (neg & low) != 1:
            raise RuntimeError("class inverse failed its defining identity")
        if top != (-1) ** j:
            raise RuntimeError("top obstruction class degenerated")
        ranks.append(2 * j)
    return ranks


def chern_min_embedding_rank(k: int) -> int:
    """Least trivial rank into which the k-fold line-bundle product embeds
    (see ``chern_min_embedding_ranks``)."""
    return chern_min_embedding_ranks(k)[-1]


def chern_document(k: int) -> dict[str, Any]:
    """The chern document: the ranks of ``chern_min_embedding_ranks(k)``."""
    return {**CHERN_DOCUMENT.head(), "maxK": str(k),
            "ranks": ints_to_json(chern_min_embedding_ranks(k))}


# every leaf is a string, so == is exact
CHERN_DOCUMENT = DocumentKind(
    tag="chern", parsed="chern document well formed",
    matches="chern table matches canonical regeneration",
    passed="chern table matches canonical regeneration", strict=False,
    read=lambda doc: (int(doc["maxK"]),),
    regenerate=lambda k: (chern_document(k), CheckReport(())))


# ----------------------------------------------------------------------
# projection symbols
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionSymbol:
    """The distinguished projection pair of origin n evaluated at level m.

    One member is patterned on the k-fold bundle product over h(n)s(m)
    coordinates and padded with a trivial rest; it sits on the C row of
    the tower, or on the small B row of its transform.  The companion on
    the other row is entirely trivial and has the same normalized trace.
    """

    origin: int
    stage: int
    patterned_rank: int
    padding_rank: int
    companion_rank: int

    @property
    def total_rank(self) -> int:
        return self.patterned_rank + self.padding_rank

    @property
    def threshold(self) -> int:
        """Trivial rank needed to absorb the pattern: h(n)s(n)r(m) + h(n)s(m)."""
        return self.total_rank + self.patterned_rank


def projection_pair(tables: GrowthTables, m: int, n: int,
                    crossed: bool = False) -> ProjectionSymbol:
    """Build the symbol of origin n at evaluation level m >= n.

    The transform reads the primed sequences, and its companion row is
    2^(md) times larger than the row carrying the pattern.
    """
    if not 0 <= n <= m <= tables.depth:
        raise ValueError(f"need 0 <= n <= m <= depth, got n={n} m={m}")
    side = tables.side(crossed)
    total = side.h(n) * side.s(n) * tables.r(m)
    patterned = side.h(n) * side.s(m)
    widen = tables.torus_points(m) if crossed else 1
    symbol = ProjectionSymbol(origin=n, stage=m,
                              patterned_rank=patterned,
                              padding_rank=total - patterned,
                              companion_rank=total * widen)
    if symbol.padding_rank < 0:
        raise RuntimeError("patterned rank exceeded the total rank")
    return symbol
