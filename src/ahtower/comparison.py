"""Exact comparison-radius bookkeeping for the tower.

Two ingredients, all in integer or rational arithmetic:

  * a tiny characteristic-class computation in Z[x_1..x_k]/(x_i^2 = 0)
    certifying that the k-fold product of a line bundle with first class
    x_1 + ... + x_k admits no complement below trivial rank 2k (the top
    class of the would-be inverse survives in degree k).  It runs on a
    dense table of 2^k coefficients indexed by monomial mask: the inverse
    is built in O(2^k) by doubling, and the identity is certified by
    folding each factor (1 + x_i) into it, O(k 2^k) in all, for k up to
    ``MAX_CHERN_K``;
  * the projection symbols of the construction: a patterned projection of
    rank h(n)s(m) plus trivial padding, of total rank h(n)s(n)r(m), against
    an entirely trivial companion on the other row with the same
    normalized trace h(n)s(n), together with the trivial rank that absorbs
    the pattern, which the witness ledgers of ``certificates`` compare
    against.  The transform reads the primed sequences (see
    ``GrowthTables.side``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any

from .rational import ints_to_json
from .report import CheckReport
from .sequences import DocumentKind, GrowthTables


# ----------------------------------------------------------------------
# the square-zero class ring
# ----------------------------------------------------------------------

def _fold_one_plus(table: list[int], bit: int) -> None:
    """Multiply a dense table by (1 + x) in place, x the variable of ``bit``.

    Every coefficient at a mask without ``bit`` is added into its partner
    mask with it.  The pairs are gathered as strided slices when ``bit`` is
    low and as contiguous blocks when it is high, so neither way takes more
    than sqrt(len(table)) slice assignments.
    """
    size = len(table)
    step = 2 * bit
    if bit * step < size:
        for lo in range(bit):
            hi = lo + bit
            table[hi::step] = map(operator.add, table[hi::step],
                                  table[lo::step])
    else:
        for lo in range(0, size, step):
            hi = lo + bit
            table[hi:hi + bit] = map(operator.add, table[hi:hi + bit],
                                     table[lo:hi])


def _doubled_inverse(k: int) -> list[int]:
    """Dense table of prod(1 - x_i) over i = 1..k, built by doubling."""
    table = [1]
    for _ in range(k):
        table += [-c for c in table]
    return table


# k = 20 takes about 0.5 s and 44 MB (CPython 3.11.7); each step doubles both
MAX_CHERN_K = 20


def chern_min_embedding_ranks(k: int) -> list[int]:
    """Least trivial rank into which the j-fold line-bundle product embeds,
    for each j = 1..k, all certified from one table.

    Works on a dense table of the 2^k coefficients of Z[x_1..x_k]/(x_i^2),
    indexed by monomial mask.  The inverse prod(1 - x_i) of the total class
    prod(1 + x_i) is built in O(2^k) by doubling: a table of length 2^j
    holds no monomial in x_(j+1), so appending its negation is the exact
    product by (1 - x_(j+1)).  The identity is certified by folding each
    factor (1 + x_i) into a copy, O(k 2^k) in all: the exact product must
    be 1.  The prefix of length 2^j of either table is rank j's, and the
    folds of x_(j+1)..x_k write only above it, so rank j is checked on its
    prefix right after the fold of x_j.  The inverse survives in top
    degree j with coefficient (-1)^j; a complement inside trivial rank N
    would need the inverse to vanish above degree N - j, so N = 2j is the
    least possibility.  k must lie in [1, MAX_CHERN_K].
    """
    if not 1 <= k <= MAX_CHERN_K:
        raise ValueError(f"k must be an integer in [1, {MAX_CHERN_K}]")
    inverse = _doubled_inverse(k)
    product = inverse.copy()
    ranks = []
    for j in range(1, k + 1):
        _fold_one_plus(product, 1 << (j - 1))
        full_mask = (1 << j) - 1
        if product[0] != 1 or any(product[1:full_mask + 1]):
            raise RuntimeError("class inverse failed its defining identity")
        # only the full mask has degree j, so its survival settles the top
        top = (j if inverse[full_mask] else
               max(m.bit_count() for m, c in enumerate(inverse[:full_mask + 1])
                   if c))
        if top != j or inverse[full_mask] != (-1) ** j:
            raise RuntimeError("top obstruction class degenerated")
        ranks.append(j + top)
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
