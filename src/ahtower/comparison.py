"""Exact comparison-radius bookkeeping for the tower.

Two ingredients, all in integer or rational arithmetic:

  * the rank-doubling obstruction: the k-fold product of a line bundle
    with first class x_1 + ... + x_k embeds in no trivial bundle of rank
    below 2k, and ``chern_min_embedding_ranks(k)`` returns 2, 4, ..., 2k;
  * the projection symbols of the construction: a patterned projection of
    rank h(n)s(m) plus trivial padding, of total rank h(n)s(n)r(m), and the
    trivial rank that absorbs the pattern, which the witness ledgers of
    ``certificates`` compare against.  The transform reads the primed
    sequences (see ``GrowthTables.side``).

The lemma, in Z[x_1..x_k]/(x_i^2 = 0).  The total class of the product
is prod(1 + x_i), and since (1 + x)(1 - x) = 1 - x^2 = 1 for each factor,
its inverse is prod(1 - x_i).  Expanding that product, its coefficient
at x_1 ... x_j is (-1)^j, so the inverse of the j-fold product survives
in top degree j.  A complement inside trivial rank N has rank N - j and
that inverse as its total class, and a bundle's classes vanish above its
rank, so N - j >= j: N = 2j is the least possibility.  The one modelling assumption, that the top class of the
bundle is nonzero, is taken as given.  This argument is a reconstruction:
the paper's own proof is not reproduced here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .rational import ints_to_json, text_int
from .report import CheckReport
from .sequences import DocumentKind, GrowthTables


# ----------------------------------------------------------------------
# the rank-doubling obstruction
# ----------------------------------------------------------------------

# the lemma holds for every k; the bound is on the input, so that an
# untrusted document's maxK cannot demand an output of any size
MAX_CHERN_K = 20


def chern_min_embedding_ranks(k: int) -> list[int]:
    """Least trivial rank into which the j-fold line-bundle product embeds,
    for each j = 1..k: 2j, by the lemma of the module docstring.  k must
    lie in [1, MAX_CHERN_K].

    >>> chern_min_embedding_ranks(4)
    [2, 4, 6, 8]
    """
    if not 1 <= k <= MAX_CHERN_K:
        raise ValueError(f"k must be an integer in [1, {MAX_CHERN_K}]")
    return [2 * j for j in range(1, k + 1)]


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
    read=lambda doc: (text_int(doc["maxK"]),),
    regenerate=lambda k: (chern_document(k), CheckReport(())))


# ----------------------------------------------------------------------
# projection symbols
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionSymbol:
    """The distinguished projection of origin n at level m, patterned on
    the k-fold bundle product over h(n)s(m) coordinates and padded with a
    trivial rest to rank h(n)s(n)r(m), on the C row of the tower or the
    small B row of its transform.  (Its trivial companion on the other row
    has the same trace, as the crossed "trace match" rows certify.)"""

    patterned_rank: int
    total_rank: int

    @property
    def threshold(self) -> int:
        """Trivial rank needed to absorb the pattern: h(n)s(n)r(m) + h(n)s(m),
        the total rank plus the patterned rank again, since the k-fold
        product over k = h(n)s(m) coordinates embeds only from trivial rank
        2k on (the lemma of the module docstring)."""
        return self.total_rank + self.patterned_rank


def projection_pair(tables: GrowthTables, m: int, n: int,
                    crossed: bool = False) -> ProjectionSymbol:
    """Build the symbol of origin n at evaluation level m >= n; the
    transform reads the primed sequences."""
    if not 0 <= n <= m <= tables.depth:
        raise ValueError(f"need 0 <= n <= m <= depth, got n={n} m={m}")
    side = tables.side(crossed)
    symbol = ProjectionSymbol(patterned_rank=side.h(n) * side.s(m),
                              total_rank=side.h(n) * side.s(n) * tables.r(m))
    if symbol.patterned_rank > symbol.total_rank:
        raise RuntimeError("patterned rank exceeded the total rank")
    return symbol
