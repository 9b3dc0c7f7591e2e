"""The lemma's check: ``comparison.chern_min_embedding_ranks`` states the
rank-doubling obstruction (2, 4, ..., 2k) without computing it, and a
dense list kernel computes it here.

The list kernel (``_fold_one_plus``, ``_doubled_inverse``, ``MAX_CHERN_K``
and ``chern_min_embedding_ranks``) builds the 2^k coefficients of the
inverse prod(1 - x_i) in Z[x_1..x_k]/(x_i^2), folds every (1 + x_i) back
in and reads the top coefficient.  Its ranks must equal the lemma's for
k = 1..16, and a bad k must be refused alike.  Under each mutation of its
helpers (a fold skipped, an inverse coefficient negated, the top
coefficient zeroed, the last two also under a fold that forges the
identity) it must raise the refusal named for that fault, or give the
lemma's ranks where the fault does not reach, so the oracle is shown to
catch each fault.  ``tests/test_comparison.py`` checks its helpers
against ``SquareZeroPoly``'s sparse product.
"""

import operator
import sys

import pytest

from ahtower import comparison


# -- the list kernel, as it was ----------------------------------------------

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


# -- the comparison ----------------------------------------------------------

REFERENCE = sys.modules[__name__]


def outcome(ranks, k):
    """The ranks, or the type and message of the refusal raised instead."""
    try:
        return ranks(k)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def test_ranks_equal_the_list_kernel():
    for k in range(1, 17):
        assert comparison.chern_min_embedding_ranks(k) == \
            chern_min_embedding_ranks(k), k


def test_refusals_equal_the_list_kernel():
    for k in (0, -1, MAX_CHERN_K + 1, 30):
        assert outcome(comparison.chern_min_embedding_ranks, k) == \
            outcome(chern_min_embedding_ranks, k) == \
            (ValueError, f"k must be an integer in [1, {MAX_CHERN_K}]")


def skipping(skipped):
    """A fold that leaves out the variable of bit ``skipped``."""
    fold = _fold_one_plus

    def skip(table, bit):
        if bit != skipped:
            fold(table, bit)
    return skip


def forged_identity(table, bit):
    table[:] = [1] + [0] * (len(table) - 1)


def negating(mask):
    """An inverse with the coefficient at ``mask`` negated."""
    inverse = _doubled_inverse

    def negated(k):
        table = inverse(k)
        table[mask] = -table[mask]
        return table
    return negated


def zeroing_top():
    """An inverse with the coefficient at the full mask zeroed."""
    inverse = _doubled_inverse

    def zeroed(k):
        table = inverse(k)
        table[-1] = 0
        return table
    return zeroed


def mutate(monkeypatch, fold, inverse):
    """Hook the list kernel's helpers; a None keeps that helper."""
    for name, hook in (("_fold_one_plus", fold),
                       ("_doubled_inverse", inverse)):
        if hook is not None:
            monkeypatch.setattr(REFERENCE, name, hook)


IDENTITY = (RuntimeError, "class inverse failed its defining identity")
TOP = (RuntimeError, "top obstruction class degenerated")


def lemma_or(refusal, ks, caught):
    """The list kernel's outcome at each k: ``refusal`` where ``caught(k)``,
    the lemma's ranks elsewhere."""
    for k in ks:
        expected = refusal if caught(k) else \
            comparison.chern_min_embedding_ranks(k)
        assert outcome(chern_min_embedding_ranks, k) == expected, k


def test_a_skipped_fold_fails_alike(monkeypatch):
    for variable in range(1, 8):
        with monkeypatch.context() as patch:
            mutate(patch, skipping(1 << (variable - 1)), None)
            lemma_or(IDENTITY, range(1, 10), lambda k: k >= variable)


@pytest.mark.parametrize("forged", [False, True])
def test_a_negated_inverse_coefficient_fails_alike(monkeypatch, forged):
    for mask in range(1 << 5):
        with monkeypatch.context() as patch:
            mutate(patch, forged_identity if forged else None,
                   negating(mask))
            # a forged identity leaves only the top check, which reads the
            # full masks 2^j - 1 of ranks j >= 1
            full = mask and not mask & (mask + 1)
            lemma_or(TOP if forged else IDENTITY, range(5, 8),
                     lambda k: full or not forged)


@pytest.mark.parametrize("forged", [False, True])
def test_a_zeroed_top_coefficient_fails_alike(monkeypatch, forged):
    mutate(monkeypatch, forged_identity if forged else None, zeroing_top())
    lemma_or(TOP if forged else IDENTITY, range(1, 13), lambda k: True)
