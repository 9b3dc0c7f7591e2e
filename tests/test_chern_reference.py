"""Differential test: the packed class-ring kernel of ``comparison``
against the dense list kernel it replaced.

The list kernel (``_fold_one_plus``, ``_doubled_inverse``, ``MAX_CHERN_K``
and ``chern_min_embedding_ranks``) is copied below as it was.  The two
must give the same ranks, and under the same mutation of their helpers
(a fold skipped, an inverse coefficient negated, the top coefficient
zeroed, each also under a fold that forges the identity) they must give
the same ranks or raise the same exception with the same message.  A
worst case of field growth is decoded against the list fold at the field
width the kernel picks.
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


def field_mask(k, mask):
    width = comparison._field_width(k)
    return ((1 << width) - 1) << mask * width


def test_ranks_equal_the_list_kernel():
    for k in range(1, 17):
        assert comparison.chern_min_embedding_ranks(k) == \
            chern_min_embedding_ranks(k), k


def test_refusals_equal_the_list_kernel():
    for k in (0, -1, MAX_CHERN_K + 1, 30):
        assert outcome(comparison.chern_min_embedding_ranks, k) == \
            outcome(chern_min_embedding_ranks, k) == \
            (ValueError, f"k must be an integer in [1, {MAX_CHERN_K}]")


def mutate(monkeypatch, list_fold, packed_fold, list_inverse,
           packed_inverse):
    """Hook both kernels' helpers with matched mutations; a None keeps
    that helper."""
    for module, name, hook in (
            (REFERENCE, "_fold_one_plus", list_fold),
            (comparison, "_fold_one_plus", packed_fold),
            (REFERENCE, "_doubled_inverse", list_inverse),
            (comparison, "_doubled_inverse", packed_inverse)):
        if hook is not None:
            monkeypatch.setattr(module, name, hook)


def skipping(skipped):
    """Matched folds that leave out the variable of bit ``skipped``."""
    list_fold, packed_fold = _fold_one_plus, comparison._fold_one_plus

    def list_skip(table, bit):
        if bit != skipped:
            list_fold(table, bit)

    def packed_skip(pos, neg, bit, k):
        return (pos, neg) if bit == skipped else packed_fold(pos, neg, bit, k)
    return list_skip, packed_skip


def forged_identity(table, bit):
    table[:] = [1] + [0] * (len(table) - 1)


def packed_forged_identity(pos, neg, bit, k):
    return 1, 0


def negating(mask):
    """Matched inverses with the coefficient at ``mask`` negated."""
    list_inverse = _doubled_inverse
    packed_inverse = comparison._doubled_inverse

    def list_negated(k):
        table = list_inverse(k)
        table[mask] = -table[mask]
        return table

    def packed_negated(k):
        pos, neg = packed_inverse(k)
        field = field_mask(k, mask)
        return pos & ~field | neg & field, neg & ~field | pos & field
    return list_negated, packed_negated


def zeroing_top():
    """Matched inverses with the coefficient at the full mask zeroed."""
    list_inverse = _doubled_inverse
    packed_inverse = comparison._doubled_inverse

    def list_zeroed(k):
        table = list_inverse(k)
        table[-1] = 0
        return table

    def packed_zeroed(k):
        field = field_mask(k, (1 << k) - 1)
        return tuple(part & ~field for part in packed_inverse(k))
    return list_zeroed, packed_zeroed


def same_outcomes(ks):
    seen = set()
    for k in ks:
        new = outcome(comparison.chern_min_embedding_ranks, k)
        old = outcome(chern_min_embedding_ranks, k)
        assert new == old, k
        seen.add(old if isinstance(old, tuple) else "ranks")
    return seen


IDENTITY = (RuntimeError, "class inverse failed its defining identity")
TOP = (RuntimeError, "top obstruction class degenerated")


def test_a_skipped_fold_fails_alike(monkeypatch):
    for variable in range(1, 8):
        with monkeypatch.context() as patch:
            mutate(patch, *skipping(1 << (variable - 1)), None, None)
            assert same_outcomes(range(1, 10)) == (
                {"ranks", IDENTITY} if variable > 1 else {IDENTITY})


@pytest.mark.parametrize("forged", [False, True])
def test_a_negated_inverse_coefficient_fails_alike(monkeypatch, forged):
    folds = ((forged_identity, packed_forged_identity) if forged
             else (None, None))
    for mask in range(1 << 5):
        with monkeypatch.context() as patch:
            mutate(patch, *folds, *negating(mask))
            # a forged identity leaves only the top check, which reads the
            # full masks 2^j - 1 of ranks j >= 1
            full = mask and not mask & (mask + 1)
            assert same_outcomes(range(5, 8)) == (
                {IDENTITY} if not forged else {TOP} if full else {"ranks"}), \
                mask


@pytest.mark.parametrize("forged", [False, True])
def test_a_zeroed_top_coefficient_fails_alike(monkeypatch, forged):
    folds = ((forged_identity, packed_forged_identity) if forged
             else (None, None))
    mutate(monkeypatch, *folds, *zeroing_top())
    assert same_outcomes(range(1, 13)) == ({TOP} if forged else {IDENTITY})


def test_worst_field_growth_decodes_to_the_list_fold():
    # every field starts at 1 and every variable is folded in, so the field
    # at mask m ends at 2^popcount(m) and the last at 2^k, the most any
    # field reaches in the kernel; it must not carry at the kernel's width
    for k in range(1, 15):
        width = comparison._field_width(k)
        assert 2 ** k < 2 ** (width - 1)
        field = (1 << width) - 1
        ones = int.from_bytes(
            b"".join(c.to_bytes(width // 8, "little") for c in [1] * (1 << k)),
            "little")
        for sign, (pos, neg) in ((1, (ones, 0)), (-1, (0, ones))):
            for i in range(k):
                pos, neg = comparison._fold_one_plus(pos, neg, 1 << i, k)
            decoded = [(pos >> m * width & field) - (neg >> m * width & field)
                       for m in range(1 << k)]
            expected = [sign] * (1 << k)
            for i in range(k):
                _fold_one_plus(expected, 1 << i)
            assert decoded == expected, (k, sign)
            assert decoded[-1] == sign * 2 ** k
