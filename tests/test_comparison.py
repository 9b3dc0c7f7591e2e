from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahtower.certificates import search_witness
from ahtower.comparison import (ProjectionSymbol, chern_min_embedding_rank,
                                chern_min_embedding_ranks, projection_pair)
from ahtower.rational import ExtendedRational
from ahtower.sequences import TargetParams, build_tables

import test_chern_reference as reference
from oracle import SquareZeroPoly


def tables_for(r, rp, d=1, depth=4):
    return build_tables(
        TargetParams(ExtendedRational.parse(r), ExtendedRational.parse(rp), d),
        depth)


@pytest.fixture(scope="module")
def half_third():
    return tables_for("1/2", "1/3")


# ----------------------------------------------------------------------
# the square-zero ring
# ----------------------------------------------------------------------

def test_ring_basics():
    one = SquareZeroPoly.one(3)
    assert one.is_one
    x1 = SquareZeroPoly.linear(3, 1)
    x2 = SquareZeroPoly.linear(3, 2)
    prod = x1.mul(x2)
    assert prod.terms == ((0b011, 1),)
    assert prod.top_degree() == 2
    assert x1.add(x1).coefficient(0b001) == 2


def test_squares_vanish():
    for k in (1, 2, 5):
        for i in range(1, k + 1):
            x = SquareZeroPoly.linear(k, i)
            assert x.mul(x).terms == ()


def test_ring_rejects():
    with pytest.raises(ValueError):
        SquareZeroPoly.linear(3, 4)
    with pytest.raises(ValueError):
        SquareZeroPoly.linear(3, 0)
    with pytest.raises(ValueError):
        SquareZeroPoly.from_dict(2, {0b100: 1})
    with pytest.raises(ValueError):
        SquareZeroPoly.from_dict(2, {}).top_degree()


def test_cancellation_drops_terms():
    x1 = SquareZeroPoly.linear(2, 1)
    assert x1.add(SquareZeroPoly.linear(2, 1, -1)).terms == ()


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_ring_multiplication_commutes(k, data):
    coeffs = st.dictionaries(st.integers(min_value=0, max_value=(1 << k) - 1),
                             st.integers(min_value=-4, max_value=4),
                             max_size=5)
    a = SquareZeroPoly.from_dict(k, data.draw(coeffs))
    b = SquareZeroPoly.from_dict(k, data.draw(coeffs))
    assert a.mul(b) == b.mul(a)


def sparse(k, table):
    return SquareZeroPoly.from_dict(k, dict(enumerate(table)))


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=80, deadline=None)
def test_fold_is_the_linear_factor_product(k, data):
    table = data.draw(st.lists(st.integers(min_value=-9, max_value=9),
                               min_size=1 << k, max_size=1 << k))
    i = data.draw(st.integers(min_value=1, max_value=k))
    factor = SquareZeroPoly.one(k).add(SquareZeroPoly.linear(k, i))
    expected = sparse(k, table).mul(factor)
    reference._fold_one_plus(table, 1 << (i - 1))
    assert sparse(k, table) == expected


def test_doubled_inverse_is_the_sparse_product():
    for k in range(1, 9):
        inverse = SquareZeroPoly.one(k)
        for i in range(1, k + 1):
            inverse = inverse.mul(SquareZeroPoly.one(k).add(
                SquareZeroPoly.linear(k, i, -1)))
        table = reference._doubled_inverse(k)
        assert len(table) == 1 << k
        assert [inverse.coefficient(m) for m in range(1 << k)] == table


def test_chern_computes_the_identity(monkeypatch):
    # the list kernel folds, so a fold that skips a variable must fail
    fold = reference._fold_one_plus

    def skip_third_variable(table, bit):
        if bit != 0b100:
            fold(table, bit)
    monkeypatch.setattr(reference, "_fold_one_plus", skip_third_variable)
    assert reference.chern_min_embedding_ranks(2) == [2, 4]
    with pytest.raises(RuntimeError,
                       match="class inverse failed its defining identity"):
        reference.chern_min_embedding_ranks(3)
    with pytest.raises(RuntimeError,
                       match="class inverse failed its defining identity"):
        reference.chern_min_embedding_ranks(14)


def rank_from_scratch(k: int) -> int:
    """One rank on its own list table: the identity and the top class of
    the k-fold product, computed."""
    inverse = reference._doubled_inverse(k)
    product = inverse.copy()
    for i in range(k):
        reference._fold_one_plus(product, 1 << i)
    if product[0] != 1 or product.count(0) != len(product) - 1:
        raise RuntimeError("class inverse failed its defining identity")
    full_mask = len(inverse) - 1
    top = (k if inverse[full_mask] else
           max(m.bit_count() for m, c in enumerate(inverse) if c))
    if top != k or inverse[full_mask] != (-1) ** k:
        raise RuntimeError("top obstruction class degenerated")
    return k + top


def test_chern_ranks_from_one_table_match_each_from_scratch():
    assert chern_min_embedding_ranks(14) == [rank_from_scratch(k)
                                             for k in range(1, 15)]


def test_chern_rank_doubles():
    for k in range(1, 11):
        assert chern_min_embedding_rank(k) == 2 * k


def test_chern_rejects_bad_k():
    with pytest.raises(ValueError):
        chern_min_embedding_rank(0)
    with pytest.raises(ValueError):
        chern_min_embedding_rank(-3)


def test_inverse_class_top_coefficient():
    # the lemma's top coefficient (-1)^k of the inverse class, by hand
    k = 4
    inverse = SquareZeroPoly.one(k)
    for i in range(1, k + 1):
        inverse = inverse.mul(SquareZeroPoly.one(k).add(
            SquareZeroPoly.linear(k, i, -1)))
    assert inverse.coefficient((1 << k) - 1) == 1
    inverse5 = SquareZeroPoly.one(5)
    for i in range(1, 6):
        inverse5 = inverse5.mul(SquareZeroPoly.one(5).add(
            SquareZeroPoly.linear(5, i, -1)))
    assert inverse5.coefficient((1 << 5) - 1) == -1


# ----------------------------------------------------------------------
# projection symbols
# ----------------------------------------------------------------------

def test_projection_pair_example(half_third):
    sym = projection_pair(half_third, m=2, n=0)
    assert sym == ProjectionSymbol(patterned_rank=48, total_rank=95)
    assert Fraction(sym.total_rank, half_third.r(2)) == 1


def test_projection_pair_deeper_origin(half_third):
    sym = projection_pair(half_third, m=3, n=1)
    # h(1) s(1) r(3) = 3 * 45695, patterned part h(1) s(3) = 22848
    assert sym.total_rank == 3 * 45695
    assert sym.patterned_rank == 22848


def test_projection_pair_range_errors(half_third):
    with pytest.raises(ValueError):
        projection_pair(half_third, m=1, n=2)
    with pytest.raises(ValueError):
        projection_pair(half_third, m=9, n=0)


def test_rank_threshold_example(half_third):
    assert projection_pair(half_third, m=2, n=0).threshold == 143


def test_threshold_exceeds_total_rank(half_third):
    # absorbing the pattern always costs strictly more than the pair rank
    for crossed in (False, True):
        side = half_third.side(crossed)
        for n in range(half_third.depth + 1):
            for m in range(n, half_third.depth + 1):
                sym = projection_pair(half_third, m, n, crossed)
                assert sym.threshold == side.h(n) * side.s(n) \
                    * half_third.r(m) + side.h(n) * side.s(m)
                assert sym.threshold > sym.total_rank


# ----------------------------------------------------------------------
# the witness search
# ----------------------------------------------------------------------

def test_find_witness_wraps_search(half_third):
    rep = search_witness(half_third, Fraction(1, 4), crossed=False)
    assert (rep.n, rep.M) == (1, 7)
    assert rep.crossed is False
    assert rep.all_hold
