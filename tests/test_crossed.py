import dataclasses
import sys
from fractions import Fraction

import pytest

import ahtower.tower
from ahtower.certificates import search_witness
from ahtower.comparison import ProjectionSymbol, projection_pair
from ahtower.crossed import check_crossed_sizes, check_upper_bound_gap
from ahtower.rational import ExtendedRational
from ahtower.sequences import TargetParams, build_tables, tables_from_cli

from test_verify_reference import crossed_rc_upper


def tables_for(r, rp, d=1, depth=4, c=None):
    kwargs = {}
    if c is not None:
        kwargs["c_infinite"] = Fraction(c)
    return build_tables(
        TargetParams(ExtendedRational.parse(r), ExtendedRational.parse(rp), d,
                     **kwargs),
        depth)


@pytest.fixture(scope="module")
def half_third():
    return tables_for("1/2", "1/3")


# ----------------------------------------------------------------------
# shapes and censuses
# ----------------------------------------------------------------------

def test_size_recursion_direct(half_third):
    d = half_third.params.d
    for n in range(half_third.depth):
        assert half_third.r(n + 1) * 2 ** ((n + 1) * d) \
            == half_third.r(n) * 2 ** (n * d) * half_third.l(n + 1) * 2 ** d


def test_check_crossed_sizes_green(half_third):
    report = check_crossed_sizes(half_third)
    assert report.ok, report.first_failure
    names = {e.name for e in report.entries}
    assert "size recursion at level 0" in names


def test_check_crossed_sizes_respects_cap(half_third, monkeypatch):
    built = []
    original = ahtower.tower.build_connecting_map

    def counting(tables, n):
        built.append(n)
        return original(tables, n)

    monkeypatch.setattr(ahtower.tower, "build_connecting_map", counting)
    report = check_crossed_sizes(half_third)
    assert report.ok, report.first_failure
    # the size recursion needs no map, so every level is checked without
    # building one
    assert [e.name for e in report.entries] \
        == [f"size recursion at level {n}" for n in range(half_third.depth)]
    assert built == []


def test_check_crossed_sizes_other_regimes():
    for t in (tables_for("1/2", "1/3", d=2, depth=3),
              tables_for("inf", "5/2", depth=3),
              tables_for("inf", "inf", depth=3, c="1/2")):
        report = check_crossed_sizes(t)
        assert report.ok, report.first_failure


# ----------------------------------------------------------------------
# the swapped projection pair
# ----------------------------------------------------------------------

def test_crossed_projection_pair_example(half_third):
    sym = projection_pair(half_third, m=2, n=1, crossed=True)
    assert sym == ProjectionSymbol(patterned_rank=32, total_rank=190)
    assert sym.threshold == 190 + 32


def test_crossed_pair_range_errors(half_third):
    with pytest.raises(ValueError):
        projection_pair(half_third, m=0, n=1, crossed=True)
    with pytest.raises(ValueError):
        projection_pair(half_third, m=7, n=0, crossed=True)


# ----------------------------------------------------------------------
# upper bounds and the gap identity
# ----------------------------------------------------------------------

def test_rc_upper_frozen_values(half_third):
    b1 = crossed_rc_upper(half_third, 1)
    assert b1.b_part == Fraction(1, 2)
    assert b1.c_part == Fraction(7, 20)
    assert b1.value == Fraction(1, 2)
    b2 = crossed_rc_upper(half_third, 2)
    assert b2.b_part == Fraction(13, 38)
    assert b2.c_part == Fraction(97, 760)


def test_gap_identity_frozen_values(half_third):
    rp = Fraction(1, 3)
    gaps = [crossed_rc_upper(half_third, n).b_part - rp for n in (1, 2, 3)]
    assert gaps == [Fraction(1, 6), Fraction(1, 114), Fraction(1, 54834)]
    # the level-1 excess splits into its two exact contributions
    assert gaps[0] == Fraction(1, 15) + Fraction(1, 10)
    assert half_third.gamma(1) - half_third.kappa_prime == Fraction(1, 15)


def test_gap_identity_exact(half_third):
    rp = half_third.params.r_prime.finite_value
    d = half_third.params.d
    for n in range(1, half_third.depth + 1):
        bound = crossed_rc_upper(half_third, n)
        assert bound.b_part - rp == half_third.h_prime(n) \
            * (half_third.gamma(n) - half_third.kappa_prime) \
            + Fraction(d, 2 * half_third.r(n))


def test_check_upper_bound_gap_green(half_third):
    report = check_upper_bound_gap(half_third)
    assert report.ok, report.first_failure
    names = [e.name for e in report.entries]
    assert "small-row excess identity (n=1)" in names
    assert "big-row part strictly decreasing (n=2)" in names


def test_check_upper_bound_gap_other_targets():
    for t in (tables_for("3/4", "1/4", depth=4),
              tables_for("1/2", "1/2", depth=4),
              tables_for("inf", "5/2", depth=4)):
        report = check_upper_bound_gap(t)
        assert report.ok, report.first_failure


def test_gap_check_needs_finite_primed_radius():
    t = tables_for("inf", "inf", depth=3, c="1/2")
    with pytest.raises(ValueError, match="finite"):
        check_upper_bound_gap(t)


# at d=1 depth 14 the integers of both suites' details are past the
# int->str digit limit: a failure names each by its bit length, and the
# suite reports it rather than raising
PAST_THE_LIMIT = "-bit integer past the int->str digit limit>"


@pytest.fixture(scope="module")
def deep():
    if not 0 < sys.get_int_max_str_digits() <= 5000:
        pytest.skip("needs an int->str digit limit near the default")
    return tables_from_cli("1/2", "1/3", 1, 14)


def test_a_failed_size_recursion_past_the_digit_limit_is_reported(deep):
    edited = dataclasses.replace(
        deep, r_seq=deep.r_seq[:14] + (deep.r_seq[14] + 1,))
    failure = check_crossed_sizes(edited).first_failure
    assert failure.name == "size recursion at level 13"
    assert failure.detail == (f"<40128{PAST_THE_LIMIT} vs "
                              f"<20064{PAST_THE_LIMIT}*"
                              f"<20064{PAST_THE_LIMIT}*2")


def test_a_failed_gap_identity_past_the_digit_limit_is_reported(deep):
    # h' is derived from the params, so r' = h'*kappa' and the identity
    # fails only where r(n) is 0; its detail then writes s'(n)-sized parts
    edited = dataclasses.replace(deep, r_seq=deep.r_seq[:14] + (0,))
    [failure] = [e for e in check_upper_bound_gap(edited).entries
                 if e.name == "small-row excess identity (n=14)"]
    assert not failure.ok
    assert PAST_THE_LIMIT in failure.detail
    assert len(failure.detail) < 300


def test_collapsed_targets_tie_the_two_rows():
    # kappa' = kappa makes the big-row part exactly the small-row part
    # divided by the lattice size
    t = tables_for("inf", "inf", depth=4, c="1/2")
    for n in range(t.depth + 1):
        bound = crossed_rc_upper(t, n)
        assert bound.c_part * 2 ** (n * t.params.d) == bound.b_part


# ----------------------------------------------------------------------
# witnesses
# ----------------------------------------------------------------------

def test_crossed_witness_values(half_third):
    rep = search_witness(half_third, Fraction(1, 4), crossed=True)
    assert (rep.n, rep.M) == (2, 119)
    assert rep.crossed is True
    assert rep.all_hold
    assert any(r.name == "trace match (m=4)" and r.relation == "="
               for r in rep.ledger)


def test_crossed_witness_precondition(half_third):
    with pytest.raises(ValueError, match="below the target radius"):
        search_witness(half_third, Fraction(2, 5), crossed=True)
