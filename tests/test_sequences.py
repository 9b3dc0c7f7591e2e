import dataclasses
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahtower.cli import main
from ahtower.crossed import check_upper_bound_gap
from ahtower.rational import ExtendedRational
from ahtower.report import Checker
from ahtower.sequences import (TargetParams, build_tables, derive_kappa,
                               slot_padding, tables_from_cli, verify_tables)

import oracle

HALF = ExtendedRational.parse("1/2")
THIRD = ExtendedRational.parse("1/3")
INF = ExtendedRational.parse("inf")


def ff(r="1/2", rp=None, d=1):
    rp = r if rp is None else rp
    return TargetParams(ExtendedRational.parse(r), ExtendedRational.parse(rp), d)


def at(kappa, kappa_prime=None, d=1):
    """Targets whose kappa and kappa' are the given fractions in (0,1):
    radii below 1 give h = 1, so kappa = r and kappa' = r'."""
    kappa_prime = kappa if kappa_prime is None else kappa_prime
    return TargetParams(ExtendedRational(Fraction(kappa)),
                        ExtendedRational(Fraction(kappa_prime)), d)


# ----------------------------------------------------------------------
# rate targets
# ----------------------------------------------------------------------

def test_regimes():
    assert ff().regime == "finite-finite"
    assert TargetParams(INF, ExtendedRational.parse("5/2"), 1).regime == "infinite-finite"
    assert TargetParams(INF, INF, 2).regime == "infinite-infinite"


def test_params_rejects():
    with pytest.raises(ValueError):
        TargetParams(HALF, ExtendedRational.parse("0"), 1)   # r' positive
    with pytest.raises(ValueError):
        TargetParams(THIRD, HALF, 1)                         # r' <= r
    with pytest.raises(ValueError):
        TargetParams(HALF, HALF, 0)                          # d >= 1
    with pytest.raises(ValueError):
        TargetParams(INF, INF, 1, c_infinite=Fraction(1))    # c in (0,1)


def test_derive_kappa_finite_finite():
    rate = derive_kappa(ff("1/2", "1/3"))
    assert (rate.h_base, rate.kappa, rate.kappa_prime) == (1, Fraction(1, 2), Fraction(1, 3))
    rate = derive_kappa(ff("9/4", "1/4"))
    assert (rate.h_base, rate.kappa, rate.kappa_prime) == (3, Fraction(3, 4), Fraction(1, 12))
    # integer radius still needs h strictly above it
    rate = derive_kappa(ff("2", "2"))
    assert (rate.h_base, rate.kappa) == (3, Fraction(2, 3))


def test_derive_kappa_infinite_cases():
    rate = derive_kappa(TargetParams(INF, ExtendedRational.parse("5/2"), 2))
    assert rate.h_base is None and rate.h_prime_base == 3
    assert rate.kappa == rate.kappa_prime == Fraction(5, 6)
    rate = derive_kappa(TargetParams(INF, INF, 1))
    assert rate.h_base is None and rate.h_prime_base is None
    assert rate.kappa == Fraction(1, 2)
    rate = derive_kappa(TargetParams(INF, INF, 1, c_infinite=Fraction(2, 3)))
    assert rate.kappa == rate.kappa_prime == Fraction(2, 3)


# ----------------------------------------------------------------------
# d(n) and d'(n) are least solutions, against the scanning oracle
# ----------------------------------------------------------------------

def crossed_step(t, n):
    """gamma(n-1)*rho(n)/l(n): d'(n) is the least m with m times it at
    least kappa'."""
    return t.gamma(n - 1) * (t.kappa / t.ratio(n)) / t.l(n)


units = st.fractions(min_value="1/1000", max_value="999/1000")


# the tiny scan cap forces the oracle through its gallop-and-bisect path,
# which certifies the boundary pair either way
@given(units, st.integers(1, 3), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_least_k_matches_scan(kappa, d, depth):
    t = build_tables(at(kappa, d=d), depth)
    for n in range(1, depth + 1):
        pad, target = slot_padding(d, n), kappa / t.ratio(n - 1)
        assert t.d(n) == oracle.least_true(
            lambda j: Fraction(j, j + pad) > target, scan_cap=64)


@given(units, units, st.integers(1, 3), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_least_m_matches_scan(a, b, d, depth):
    kappa, kappa_prime = max(a, b), min(a, b)
    t = build_tables(at(kappa, kappa_prime, d), depth)
    for n in range(1, depth + 1):
        step = crossed_step(t, n)
        assert t.d_prime(n) == oracle.least_true(
            lambda j: j * step >= kappa_prime, scan_cap=64)


def test_least_m_takes_big_ints():
    # at r = 5, r' = 1/7 the d' step divides a 1072-bit excess: a float
    # ceiling would overflow
    t = build_tables(ff("5", "1/7"), 10)
    m, step = t.d_prime(10), crossed_step(t, 10)
    assert m.bit_length() == 2160
    assert m == math.ceil(t.kappa_prime / step)
    assert (m - 1) * step < t.kappa_prime <= m * step


# ----------------------------------------------------------------------
# frozen sequence heads (values recomputed by the scanning oracle)
# ----------------------------------------------------------------------

def test_half_rank_one_heads():
    p = build_tables(at(Fraction(1, 2)), 4)
    assert p.d_seq[1:] == (3, 16, 476, 411256)
    assert p.l_seq[1:] == (5, 19, 481, 411265)
    assert p.r_seq[1:4] == (5, 95, 45695)
    assert p.s_seq[1:4] == (3, 48, 22848)
    assert p.ratio(1) == Fraction(3, 5)
    assert p.ratio(2) == Fraction(48, 95)
    assert p.ratio(3) == Fraction(22848, 45695)


def test_three_quarters_heads():
    p = build_tables(at(Fraction(3, 4)), 3)
    assert p.d_seq[1:] == (7, 82, 11476)
    assert p.l_seq[1:] == (9, 85, 11481)
    assert p.ratio(2) == Fraction(574, 765)


def test_half_rank_two_heads():
    p = build_tables(at(Fraction(1, 2), d=2), 3)
    assert p.d_seq[1:] == (3, 26, 2636)
    assert p.l_seq[1:] == (5, 31, 2653)
    assert p.ratio(2) == Fraction(78, 155)


def test_nine_tenths_rank_three_heads():
    p = build_tables(at(Fraction(9, 10), d=3), 2)
    assert p.d_seq[1:] == (19, 1702)


def test_secondary_heads_third():
    t = build_tables(at(Fraction(1, 2), Fraction(1, 3)), 3)
    assert t.d_prime_seq[1:] == (2, 16, 476)
    assert t.s_prime_seq[1:] == (2, 32, 15232)
    assert [t.gamma(n) for n in (1, 2, 3)] \
        == [Fraction(2, 5), Fraction(32, 95), Fraction(15232, 45695)]
    for n in (1, 2, 3):
        rho = Fraction(1, 2) / t.ratio(n)
        assert t.gamma(n) * rho == Fraction(1, 3)


def test_secondary_collapses_when_targets_agree():
    t = build_tables(at(Fraction(9, 10)), 4)
    assert t.d_prime_seq == t.d_seq
    assert t.s_prime_seq == t.s_seq


def test_generate_d_matches_oracle_deeper():
    for kappa, d, depth in [(Fraction(1, 2), 1, 5), (Fraction(3, 4), 1, 4),
                            (Fraction(1, 2), 2, 4)]:
        p = build_tables(at(kappa, d=d), depth)
        od, ol, orp, osp, orat = oracle.primary_tables(kappa, d, depth)
        assert list(p.d_seq) == od
        assert list(p.l_seq) == ol
        assert list(p.r_seq) == orp
        assert list(p.s_seq) == osp
        assert [p.ratio(n) for n in range(depth + 1)] == orat


def test_generate_d_prime_matches_oracle():
    kappa, kp = Fraction(1, 2), Fraction(1, 3)
    t = build_tables(at(kappa, kp), 5)
    od, osp, og = oracle.secondary_tables(
        kappa, kp, list(t.d_seq), list(t.l_seq),
        [t.ratio(n) for n in range(6)], 5)
    assert list(t.d_prime_seq) == od
    assert list(t.s_prime_seq) == osp
    assert [t.gamma(n) for n in range(6)] == og


def test_generate_rejects():
    # kappa = c outside (0,1), d = 0 and kappa' > kappa are TargetParams
    # refusals; a negative depth is build_tables' own
    with pytest.raises(ValueError):
        build_tables(TargetParams(INF, INF, 1, c_infinite=Fraction(1)), 3)
    with pytest.raises(ValueError):
        build_tables(at(Fraction(1, 2), d=0), 3)
    with pytest.raises(ValueError):
        build_tables(at(Fraction(1, 2)), -1)
    with pytest.raises(ValueError):
        build_tables(at(Fraction(1, 2), Fraction(2, 3)), 3)  # kappa' > kappa


# ----------------------------------------------------------------------
# h-sequences
# ----------------------------------------------------------------------

def h_columns(t):
    """h(n) and h'(n) over levels 0..depth."""
    return (tuple(map(t.h, range(t.depth + 1))),
            tuple(map(t.h_prime, range(t.depth + 1))))


def test_choose_h_constant():
    t = build_tables(ff("1/2", "1/3"), 4)
    assert h_columns(t) == ((1, 1, 1, 1, 1),) * 2
    assert t.h_rule == "constant"
    t = build_tables(ff("9/4", "1/4"), 2)
    assert h_columns(t) == ((3, 3, 3),) * 2


def test_choose_h_growing():
    fi = TargetParams(INF, ExtendedRational.parse("5/2"), 1)
    t = build_tables(fi, 3)
    assert h_columns(t) == ((1, 2, 3, 4), (3, 3, 3, 3))
    assert t.h_rule == "linear"
    ii = TargetParams(INF, INF, 1)
    t = build_tables(ii, 3)
    assert h_columns(t) == ((1, 2, 3, 4),) * 2


def test_choose_h_override():
    ii = TargetParams(INF, INF, 1)
    t = build_tables(ii, 3, (1, 1, 2, 2))
    assert h_columns(t) == ((1, 1, 2, 2),) * 2
    assert t.h_rule == "explicit" and t.h_override == (1, 1, 2, 2)
    with pytest.raises(ValueError):
        build_tables(ii, 3, (2, 3, 4, 5))      # h(0) != 1
    with pytest.raises(ValueError):
        build_tables(ii, 3, (1, 2))            # too short
    with pytest.raises(ValueError):
        build_tables(ii, 3, (1, 3, 2, 2))      # not nondecreasing
    with pytest.raises(ValueError):
        build_tables(ii, 3, (1, 4, 8, 16))     # h/2^(nd) increases (d=1)
    with pytest.raises(ValueError):
        build_tables(ff(), 3, (1, 1, 1, 1))    # override in constant regime


# ----------------------------------------------------------------------
# assembled tables
# ----------------------------------------------------------------------

def test_build_tables_accessors():
    t = build_tables(ff("1/2", "1/3"), 3)
    assert t.d(1) == 3 and t.d(3) == 476
    assert t.l(0) == 1 and t.l(2) == 19
    assert t.r(2) == 95 and t.s(2) == 48 and t.s_prime(2) == 32
    assert t.ratio(2) == Fraction(48, 95)
    assert t.kappa / t.ratio(2) == Fraction(95, 96)
    assert t.gamma(2) == Fraction(32, 95)
    assert t.h(0) == t.h_prime(3) == 1
    assert t.torus_points(2) == 4
    with pytest.raises(ValueError):
        t.d(0)
    with pytest.raises(ValueError):
        t.r(4)


def test_verify_tables_green():
    cases = [
        (ff("1/2", "1/3"), 5),
        (ff("3/4", "1/4"), 5),
        (ff("9/10", "9/10", d=2), 4),
        (TargetParams(INF, ExtendedRational.parse("5/2"), 1), 5),
        (TargetParams(INF, INF, 1), 5),
    ]
    for params, depth in cases:
        rep = verify_tables(build_tables(params, depth))
        assert rep.ok, rep.first_failure


def test_verify_tables_catches_corruption():
    t = build_tables(ff("1/2", "1/3"), 3)
    bad = dataclasses.replace(t, d_seq=t.d_seq[:2] + (17,) + t.d_seq[3:])
    rep = verify_tables(bad)
    assert not rep.ok
    assert "d(2) minimal" == rep.first_failure.name


def test_failing_check_carries_its_detail():
    t = build_tables(ff("1/2", "1/3"), 3)
    rep = verify_tables(dataclasses.replace(
        t, d_seq=t.d_seq[:2] + (17,) + t.d_seq[3:]))
    bad = rep.first_failure
    assert (bad.name, bad.detail) == ("d(2) minimal", "d(2) has 5 bits")


def test_checker_formats_details_only_on_failure():
    calls = []

    def detail():
        calls.append(1)
        return "formatted"

    c = Checker()
    assert c.check("passes", True, detail)
    assert not c.check("fails", False, detail)
    assert not c.check("plain", False, "as given")
    assert calls == [1]
    assert [(e.name, e.detail) for e in c.report().entries] \
        == [("passes", ""), ("fails", "formatted"), ("plain", "as given")]


# (r, r', c) of each regime and its (kappa, kappa'), stated independently
REGIME_TARGETS = [
    (("1/2", "1/3", None), (Fraction(1, 2), Fraction(1, 3))),
    (("inf", "5/2", None), (Fraction(5, 6), Fraction(5, 6))),
    (("inf", "inf", "2/3"), (Fraction(2, 3), Fraction(2, 3))),
]


@pytest.mark.parametrize("d,depth", [(1, 5), (2, 4), (3, 3)])
@pytest.mark.parametrize("radii,kappas", REGIME_TARGETS)
def test_plan_quotients_match_the_oracle(tmp_path, radii, kappas, d, depth):
    # the ratio and gamma a plan document writes, built from s, s' and r,
    # against the oracle's Fraction recursions
    r, r_prime, c = radii
    path = tmp_path / "tables.json"
    argv = ["plan", "--r", r, "--r-prime", r_prime, "--d", str(d),
            "--depth", str(depth), "--out", str(path)]
    assert main(argv + ([] if c is None else ["--c", c])) == 0
    doc = json.loads(path.read_text())
    kappa, kappa_prime = kappas
    d_seq, l_seq, _, _, ratio = oracle.primary_tables(kappa, d, depth)
    _, _, gamma = oracle.secondary_tables(kappa, kappa_prime, d_seq, l_seq,
                                          ratio, depth)

    def as_json(values):
        return [{"num": str(x.numerator), "den": str(x.denominator)}
                for x in values]

    assert doc["ratio"] == as_json(ratio)
    assert doc["gamma"] == as_json(gamma)


@pytest.mark.parametrize("field", ["r_seq", "s_seq"])
def test_zero_r_or_s_fails_without_raising(field):
    # a zero r(n) or s(n) leaves ratio(n), rho(n) or gamma(n) undefined: the
    # entries that read it fail, and no detail divides by zero
    t = build_tables(ff("1/2", "1/3"), 4)
    seq = getattr(t, field)
    for n in range(t.depth + 1):
        bad = dataclasses.replace(t, **{field: seq[:n] + (0,) + seq[n + 1:]})
        tables_report = verify_tables(bad)
        failed = {e.name for e in tables_report.entries if not e.ok}
        if n == 0:
            assert "empty products" in failed
            continue
        gap_report = check_upper_bound_gap(bad)
        failed |= {e.name for e in gap_report.entries if not e.ok}
        assert {f"kappa < ratio({n}) < ratio({n - 1})",
                f"rho({n}) in (kappa, 1)", f"gamma*rho window at {n}",
                f"gamma gap inside its window (n={n})"} <= failed


ACCESSORS = ("d", "l", "r", "s", "d_prime", "s_prime", "h", "h_prime",
             "ratio", "gamma", "torus_points")


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("params, override", [
    (ff("1/2", "1/3"), None),
    (TargetParams(INF, ExtendedRational.parse("5/2"), 1), None),
    (TargetParams(INF, INF, 1, c_infinite=Fraction(2, 3)), None),
    (TargetParams(INF, INF, 1), (1, 1, 2, 2, 3, 3, 3)),
], ids=["finite-finite", "infinite-finite", "infinite-infinite", "explicit-h"])
def test_shallower_tables_are_prefixes(params, override, d):
    # each level follows from the one before alone, so a table of depth k
    # agrees with any deeper one at every level <= k
    params = dataclasses.replace(params, d=d)
    deepest = 6
    full = build_tables(params, deepest, override)
    for k in range(deepest + 1):
        part = build_tables(params, k, override)
        assert (part.kappa, part.kappa_prime, part.h_rule) \
            == (full.kappa, full.kappa_prime, full.h_rule)
        for name in ACCESSORS:
            for n in range(1 if name in ("d", "d_prime") else 0, k + 1):
                assert getattr(part, name)(n) == getattr(full, name)(n), \
                    (name, n)


def test_tables_from_cli_strings():
    t = tables_from_cli("inf", "inf", 1, 3, c="2/3", h_seq="1,2,2,4")
    assert t.kappa == Fraction(2, 3)
    assert t.h_override == h_columns(t)[0] == (1, 2, 2, 4)
    assert t.h_rule == "explicit"


# ----------------------------------------------------------------------
# property: the whole pipeline stays inside its windows
# ----------------------------------------------------------------------

@given(st.fractions(min_value="1/20", max_value="19/20"),
       st.fractions(min_value="1/20", max_value="19/20"),
       st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_pipeline_invariants_property(kappa, kappa_prime, d):
    if kappa_prime > kappa:
        kappa, kappa_prime = kappa_prime, kappa
    t = build_tables(at(kappa, kappa_prime, d), 3)
    for n in range(1, 4):
        assert kappa < t.ratio(n) < t.ratio(n - 1) <= 1
        assert 1 <= t.d_prime(n) <= t.d(n)
        rho = kappa / t.ratio(n)
        gap = t.gamma(n) * rho - kappa_prime
        assert 0 <= gap < Fraction(1, t.l(n))
