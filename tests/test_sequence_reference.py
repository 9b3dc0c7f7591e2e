"""Differential test: the integer recursion of d(n) and d'(n) against the
Fraction generator it replaced, on drawn targets and on deep tables, and
the excess lemma of the `sequences` docstring on the generator's rows.

The Fraction generator keeps its running ratio and gamma to itself: tables
hold only the integer sequences, so it returns those."""

import math
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahtower import sequences
from ahtower.rational import ExtendedRational
from ahtower.sequences import TargetParams, derive_kappa, slot_padding

from test_verify_reference import params

INF = ExtendedRational.infinite()


class PrimarySequences(NamedTuple):
    d_seq: tuple[int, ...]
    l_seq: tuple[int, ...]
    r_prod: tuple[int, ...]
    s_prod: tuple[int, ...]


class SecondarySequences(NamedTuple):
    d_prime_seq: tuple[int, ...]
    s_prime_prod: tuple[int, ...]


# -- the Fraction generator, as it was ------------------------------------

def least_k_ratio_exceeds(c: int, target: Fraction) -> int:
    """Least positive integer k with k/(k+c) > target, for 0 < target < 1.

    Solved in closed form from k*(q-p) > c*p and certified at the boundary.
    """
    if not (0 < target < 1):
        raise ValueError("target must lie strictly between 0 and 1")
    p, q = target.numerator, target.denominator
    k = max(1, (c * p) // (q - p) + 1)
    if not Fraction(k, k + c) > target:
        raise RuntimeError("least-k certificate failed high side")
    if k > 1 and Fraction(k - 1, k - 1 + c) > target:
        raise RuntimeError("least-k certificate failed low side")
    return k


def least_m_product_reaches(step: Fraction, target: Fraction) -> int:
    """Least positive integer m with m*step >= target, for positive step."""
    if step <= 0 or target <= 0:
        raise ValueError("step and target must be positive")
    m = max(1, math.ceil(target / step))
    if not m * step >= target:
        raise RuntimeError("least-m certificate failed high side")
    if m > 1 and (m - 1) * step >= target:
        raise RuntimeError("least-m certificate failed low side")
    return m


def generate_d(kappa: Fraction, d: int, depth: int) -> PrimarySequences:
    """Generate d(n), l(n), r(n), s(n) and the running ratio to ``depth``."""
    if not (0 < kappa < 1):
        raise ValueError("kappa must lie strictly between 0 and 1")
    if d < 1:
        raise ValueError("torus rank d must be a positive integer")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    d_seq, l_seq = [0], [1]
    r_prod, s_prod, ratio = [1], [1], [Fraction(1)]
    for n in range(1, depth + 1):
        pad = slot_padding(d, n)
        dn = least_k_ratio_exceeds(pad, kappa / ratio[n - 1])
        ln = dn + pad
        d_seq.append(dn)
        l_seq.append(ln)
        r_prod.append(r_prod[n - 1] * ln)
        s_prod.append(s_prod[n - 1] * dn)
        ratio.append(ratio[n - 1] * Fraction(dn, ln))
        if not kappa < ratio[n] < ratio[n - 1]:
            raise RuntimeError(f"ratio left (kappa, 1) at level {n}")
    return PrimarySequences(tuple(d_seq), tuple(l_seq), tuple(r_prod),
                            tuple(s_prod))


def generate_d_prime(kappa: Fraction, kappa_prime: Fraction,
                     primary: PrimarySequences, depth: int) -> SecondarySequences:
    """Generate d'(n) so that gamma_n * rho_n lands in [kappa', kappa' + 1/l(n)).

    When kappa' = kappa the construction collapses to d' = d exactly.
    """
    if not (0 < kappa_prime <= kappa):
        raise ValueError("kappa' must lie in (0, kappa]")
    if kappa_prime == kappa:
        return SecondarySequences(primary.d_seq, primary.s_prod)
    d_prime, s_prime, gamma = [0], [1], [Fraction(1)]
    ratio = Fraction(1)
    for n in range(1, depth + 1):
        ln = primary.l_seq[n]
        ratio *= Fraction(primary.d_seq[n], ln)
        rho_n = kappa / ratio
        step = gamma[n - 1] * rho_n / ln
        m = least_m_product_reaches(step, kappa_prime)
        if not 1 <= m <= primary.d_seq[n]:
            raise RuntimeError(f"d'({n}) = {m} escapes [1, d({n})]")
        d_prime.append(m)
        s_prime.append(s_prime[n - 1] * m)
        gamma.append(gamma[n - 1] * Fraction(m, ln))
        gap = gamma[n] * rho_n - kappa_prime
        if not (0 <= gap < Fraction(1, ln)):
            raise RuntimeError(f"gamma*rho window missed at level {n}")
    return SecondarySequences(tuple(d_prime), tuple(s_prime))


# -- comparisons ------------------------------------------------------------

def outcome(fn, *args):
    """The value ``fn`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:            # compared, not hidden
        return type(exc), str(exc)


def at(kappa, kappa_prime, d):
    """Targets whose kappa and kappa' are the given fractions in (0,1):
    radii below 1 give h = 1, so kappa = r and kappa' = r'."""
    return TargetParams(ExtendedRational(Fraction(kappa)),
                        ExtendedRational(Fraction(kappa_prime)), d)


def assert_same_tables(params, depth):
    rate = derive_kappa(params)
    got = sequences.build_tables(params, depth)
    want = generate_d(rate.kappa, params.d, depth)
    assert (got.d_seq, got.l_seq, got.r_seq, got.s_seq) == want
    want_prime = generate_d_prime(rate.kappa, rate.kappa_prime, want, depth)
    assert (got.d_prime_seq, got.s_prime_seq) == want_prime


targets = st.fractions(min_value=Fraction(1, 60), max_value=Fraction(59, 60),
                       max_denominator=60)


@given(targets, targets, st.integers(1, 3), st.integers(0, 7))
@settings(max_examples=150, deadline=None)
def test_generators_match_reference(a, b, d, depth):
    kappa, kappa_prime = max(a, b), min(a, b)
    assert_same_tables(at(kappa, kappa_prime, d), depth)
    assert_same_tables(at(kappa, kappa, d), depth)


@given(params(), st.integers(0, 7))
@settings(max_examples=150, deadline=None)
def test_excesses_follow_the_lemma(target, depth):
    # e(n) = q*s(n) - p*r(n) and g(n) = a*s'(n) - b*s(n), read off the
    # Fraction generator's rows, obey the recursion `levels` carries
    rate = derive_kappa(target)
    primary = generate_d(rate.kappa, target.d, depth)
    d_seq, _, r, s = primary
    d_prime, s_prime = generate_d_prime(rate.kappa, rate.kappa_prime,
                                        primary, depth)
    p, q = rate.kappa.numerator, rate.kappa.denominator
    a = p * rate.kappa_prime.denominator
    b = rate.kappa_prime.numerator * q
    e = [q * s[n] - p * r[n] for n in range(depth + 1)]
    g = [a * s_prime[n] - b * s[n] for n in range(depth + 1)]
    assert (e[0], g[0]) == (q - p, a - b)
    for n in range(1, depth + 1):
        bar = slot_padding(target.d, n) * p * r[n - 1]
        assert d_seq[n] == bar // e[n - 1] + 1
        assert e[n] == d_seq[n] * e[n - 1] - bar
        assert 1 <= e[n] <= e[n - 1] <= q - p
        step = a * s_prime[n - 1]
        assert d_prime[n] == d_seq[n] - d_seq[n] * g[n - 1] // step
        assert g[n] == (d_prime[n] - d_seq[n]) * step + d_seq[n] * g[n - 1]
        assert 0 <= g[n] < step


# The certify-sweep points of seed 1 (r, r', c, d, depth), the repeated one
# once: r(depth) has 12.5-13.5 kbit.  Only the finite-finite ones have
# kappa' < kappa.
SWEEP_POINTS = [
    ("2", "1", None, 1, 12), ("2", "1/2", None, 1, 12),
    ("11/3", "55/24", None, 2, 11), ("11/4", "33/16", None, 2, 11),
    ("12/7", "9/7", None, 3, 11), ("13/3", "13/4", None, 3, 11),
    ("inf", "2/3", None, 1, 12), ("inf", "2", None, 1, 12),
    ("inf", "11/4", None, 2, 11), ("inf", "11/3", None, 2, 11),
    ("inf", "13/3", None, 3, 11), ("inf", "17/7", None, 3, 11),
    ("inf", "inf", "2/3", 1, 12), ("inf", "inf", "12/13", 2, 11),
    ("inf", "inf", "13/14", 2, 11), ("inf", "inf", "11/13", 3, 11),
    ("inf", "inf", "6/7", 3, 11),
]


@pytest.mark.parametrize("r,r_prime,c,d,depth", SWEEP_POINTS)
def test_deep_tables_match_reference(r, r_prime, c, d, depth):
    extra = {} if c is None else {"c_infinite": Fraction(c)}
    assert_same_tables(TargetParams(ExtendedRational.parse(r),
                                    ExtendedRational.parse(r_prime), d,
                                    **extra), depth)


HALF = Fraction(1, 2)


@pytest.mark.parametrize("kappa,d,depth", [
    (Fraction(0), 1, 3), (Fraction(1), 1, 3), (Fraction(3, 2), 1, 3),
    (Fraction(-1, 2), 1, 3), (HALF, 0, 3), (HALF, -1, 3), (HALF, 1, -1),
])
def test_generate_d_refuses_like_reference(kappa, d, depth):
    want = outcome(generate_d, kappa, d, depth)
    assert isinstance(want, tuple) and want[0] is ValueError
    # kappa = c where both radii are infinite; a c outside (0,1) is the
    # TargetParams refusal, which names c
    if not 0 < kappa < 1:
        want = (ValueError, "c must lie strictly between 0 and 1")
    assert outcome(lambda: sequences.build_tables(
        TargetParams(INF, INF, d, c_infinite=kappa), depth)) == want


# a kappa' outside (0, kappa] is, as r' against r = kappa, one of these
# refusals of TargetParams or ExtendedRational
R_PRIME_REFUSALS = {
    Fraction(0): "r' must be positive",
    Fraction(-1, 3): "ExtendedRational must be nonnegative",
    Fraction(2, 3): "r' must not exceed r",
    Fraction(1): "r' must not exceed r",
}


@pytest.mark.parametrize("kappa_prime", [
    Fraction(0), Fraction(-1, 3), Fraction(2, 3), Fraction(1),
])
def test_generate_d_prime_refuses_like_reference(kappa_prime):
    primary = generate_d(HALF, 1, 3)
    want = outcome(generate_d_prime, HALF, kappa_prime, primary, 3)
    assert isinstance(want, tuple) and want[0] is ValueError
    assert outcome(lambda: sequences.build_tables(
        at(HALF, kappa_prime, 1), 3)) \
        == (ValueError, R_PRIME_REFUSALS[kappa_prime])
