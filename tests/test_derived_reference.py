"""Differential test: the values a table derives from its inputs against
the fields that tables stored before.

A table stored its regime (a copy of ``RateChoice.regime``), kappa,
kappa', h rule and the h and h' columns beside its params.  The forms
that built them are copied below as they were: ``derive_kappa`` with its regime, and
the h tuples that ``levels`` built from the rate, the depth and an h
override, with the override's five refusals.  On drawn targets in all
three regimes at d = 1..3, with and without an explicit h, the derived
``regime``, ``kappa``, ``kappa_prime``, ``h_rule``, ``h(n)``, ``h'(n)`` and
``h_override`` must equal what a table stored, and a bad override must be
refused with the same message before ``levels`` yields a row.
"""

import contextlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahtower import sequences
from ahtower.rational import ExtendedRational
from ahtower.sequences import TargetParams, build_tables

from test_verify_reference import params

INF = ExtendedRational.infinite()


# -- the stored fields, as they were built ------------------------------------

def stored_rate(params: TargetParams) -> tuple:
    """``derive_kappa`` as it was: (regime, kappa, kappa', h base, h' base),
    a base None where that h grows."""
    if not params.r.is_infinite:
        regime = "finite-finite"
    elif not params.r_prime.is_infinite:
        regime = "infinite-finite"
    else:
        regime = "infinite-infinite"
    if regime == "finite-finite":
        r = params.r.finite_value
        h = math.floor(r) + 1
        return (regime, Fraction(r, h),
                Fraction(params.r_prime.finite_value, h), h, h)
    if regime == "infinite-finite":
        rp = params.r_prime.finite_value
        hp = math.floor(rp) + 1
        kappa = Fraction(rp, hp)
        return regime, kappa, kappa, None, hp
    c = params.c_infinite
    return regime, c, c, None, None


def stored_h_tuples(rate: tuple, d: int, depth: int,
                    h_override: tuple[int, ...] | None) -> tuple:
    """The h and h' tuples ``levels`` built before its first row."""
    _, _, _, h_base, h_prime_base = rate
    if h_override is not None:
        if h_base is not None:
            raise ValueError("h-sequence override only applies when h grows")
        h = tuple(int(x) for x in h_override)
        if len(h) < depth + 1:
            raise ValueError(f"h-sequence override needs {depth + 1} entries")
        h = h[:depth + 1]
        if h[0] != 1:
            raise ValueError("h(0) must equal 1")
        if any(y < x for x, y in zip(h, h[1:])):
            raise ValueError("h-sequence must be nondecreasing")
        if any(y > x * 2 ** d for x, y in zip(h, h[1:])):
            raise ValueError("h(n)/2^(nd) must be nonincreasing")
    elif h_base is None:
        h = tuple(range(1, depth + 2))
    else:
        h = (h_base,) * (depth + 1)
    h_prime = h if h_prime_base is None else (h_prime_base,) * (depth + 1)
    return h, h_prime


def stored(params, depth, h_override):
    """The fields a table stored beside its columns."""
    rate = stored_rate(params)
    h, h_prime = stored_h_tuples(rate, params.d, depth, h_override)
    rule = ("constant" if rate[3] is not None else
            "linear" if h_override is None else "explicit")
    return (rate[0], rate[1], rate[2], rule, h, h_prime,
            h if rule == "explicit" else None)


def derived(tables):
    levels = range(tables.depth + 1)
    return (tables.regime, tables.kappa, tables.kappa_prime, tables.h_rule,
            tuple(map(tables.h, levels)), tuple(map(tables.h_prime, levels)),
            tables.h_override)


# -- comparisons --------------------------------------------------------------

@contextlib.contextmanager
def rows_counted():
    """The rows ``levels`` yields while the block runs."""
    rows = []
    original = sequences.levels

    def counted(*args):
        for row in original(*args):
            rows.append(row)
            yield row

    sequences.levels = counted
    try:
        yield rows
    finally:
        sequences.levels = original


def assert_same_fields(target, depth, override):
    try:
        want = stored(target, depth, override)
    except ValueError as exc:
        with rows_counted() as rows:
            with pytest.raises(ValueError) as refused:
                build_tables(target, depth, override)
        assert str(refused.value) == str(exc)
        assert rows == []
        return
    assert derived(build_tables(target, depth, override)) == want


@st.composite
def overrides(draw, d):
    """An explicit h that starts at 1, never falls and keeps h(n)/2^(nd)
    nonincreasing, sometimes with one entry edited so that it does not."""
    h = [1]
    for step in draw(st.lists(st.integers(0, 100), max_size=8)):
        h.append(h[-1] + step * h[-1] * (2 ** d - 1) // 100)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(h) - 1))
        h[i] = draw(st.integers(0, 2 ** (d + 3)))
    return tuple(h)


@st.composite
def cases(draw):
    target = draw(params())
    depth = draw(st.integers(0, 6))
    override = draw(st.none() | overrides(target.d))
    return target, depth, override


@given(cases())
@settings(max_examples=300, deadline=None)
def test_derived_values_equal_the_stored_fields(case):
    assert_same_fields(*case)


def growing(d):
    return TargetParams(INF, INF, d)


@pytest.mark.parametrize("target, override, message", [
    (TargetParams(ExtendedRational.parse("1/2"),
                  ExtendedRational.parse("1/3"), 1), (1, 1, 1, 1),
     "h-sequence override only applies when h grows"),
    (growing(1), (1, 2), "h-sequence override needs 4 entries"),
    (growing(1), (2, 3, 4, 5), "h(0) must equal 1"),
    (growing(2), (1, 3, 2, 2), "h-sequence must be nondecreasing"),
    (growing(1), (1, 2, 5, 5), "h(n)/2^(nd) must be nonincreasing"),
])
def test_each_bad_override_is_refused_before_a_row(target, override,
                                                   message):
    with rows_counted() as rows:
        with pytest.raises(ValueError) as refused:
            build_tables(target, 3, override)
    assert str(refused.value) == message
    assert rows == []
    assert_same_fields(target, 3, override)


def test_a_good_override_is_built_through_the_counted_rows():
    # the counter sees the rows of a table that builds, so an empty count
    # above means no row was computed
    with rows_counted() as rows:
        tables = build_tables(growing(1), 3, (1, 2, 2, 4))
    assert len(rows) == 4 and tables.h_override == (1, 2, 2, 4)
