"""Differential test: a connecting map that describes its lattice arrows
(``LatticeArrows``) against the same map with the arrows spelled out as a
tuple, which the check suites replay arrow by arrow."""

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahtower.action import check_equivariance
from ahtower.cli import standard_generators
from ahtower.sequences import tables_from_cli
from ahtower.tower import (KIND_POINT_EVAL_X, KIND_STAR_EVAL, STAR, Arrow,
                           LatticeArrows, TorusSlot, build_connecting_map,
                           check_unital, torus_lattice)

REGIMES = [("1/2", "1/3"), ("inf", "5/2"), ("inf", "inf")]


def reference_arrows(d, n):
    """The explicit arrows ``build_connecting_map`` stored before maps
    described them."""
    arrows = []
    for target in ("C", "B"):
        for z in torus_lattice(d, n):
            arrows.append(Arrow("C", target, KIND_POINT_EVAL_X,
                                TorusSlot(z), z))
        arrows.append(Arrow("B", target, KIND_STAR_EVAL, STAR))
    return tuple(arrows)


@functools.lru_cache(maxsize=None)
def tables(regime, d):
    return tables_from_cli(*regime, d, 4)


@functools.lru_cache(maxsize=None)
def described_and_spelled(regime, d, level):
    cmap = build_connecting_map(tables(regime, d), level)
    return cmap, dataclasses.replace(cmap, arrows=tuple(cmap.arrows))


def entries(report):
    return [(e.name, e.ok, e.detail) for e in report.entries]


CASES = [(regime, d, level) for regime in REGIMES for d in (1, 2, 3)
         for level in range(4)]


@pytest.mark.parametrize("regime, d, level", CASES)
def test_unital_and_generators_match_spelled_map(regime, d, level):
    described, spelled = described_and_spelled(regime, d, level)
    assert described.described and not spelled.described
    t = tables(regime, d)
    report = check_unital(t, described)
    assert report.ok, report.first_failure
    assert entries(report) == entries(check_unital(t, spelled))
    for g in standard_generators(d):
        report = check_equivariance(described, g)
        assert report.ok, report.first_failure
        assert entries(report) == entries(check_equivariance(spelled, g))


COORDINATES = st.one_of(st.integers(-20, 20),
                        st.sampled_from([2 ** 70, -2 ** 70]),
                        st.integers(-2 ** 70, 2 ** 70))


@given(st.sampled_from(CASES), st.data())
@settings(max_examples=60, deadline=None)
def test_drawn_shifts_match_spelled_map(case, data):
    regime, d, level = case
    described, spelled = described_and_spelled(regime, d, level)
    g = data.draw(st.tuples(*[COORDINATES] * d))
    assert entries(check_equivariance(described, g)) == \
        entries(check_equivariance(spelled, g))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_description_reads_as_the_explicit_tuple(d, n):
    arrows = LatticeArrows(d, n)
    want = reference_arrows(d, n)
    assert tuple(arrows) == want
    assert len(arrows) == len(want)
    assert [arrows[i] for i in range(len(want))] == list(want)
    assert [arrows[-i] for i in range(1, len(want) + 1)] \
        == [want[-i] for i in range(1, len(want) + 1)]
    for index in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            arrows[index]
    for target in ("C", "B"):
        assert arrows.into(target) == [a for a in want if a.target == target]


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("level", [0, 2])
def test_description_of_another_lattice_fails(regime, d, level):
    cmap = build_connecting_map(tables(regime, d), level)
    for wrong in (LatticeArrows(d, level + 1), LatticeArrows(d + 1, level)):
        bad = dataclasses.replace(cmap, arrows=wrong)
        assert not bad.described
        assert not check_unital(tables(regime, d), bad).ok
        spelled = dataclasses.replace(cmap, arrows=tuple(wrong))
        g = (1,) * d
        assert entries(check_equivariance(bad, g)) == \
            entries(check_equivariance(spelled, g))
