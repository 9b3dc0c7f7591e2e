"""The lemmas behind reading a connecting map off its description.

A built map holds its lattice and star arrows as ``LatticeArrows(d, n)``,
and ``check_unital`` and ``check_equivariance`` read them off it instead of
walking them.  Spelled out as a tuple, the description is the arrow tuple
``reference_arrows`` of the maps that stored one, a census of each target
row finds every lattice slot once, with its own label, from the C row and
one star arrow from the B row, and the per-arrow replay of the shift
(``reference_check_equivariance``) passes for every generator and every
drawn shift.  So the one lemma entry of each check holds exactly where
the census and the replay do.  A map holding anything else fails the
lemma entries and is refused by the writers."""

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahtower.action import check_equivariance
from ahtower.cli import standard_generators
from ahtower.diagram import (build_diagram_document, diagram_to_json_obj,
                             dot_blocks)
from ahtower.sequences import tables_from_cli
from ahtower.tower import (KIND_POINT_EVAL_X, KIND_STAR_EVAL, STAR, Arrow,
                           ConnectingMap, LatticeArrows, TorusSlot,
                           build_connecting_map, check_unital, torus_lattice)
from test_cli import UNITAL_ENTRIES
from test_equivariance_replay import reference_check_equivariance

REGIMES = [("1/2", "1/3"), ("inf", "5/2"), ("inf", "inf")]

# every (d, n) with n*d <= 12, for d up to 12
SMALL = [(d, n) for d in range(1, 13) for n in range(12 // d + 1)]

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


def assert_census(arrows, d, n):
    """Per target row: each lattice slot once, labelled by its own point,
    from the C row, and one star arrow from the B row; nothing else."""
    lattice = sorted(torus_lattice(d, n))
    for target in ("C", "B"):
        row = [a for a in arrows if a.target == target]
        evals = [a for a in row if a.kind == KIND_POINT_EVAL_X]
        stars = [a for a in row if a.kind == KIND_STAR_EVAL]
        assert len(evals) + len(stars) == len(row)
        assert all(isinstance(a.slot, TorusSlot) for a in evals)
        assert sorted(a.slot.point for a in evals) == lattice
        assert all(a.source == "C" and a.eval_point == a.slot.point
                   for a in evals)
        assert [(a.source, a.slot, a.eval_point) for a in stars] \
            == [("B", STAR, None)]


@functools.lru_cache(maxsize=None)
def tables(regime, d):
    return tables_from_cli(*regime, d, 4)


@functools.lru_cache(maxsize=None)
def described_and_spelled(regime, d, level):
    cmap = build_connecting_map(tables(regime, d), level)
    return cmap, dataclasses.replace(cmap, arrows=tuple(cmap.arrows))


@functools.lru_cache(maxsize=None)
def bare_and_spelled(d, n):
    """A map with only its lattice and star arrows, described and spelled
    out; no tables are built, so d and n can be large."""
    cmap = ConnectingMap(level=n, d=d, arrows=LatticeArrows(d, n), spans=())
    return cmap, dataclasses.replace(cmap, arrows=tuple(cmap.arrows))


def assert_same_verdict(report, reference):
    """The lemma entry passes where the replay's entries all do."""
    assert report.ok == reference.ok, (report.first_failure,
                                       reference.first_failure)


def assert_edited_map_fails(t, cmap):
    """The arrow-reading entry fails, naming the description it is not."""
    why = f"arrows are not LatticeArrows(d={cmap.d}, level={cmap.level})"
    failed = [e for e in check_unital(t, cmap).entries if not e.ok]
    assert [e.name for e in failed] == UNITAL_ENTRIES[:1]
    assert {e.detail for e in failed} == {why}
    report = check_equivariance(cmap, (1,) * cmap.d)
    assert not report.ok and report.first_failure.detail == why


CASES = [(regime, d, level) for regime in REGIMES for d in (1, 2, 3)
         for level in range(4)]


@pytest.mark.parametrize("regime, d, level", CASES)
def test_unital_and_generators_match_spelled_map(regime, d, level):
    # the described map passes what the census and the replay of its
    # spelled-out arrows establish; the spelled-out map is an edited one
    described, spelled = described_and_spelled(regime, d, level)
    assert described.described and not spelled.described
    t = tables(regime, d)
    report = check_unital(t, described)
    assert report.ok, report.first_failure
    assert_census(spelled.arrows, d, level)
    for g in standard_generators(d):
        report = check_equivariance(described, g)
        assert report.ok, report.first_failure
        assert_same_verdict(report, reference_check_equivariance(spelled, g))
    assert_edited_map_fails(t, spelled)


@pytest.mark.parametrize("d, n", SMALL)
def test_description_satisfies_the_lemmas(d, n):
    described, spelled = bare_and_spelled(d, n)
    assert spelled.arrows == reference_arrows(d, n)
    assert_census(spelled.arrows, d, n)
    for g in standard_generators(d):
        report = reference_check_equivariance(spelled, g)
        assert report.ok, report.first_failure
        assert_same_verdict(check_equivariance(described, g), report)


COORDINATES = st.one_of(st.integers(-20, 20),
                        st.sampled_from([2 ** 70, -2 ** 70]),
                        st.integers(-2 ** 70, 2 ** 70))


@given(st.sampled_from(SMALL), st.data())
@settings(max_examples=40, deadline=None)
def test_drawn_shifts_match_spelled_map(case, data):
    d, n = case
    described, spelled = bare_and_spelled(d, n)
    g = data.draw(st.tuples(*[COORDINATES] * d))
    report = reference_check_equivariance(spelled, g)
    assert report.ok, report.first_failure
    assert_same_verdict(check_equivariance(described, g), report)


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


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("level", [0, 2])
def test_description_of_another_lattice_fails(regime, d, level):
    t = tables(regime, d)
    cmap = build_connecting_map(t, level)
    doc = build_diagram_document(t)
    for wrong in (LatticeArrows(d, level + 1), LatticeArrows(d + 1, level)):
        for arrows in (wrong, tuple(wrong)):
            bad = dataclasses.replace(cmap, arrows=arrows)
            assert not bad.described
            assert_edited_map_fails(t, bad)
            edited = dataclasses.replace(
                doc, maps=doc.maps[:level] + (bad,) + doc.maps[level + 1:])
            for writer in (diagram_to_json_obj,
                           lambda doc: next(dot_blocks(doc))):
                with pytest.raises(ValueError, match="LatticeArrows"):
                    writer(edited)
