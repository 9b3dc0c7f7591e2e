import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahtower.diagram import build_diagram_document, diagram_to_json_obj
from ahtower.rational import ExtendedRational
from ahtower.sequences import TargetParams, build_tables
from ahtower.tower import (STAR, ArrowSpan, BlockMatrix, TorusSlot,
                           build_connecting_map, check_unital, lattice_maps,
                           multiplicity_matrix, verify_tower)
from test_cli import UNITAL_ENTRIES
from test_verify_reference import compose_multiplicities, identity


def tables_for(r, rp, d=1, depth=5):
    return build_tables(
        TargetParams(ExtendedRational.parse(r), ExtendedRational.parse(rp), d),
        depth)


@pytest.fixture(scope="module")
def half_third():
    return tables_for("1/2", "1/3")


def test_stage_shapes(half_third):
    # a stage is read off the tables; the diagram writes it from them
    stages = diagram_to_json_obj(build_diagram_document(half_third))["stages"]
    assert stages[2] == {
        "level": "2", "cComponents": "4",
        "cBaseDimension": "96",                # 2 * h(2) * s(2) = 2*1*48
        "cMatrixSize": "95",
        "bBaseDimension": "64",                # 2 * h'(2) * s'(2) = 2*1*32
        "bMatrixSize": "95"}
    assert stages[0]["cComponents"] == "1"
    assert stages[0]["cBaseDimension"] == "2"


def test_root_map_census(half_third):
    cmap = build_connecting_map(half_third, 0)
    into_c = [a for a in cmap.arrows if a.target == "C"]
    assert [a.kind for a in into_c] == ["pointEvalX", "starEval"]
    assert into_c[0].slot == TorusSlot((0,))
    assert into_c[0].eval_point == (0,)
    assert into_c[1].slot == STAR
    assert cmap.spans_into("C") == [ArrowSpan("C", "C", "coordProjection", 1, 3)]
    # d'(1) = 2 < d(1) = 3, so the B row keeps one residual point evaluation
    assert cmap.spans_into("B") == [
        ArrowSpan("B", "B", "pointEvalY", 3, 3),
        ArrowSpan("B", "B", "coordProjection", 1, 2),
    ]


def test_level_one_map_has_no_residual_evals(half_third):
    # d(2) = d'(2) = 16: the pointEvalY span disappears entirely
    cmap = build_connecting_map(half_third, 1)
    kinds = {s.kind for s in cmap.spans_into("B")}
    assert kinds == {"coordProjection"}
    spans = cmap.spans_into("B")
    assert spans[-1] == ArrowSpan("B", "B", "coordProjection", 1, 16)
    assert cmap.arrows.points + 1 == 3    # two lattice evals + star


def test_check_unital_green(half_third):
    for n in range(half_third.depth):
        rep = check_unital(half_third, build_connecting_map(half_third, n))
        assert rep.ok, rep.first_failure
    rep = check_unital(half_third, build_connecting_map(half_third, 1))
    assert [e.name for e in rep.entries] == UNITAL_ENTRIES


def assert_edited_map_fails(tables, cmap):
    """An edited map fails the entry that reads its lattice and star
    arrows, and no other, with a detail naming the description."""
    rep = check_unital(tables, cmap)
    failed = [e for e in rep.entries if not e.ok]
    assert [e.name for e in failed] == UNITAL_ENTRIES[:1]
    assert {e.detail for e in failed} \
        == {f"arrows are not LatticeArrows(d=1, level={cmap.level})"}


def test_check_unital_catches_deleted_arrow(half_third):
    cmap = build_connecting_map(half_third, 1)
    removed = next(a for a in cmap.arrows
                   if a.target == "C" and a.kind == "pointEvalX")
    mutated = dataclasses.replace(
        cmap, arrows=tuple(a for a in cmap.arrows if a != removed))
    rep = check_unital(half_third, mutated)
    assert not rep.ok
    bad = rep.first_failure
    assert bad.name == "lattice and star arrows described (lemma)"
    assert bad.detail == "arrows are not LatticeArrows(d=1, level=1)"


@pytest.mark.parametrize("target", ["C", "B"])
def test_check_unital_catches_label_on_star_arrow(half_third, target):
    cmap = build_connecting_map(half_third, 2)
    arrows = list(cmap.arrows)
    i = next(i for i, a in enumerate(arrows)
             if a.kind == "starEval" and a.target == target)
    arrows[i] = dataclasses.replace(arrows[i], eval_point=(3,))
    assert_edited_map_fails(half_third,
                            dataclasses.replace(cmap, arrows=tuple(arrows)))


@pytest.mark.parametrize("target, other", [("C", "B"), ("B", "C")])
def test_check_unital_fails_a_point_evaluation_on_the_star_slot(
        half_third, target, other):
    # the star arrow into target trades kinds with a lattice arrow into
    # the other row: a pointEvalX arrow on the star slot is a failed entry,
    # not an AttributeError
    cmap = build_connecting_map(half_third, 2)
    arrows = list(cmap.arrows)
    i = next(i for i, a in enumerate(arrows)
             if a.kind == "starEval" and a.target == target)
    j = next(i for i, a in enumerate(arrows)
             if a.kind == "pointEvalX" and a.target == other)
    arrows[i], arrows[j] = (dataclasses.replace(arrows[i], kind="pointEvalX"),
                            dataclasses.replace(arrows[j], kind="starEval"))
    assert_edited_map_fails(half_third,
                            dataclasses.replace(cmap, arrows=tuple(arrows)))


def test_check_unital_catches_span_gap(half_third):
    cmap = build_connecting_map(half_third, 1)
    spans = tuple(dataclasses.replace(s, lo=2) if s.target == "C" else s
                  for s in cmap.spans)
    rep = check_unital(half_third, dataclasses.replace(cmap, spans=spans))
    assert not rep.ok
    assert any("C-target" in e.name and not e.ok for e in rep.entries)


@pytest.mark.parametrize("target", ["C", "B"])
def test_check_unital_fails_a_row_with_no_spans(half_third, target):
    # a failed entry, not an IndexError
    cmap = build_connecting_map(half_third, 1)
    spans = tuple(s for s in cmap.spans if s.target != target)
    rep = check_unital(half_third, dataclasses.replace(cmap, spans=spans))
    assert [e.name for e in rep.entries if not e.ok] == [
        f"{target}-target projection slots covered once",
        f"{target}-target census"]


def test_multiplicity_examples(half_third):
    assert multiplicity_matrix(half_third, 0) == BlockMatrix(4, 1, 1, 4)
    assert compose_multiplicities(half_third, 0, 1) == BlockMatrix(4, 1, 1, 4)
    assert compose_multiplicities(half_third, 2, 2) == identity()


def test_composed_totals_match_size_ratio(half_third):
    t = half_third
    for m in range(t.depth + 1):
        for n in range(m, t.depth + 1):
            totals = compose_multiplicities(t, m, n).into_totals()
            assert totals["C"] == totals["B"] == t.r(n) // t.r(m)
            assert t.r(m) * totals["C"] == t.r(n)


def test_compose_rejects_bad_range(half_third):
    with pytest.raises(ValueError):
        compose_multiplicities(half_third, 2, 1)
    with pytest.raises(ValueError):
        multiplicity_matrix(half_third, half_third.depth)


def test_verify_tower_across_regimes():
    inf = ExtendedRational.parse("inf")
    cases = [
        tables_for("1/2", "1/3", depth=5),
        tables_for("3/4", "1/4", d=2, depth=4),
        tables_for("9/10", "9/10", depth=4),
        build_tables(TargetParams(inf, ExtendedRational.parse("5/2"), 1), 4),
        build_tables(TargetParams(inf, inf, 2), 3),
    ]
    for t in cases:
        rep = verify_tower(t, lattice_maps(t))
        assert rep.ok, rep.first_failure


def test_verify_tower_checks_every_level_in_full():
    # level 6 at d=3 has 262,144 lattice points per row; its slot checks
    # run in full, not skipped
    t = tables_for("1/2", "1/3", d=3, depth=7)
    maps = lattice_maps(t)
    assert [cmap.level for cmap in maps] == list(range(7))
    rep = verify_tower(t, maps)
    assert rep.ok, rep.first_failure
    assert not [e.name for e in rep.entries if "skipped" in e.name]
    assert [e.name for e in rep.entries if e.name.startswith("map 6: ")] \
        == ["map 6: " + e.name for e in check_unital(t, maps[6]).entries]


@given(st.fractions(min_value="1/10", max_value="9/10"),
       st.integers(1, 2), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_unitality_property(kappa, d, depth):
    r = ExtendedRational(Fraction(kappa))
    t = build_tables(TargetParams(r, r, d), depth)
    for n in range(depth):
        assert check_unital(t, build_connecting_map(t, n)).ok
