import json

import pytest

from ahtower.diagram import (DIAGRAM_DOCUMENT, build_diagram_document,
                             diagram_to_json_obj, export_diagram,
                             lattice_index, render_dot)
from ahtower.rational import ExtendedRational
from ahtower.sequences import (TargetParams, build_tables, declared_tables,
                               verify_document)
from ahtower.tower import torus_lattice


def tables_for(r, rp, d=1, depth=4):
    return build_tables(
        TargetParams(ExtendedRational.parse(r), ExtendedRational.parse(rp), d),
        depth)


@pytest.fixture(scope="module")
def half_third():
    return tables_for("1/2", "1/3")


def read_back(obj):
    """The document a diagram JSON declares, which it must pass
    ``verify_document`` to be."""
    assert verify_document(obj, DIAGRAM_DOCUMENT).ok
    return build_diagram_document(
        declared_tables(obj, int(obj["depthRange"]["hi"])))


def test_round_trip_depth_four(half_third):
    doc = build_diagram_document(half_third)
    text = export_diagram(half_third)
    parsed = read_back(json.loads(text))
    assert parsed == doc
    assert diagram_to_json_obj(parsed) == diagram_to_json_obj(doc)


def test_dot_regenerates_identically_from_json(half_third):
    doc = build_diagram_document(half_third)
    parsed = read_back(json.loads(export_diagram(half_third)))
    assert render_dot(parsed) == render_dot(doc)


def test_export_is_deterministic(half_third):
    assert export_diagram(half_third) == export_diagram(half_third)
    assert render_dot(build_diagram_document(half_third)) \
        == render_dot(build_diagram_document(half_third))


def test_each_run_is_built_once(half_third):
    # one list under both targets, one coordinate list per arrow
    for m in diagram_to_json_obj(build_diagram_document(half_third))["maps"]:
        run = m["into"]["C"]["arrows"]
        assert m["into"]["B"]["arrows"] is run
        assert all(a["point"] is a["eval"] for a in run[:-1])


def test_narrow_band_structure():
    obj = json.loads(export_diagram(tables_for("1/2", "1/3", depth=1)))
    assert obj["kind"] == "diagram"
    assert len(obj["stages"]) == 2
    assert len(obj["maps"]) == 1
    into = obj["maps"][0]["into"]
    assert set(into) == {"C", "B"}
    # one lattice evaluation plus the star evaluation land in each row
    assert [a["kind"] for a in into["C"]["arrows"]] \
        == ["pointEvalX", "starEval"]
    assert [s["kind"] for s in into["B"]["spans"]] \
        == ["pointEvalY", "coordProjection"]
    assert into["C"]["arrows"][0]["point"] == ["0"]
    assert into["C"]["arrows"][0]["eval"] == ["0"]


def test_multiplicity_block_serialized():
    obj = json.loads(export_diagram(tables_for("1/2", "1/3", depth=2)))
    assert obj["maps"][0]["multiplicity"] \
        == {"cc": "4", "cb": "1", "bc": "1", "bb": "4"}
    assert obj["maps"][1]["multiplicity"] \
        == {"cc": "18", "cb": "2", "bc": "1", "bb": "17"}


def test_dot_cluster_count_depth_two():
    dot = render_dot(build_diagram_document(tables_for("1/2", "1/3",
                                                       depth=2)))
    for n in range(3):
        assert f"subgraph cluster_L{n}_C" in dot
        assert f"subgraph cluster_L{n}_B" in dot
    assert dot.count("subgraph") == 6


def test_dot_edge_styles():
    dot = render_dot(build_diagram_document(tables_for("1/2", "1/3",
                                                       depth=2)))
    assert 'color="black:invis:black"' in dot
    assert "style=dotted" in dot
    assert "C_1_1 -> C_2_3" in dot
    assert "B_1 -> B_2" in dot
    # the level-0 map keeps one residual point evaluation on the B row
    assert '[style=dotted, label="x1"];' in dot


def test_dot_wires_projections_to_the_reduced_parent(half_third):
    dot = render_dot(build_diagram_document(half_third))
    # component 3 of level 2 sits over lattice point 3, which reduces to
    # 3 mod 2 = 1 at level 1
    assert 'C_1_1 -> C_2_3 [color="black:invis:black", label="x16"];' in dot
    assert 'C_0_0 -> C_1_1 [color="black:invis:black", label="x3"];' in dot


def test_lattice_index_matches_enumeration():
    for d, n in ((1, 3), (2, 2), (3, 1)):
        size = 2 ** n
        for k, z in enumerate(torus_lattice(d, n)):
            assert lattice_index(z, size) == k


def test_higher_rank_document():
    t = tables_for("1/2", "1/3", d=2, depth=2)
    doc = build_diagram_document(t)
    obj = json.loads(export_diagram(t))
    assert obj["stages"][2]["cComponents"] == "16"
    parsed = read_back(obj)
    assert parsed == doc
    dot = render_dot(doc)
    assert 'z=(3,3)' in dot
    assert "C_2_15" in dot


def test_explicit_h_recorded():
    params = TargetParams(ExtendedRational.infinite(),
                          ExtendedRational.infinite(), 1)
    t = build_tables(params, 3, (1, 2, 2, 4))
    obj = json.loads(export_diagram(t))
    assert obj["hRule"] == "explicit"
    assert obj["hSeqOverride"] == ["1", "2", "2", "4"]
    assert read_back(obj) == build_diagram_document(t)


def test_bad_documents_rejected():
    good = json.loads(export_diagram(tables_for("1/2", "1/3", depth=1)))

    def refusal(bad):
        return verify_document(bad, DIAGRAM_DOCUMENT).first_failure

    assert "formatVersion" in refusal({**good, "formatVersion": "9"}).detail
    assert "kind" in refusal({**good, "kind": "tables"}).detail
    stages = refusal({**good,
                      "stages": [good["stages"][0], good["stages"][0]]})
    assert stages.name == "diagram matches canonical regeneration"
    assert stages.detail.startswith("$.stages[1].")
    assert refusal([]).name == "diagram document well formed"


BROKEN = {
    "no stages": lambda good: {k: v for k, v in good.items()
                               if k != "stages"},
    "null depthRange": lambda good: {**good, "depthRange": None},
    "null params": lambda good: {**good, "params": None},
    "stages not a list": lambda good: {**good, "stages": 5},
    "depth no int can hold": lambda good: {
        **good, "depthRange": {"lo": "0", "hi": float("inf")}},
}


@pytest.mark.parametrize("how", BROKEN)
def test_structurally_broken_documents_raise_value_error(how):
    # what reading a broken document raises fails the first entry
    good = json.loads(export_diagram(tables_for("1/2", "1/3", d=1, depth=3)))
    bad = BROKEN[how](good)
    report = verify_document(bad, DIAGRAM_DOCUMENT)
    assert report.first_failure.name == "diagram document well formed"
