"""Differential test: ``render_dot`` and the blocks of ``dot_blocks``
against the per-edge renderer they replaced, byte for byte, on clean and
reparsed documents, and ``export --format dot`` against ``render_dot``.
The per-edge renderer draws any arrows it is given; the writers draw only
a map's own description and refuse a document whose arrows were
rearranged or moved off the lattice."""

import dataclasses
import functools
import json

import pytest

from ahtower.cli import main
from ahtower.diagram import (DIAGRAM_DOCUMENT, EVAL_STYLE, PROJECTION_STYLE,
                             build_diagram_document, diagram_to_json_obj,
                             dot_blocks, lattice_index, render_dot)
from ahtower.sequences import declared_tables, tables_from_cli, verify_document
from ahtower.tower import (KIND_COORD_PROJECTION, KIND_POINT_EVAL_X,
                           KIND_STAR_EVAL, TorusSlot, torus_lattice)


def slot_index(point, size):
    """The reference's own lookup of an arrow's source: a point off the
    lattice raises."""
    if not all(0 <= c < size for c in point):
        raise ValueError(f"point {point} outside [0, {size})^d")
    return lattice_index(point, size)


def reference_render_dot(doc):
    """The per-edge renderer: one f-string and one lookup per edge."""
    d = doc.tables.params.d
    out = ["digraph tower {",
           "  rankdir=LR;",
           "  node [shape=box, fontsize=10];"]
    for n in range(doc.tables.depth + 1):
        # both rows of stage n hold matrices of size r(n)
        out.append(f"  subgraph cluster_L{n}_C {{")
        out.append(f'    label="level {n} C row";')
        size_label = f"M={doc.tables.r(n)}"
        for k, z in enumerate(torus_lattice(d, n)):
            zs = ",".join(str(c) for c in z)
            out.append(f'    C_{n}_{k} [label="z=({zs})\\n{size_label}"];')
        out.append("  }")
        out.append(f"  subgraph cluster_L{n}_B {{")
        out.append(f'    label="level {n} B row";')
        out.append(f'    B_{n} [label="M={doc.tables.r(n)}"];')
        out.append("  }")
    for dmap in doc.maps:
        n = dmap.level
        size = 2 ** n
        for k_t, w in enumerate(torus_lattice(d, n + 1)):
            parent = lattice_index(tuple(c % size for c in w), size)
            for span in dmap.spans_into("C"):
                out.append(f"  C_{n}_{parent} -> C_{n + 1}_{k_t} "
                           f'[{PROJECTION_STYLE}, label="x{span.count}"];')
            for arrow in [a for a in dmap.arrows if a.target == "C"]:
                if arrow.kind == KIND_POINT_EVAL_X:
                    k_s = slot_index(arrow.slot.point, size)
                    out.append(f"  C_{n}_{k_s} -> C_{n + 1}_{k_t} "
                               f"[{EVAL_STYLE}];")
                else:
                    out.append(f"  B_{n} -> C_{n + 1}_{k_t} [{EVAL_STYLE}];")
        for arrow in [a for a in dmap.arrows if a.target == "B"]:
            if arrow.kind == KIND_POINT_EVAL_X:
                k_s = slot_index(arrow.slot.point, size)
                out.append(f"  C_{n}_{k_s} -> B_{n + 1} [{EVAL_STYLE}];")
            else:
                out.append(f"  B_{n} -> B_{n + 1} [{EVAL_STYLE}];")
        for span in dmap.spans_into("B"):
            if span.kind == KIND_COORD_PROJECTION:
                out.append(f"  B_{n} -> B_{n + 1} "
                           f'[{PROJECTION_STYLE}, label="x{span.count}"];')
            else:
                out.append(f"  B_{n} -> B_{n + 1} "
                           f'[{EVAL_STYLE}, label="x{span.count}"];')
    out.append("}")
    return "\n".join(out) + "\n"


REGIMES = [("1/2", "1/3"), ("inf", "1/3"), ("inf", "inf")]
SETTINGS = [(1, 5), (2, 3), (3, 2)]


@functools.lru_cache(maxsize=None)
def tables(r, r_prime, d, depth):
    return tables_from_cli(r, r_prime, d, depth)


def assert_same(doc):
    reference = reference_render_dot(doc)
    assert render_dot(doc) == reference
    # the stream: the header with the stage clusters, one block per target
    # node of each map and one of its B-row edges, then the closing brace
    blocks = list(dot_blocks(doc))
    assert "".join(blocks) == reference
    assert blocks[0].startswith("digraph tower {") and blocks[-1] == "}\n"
    assert all(block.endswith("\n") for block in blocks)
    d = doc.tables.params.d
    assert len(blocks) == 2 + sum(2 ** ((m.level + 1) * d) + 1
                                  for m in doc.maps)


@pytest.mark.parametrize("r, r_prime", REGIMES)
@pytest.mark.parametrize("d, depth", SETTINGS)
def test_every_band_matches_reference(r, r_prime, d, depth):
    # every depth k <= depth: the tables of depth k are levels 0..k of the
    # deeper tables
    for k in range(depth + 1):
        assert_same(build_diagram_document(tables(r, r_prime, d, k)))


@pytest.mark.parametrize("d, depth", SETTINGS)
def test_reparsed_document_matches_reference(d, depth):
    doc = build_diagram_document(tables("1/2", "1/3", d, depth))
    obj = json.loads(json.dumps(diagram_to_json_obj(doc)))
    assert verify_document(obj, DIAGRAM_DOCUMENT).ok
    parsed = build_diagram_document(declared_tables(obj, depth))
    assert parsed == doc
    assert_same(parsed)


def rearranged(doc, order):
    """``doc`` with every map's C-target arrows put in another order, held
    as a tuple of arrows."""
    def row(m, target):
        return tuple(a for a in m.arrows if a.target == target)

    maps = tuple(dataclasses.replace(
        m, arrows=tuple(order(row(m, "C"))) + row(m, "B")) for m in doc.maps)
    return dataclasses.replace(doc, maps=maps)


def star_first(arrows):
    return sorted(arrows, key=lambda a: a.kind != KIND_STAR_EVAL)


def assert_refused(doc, match="LatticeArrows"):
    """Both writers refuse ``doc``; the stream before its first block."""
    for writer in (render_dot, lambda doc: next(dot_blocks(doc)),
                   diagram_to_json_obj):
        with pytest.raises(ValueError, match=match):
            writer(doc)


@pytest.mark.parametrize("order", [star_first, lambda a: a[::-1],
                                   lambda a: ()],
                         ids=["star first", "reversed", "empty"])
@pytest.mark.parametrize("d, depth", SETTINGS)
def test_rearranged_arrows_match_reference(order, d, depth):
    # the reference draws a rearranged map in its own line order; the
    # writers have no drawing for anything but a map's description
    doc = rearranged(
        build_diagram_document(tables("1/2", "1/3", d, depth)), order)
    assert reference_render_dot(doc)
    assert_refused(doc)


def test_rearrangements_change_the_drawing():
    # the refusals above are of maps whose drawing differs from the
    # described one, not the same map again
    doc = build_diagram_document(tables("1/2", "1/3", 1, 3))
    drawings = {reference_render_dot(rearranged(doc, order))
                for order in (tuple, star_first, lambda a: a[::-1],
                              lambda a: ())}
    assert len(drawings) == 4
    assert reference_render_dot(rearranged(doc, tuple)) == render_dot(doc)


@pytest.mark.parametrize("target", ["into_c", "into_b"])
@pytest.mark.parametrize("d", [1, 2])
def test_point_outside_the_lattice_raises_in_both(target, d):
    doc = build_diagram_document(tables("1/2", "1/3", d, 3))
    m = doc.maps[2]
    row = {"into_c": "C", "into_b": "B"}[target]
    arrows = list(m.arrows)
    i = next(i for i, a in enumerate(arrows)
             if a.kind == KIND_POINT_EVAL_X and a.target == row)
    arrows[i] = dataclasses.replace(arrows[i],
                                    slot=TorusSlot((2 ** m.level,) * d))
    bad = dataclasses.replace(m, arrows=tuple(arrows))
    doc = dataclasses.replace(doc, maps=doc.maps[:2] + (bad,))
    with pytest.raises(ValueError, match="outside"):
        reference_render_dot(doc)
    assert_refused(doc, match=r"map 2: arrows are not LatticeArrows")


@pytest.mark.parametrize("d, depth", SETTINGS)
def test_export_writes_render_dot_bytes(capsys, tmp_path, d, depth):
    # the CLI streams the blocks; the bytes are render_dot's, through --out
    # and through stdout
    expected = render_dot(build_diagram_document(tables("1/2", "1/3", d,
                                                        depth)))
    flags = ["export", "--format", "dot", "--r", "1/2", "--r-prime", "1/3",
             "--d", str(d), "--depth", str(depth)]
    path = tmp_path / "tower.dot"
    assert main([*flags, "--out", str(path)]) == 0
    assert path.read_bytes() == expected.encode("utf-8")
    capsys.readouterr()
    assert main(flags) == 0
    assert capsys.readouterr().out == expected
