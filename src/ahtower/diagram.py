"""Serialized views of the tower: a JSON document and a DOT drawing.

The document freezes levels 0..depth of the tables: one stage entry per
level with the component counts and block sizes, and one map entry per
gap carrying the full arrow lists (split by target row) together with
the block multiplicity matrix.  Parsing the emitted JSON reproduces the
document exactly, and the DOT drawing is a pure function of the
document, so the drawing regenerated from a parsed file matches the one
drawn from the original tables.

Node identifiers are stable: C_{n}_{k} for the lattice component whose
point has index k in lexicographic enumeration, B_{n} for the merged
row.  Coordinate-projection edges use the doubled-line style
(color="black:invis:black"); every evaluation edge is dotted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from .rational import document_text, ints_from_json, ints_to_json
from .report import CheckReport
from .sequences import (FORMAT_VERSION, DocumentKind, GrowthTables,
                        TargetParams, h_override_from_json, require_document)
from .tower import (BLOCK_B, BLOCK_C, KIND_COORD_PROJECTION,
                    KIND_POINT_EVAL_X, KIND_POINT_EVAL_Y, KIND_STAR_EVAL,
                    STAR, Arrow, ArrowSpan, BlockMatrix, BlockSpec,
                    StageSpec, TorusSlot, build_connecting_map, build_stage,
                    torus_lattice)


# ----------------------------------------------------------------------
# document model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TargetArrows:
    """Everything one target row receives from one connecting map."""

    arrows: tuple[Arrow, ...]
    spans: tuple[ArrowSpan, ...]


@dataclass(frozen=True)
class DiagramMap:
    level: int                    # the map climbs from level to level + 1
    d_next: int
    d_prime_next: int
    multiplicity: BlockMatrix
    into_c: TargetArrows
    into_b: TargetArrows


@dataclass(frozen=True)
class DiagramDocument:
    params: TargetParams
    h_rule: str
    h_override: tuple[int, ...] | None
    depth: int
    stages: tuple[StageSpec, ...]
    maps: tuple[DiagramMap, ...]


def build_diagram_document(tables: GrowthTables) -> DiagramDocument:
    maps = []
    for n in range(tables.depth):
        cmap = build_connecting_map(tables, n)
        maps.append(DiagramMap(
            level=n,
            d_next=tables.d(n + 1),
            d_prime_next=tables.d_prime(n + 1),
            multiplicity=cmap.multiplicity,
            into_c=TargetArrows(tuple(cmap.arrows_into(BLOCK_C)),
                                tuple(cmap.spans_into(BLOCK_C))),
            into_b=TargetArrows(tuple(cmap.arrows_into(BLOCK_B)),
                                tuple(cmap.spans_into(BLOCK_B)))))
    return DiagramDocument(
        params=tables.params, h_rule=tables.h_rule,
        h_override=tables.h_override, depth=tables.depth,
        stages=tuple(build_stage(tables, n) for n in range(tables.depth + 1)),
        maps=tuple(maps))


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------

def _arrow_to_json(arrow: Arrow) -> dict[str, Any]:
    obj: dict[str, Any] = {"source": arrow.source, "kind": arrow.kind}
    if arrow.kind == KIND_POINT_EVAL_X:
        obj["point"] = ints_to_json(arrow.slot.point)
        obj["eval"] = ints_to_json(arrow.eval_point)
    elif arrow.kind != KIND_STAR_EVAL:
        raise ValueError(f"cannot serialize single arrow of kind {arrow.kind}")
    return obj


def _arrow_from_json(obj: Any, target: str) -> Arrow:
    if not isinstance(obj, dict):
        raise ValueError("arrow must be an object")
    kind = obj.get("kind")
    if kind == KIND_STAR_EVAL:
        return Arrow(obj["source"], target, kind, STAR)
    if kind == KIND_POINT_EVAL_X:
        return Arrow(obj["source"], target, kind,
                     TorusSlot(tuple(ints_from_json(obj["point"]))),
                     tuple(ints_from_json(obj["eval"])))
    raise ValueError(f"unknown arrow kind {kind!r}")


def _span_to_json(span: ArrowSpan) -> dict[str, Any]:
    return {"source": span.source, "kind": span.kind,
            "lo": str(span.lo), "hi": str(span.hi)}


def _span_from_json(obj: Any, target: str) -> ArrowSpan:
    if not isinstance(obj, dict):
        raise ValueError("span must be an object")
    if obj.get("kind") not in (KIND_COORD_PROJECTION, KIND_POINT_EVAL_Y):
        raise ValueError(f"unknown span kind {obj.get('kind')!r}")
    return ArrowSpan(obj["source"], target, obj["kind"],
                     int(obj["lo"]), int(obj["hi"]))


def _target_to_json(bucket: TargetArrows) -> dict[str, Any]:
    return {"arrows": [_arrow_to_json(a) for a in bucket.arrows],
            "spans": [_span_to_json(s) for s in bucket.spans]}


def _target_from_json(obj: Any, target: str) -> TargetArrows:
    if not isinstance(obj, dict):
        raise ValueError("target bucket must be an object")
    return TargetArrows(
        tuple(_arrow_from_json(a, target) for a in obj["arrows"]),
        tuple(_span_from_json(s, target) for s in obj["spans"]))


def diagram_to_json_obj(doc: DiagramDocument) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "formatVersion": FORMAT_VERSION,
        "kind": "diagram",
        "params": doc.params.to_json_obj(),
        "hRule": doc.h_rule,
        "depthRange": {"lo": "0", "hi": str(doc.depth)},
        "stages": [{
            "level": str(s.level),
            "cComponents": str(s.c_block.components),
            "cMatrixSize": str(s.c_block.matrix_size),
            "cBaseDimension": str(s.c_block.base_dimension),
            "bMatrixSize": str(s.b_block.matrix_size),
            "bBaseDimension": str(s.b_block.base_dimension),
        } for s in doc.stages],
        "maps": [{
            "level": str(m.level),
            "dNext": str(m.d_next),
            "dPrimeNext": str(m.d_prime_next),
            "multiplicity": {"cc": str(m.multiplicity.cc),
                             "cb": str(m.multiplicity.cb),
                             "bc": str(m.multiplicity.bc),
                             "bb": str(m.multiplicity.bb)},
            "into": {BLOCK_C: _target_to_json(m.into_c),
                     BLOCK_B: _target_to_json(m.into_b)},
        } for m in doc.maps],
    }
    if doc.h_override is not None:
        obj["hSeqOverride"] = [str(x) for x in doc.h_override]
    return obj


def _read_diagram(doc: dict) -> tuple:
    """Params, depth and h override: all that regeneration reads."""
    params = TargetParams.from_json_obj(doc["params"])
    depth_range = doc["depthRange"]
    depth = int(depth_range["hi"])
    # levels the document does not list are refused before they are built
    if len(doc["stages"]) != depth - int(depth_range["lo"]) + 1:
        raise ValueError("stage levels must run contiguously over the band")
    return params, depth, h_override_from_json(doc)


def diagram_from_json_obj(obj: Any) -> DiagramDocument:
    params, depth, override = _read_diagram(require_document(obj, "diagram"))
    stages = tuple(StageSpec(
        int(s["level"]),
        BlockSpec(components=int(s["cComponents"]),
                  base_dimension=int(s["cBaseDimension"]),
                  matrix_size=int(s["cMatrixSize"])),
        BlockSpec(components=1,
                  base_dimension=int(s["bBaseDimension"]),
                  matrix_size=int(s["bMatrixSize"])),
    ) for s in obj["stages"])
    maps = tuple(DiagramMap(
        level=int(m["level"]),
        d_next=int(m["dNext"]),
        d_prime_next=int(m["dPrimeNext"]),
        multiplicity=BlockMatrix(cc=int(m["multiplicity"]["cc"]),
                                 cb=int(m["multiplicity"]["cb"]),
                                 bc=int(m["multiplicity"]["bc"]),
                                 bb=int(m["multiplicity"]["bb"])),
        into_c=_target_from_json(m["into"][BLOCK_C], BLOCK_C),
        into_b=_target_from_json(m["into"][BLOCK_B], BLOCK_B),
    ) for m in obj["maps"])
    # the stage count matches depthRange, so stages at levels 0..depth
    # also refuse a depthRange.lo other than 0
    if [s.level for s in stages] != list(range(depth + 1)):
        raise ValueError("stage levels must run contiguously over the band")
    if [m.level for m in maps] != list(range(depth)):
        raise ValueError("map levels must run contiguously over the band")
    return DiagramDocument(params=params, h_rule=obj["hRule"],
                           h_override=override, depth=depth,
                           stages=stages, maps=maps)


DIAGRAM_DOCUMENT = DocumentKind(
    tag="diagram", parsed="diagram document well formed",
    matches="diagram matches canonical regeneration", strict=False,
    read=_read_diagram, regenerate=lambda tables: (
        diagram_to_json_obj(build_diagram_document(tables)),
        CheckReport(())))


# ----------------------------------------------------------------------
# DOT
# ----------------------------------------------------------------------

def lattice_index(point: tuple[int, ...], size: int) -> int:
    """Position of a lattice point in lexicographic enumeration order.

    >>> lattice_index((1, 2), 4)
    6
    """
    index = 0
    for coordinate in point:
        if not 0 <= coordinate < size:
            raise ValueError(f"coordinate {coordinate} outside [0, {size})")
        index = index * size + coordinate
    return index


PROJECTION_STYLE = 'color="black:invis:black"'
EVAL_STYLE = "style=dotted"


def _edge_sources(arrows: tuple[Arrow, ...], n: int) -> list[str]:
    """The ``"  SOURCE -> "`` prefix of each arrow's edge out of level n."""
    size = 2 ** n
    return [f"  C_{n}_{lattice_index(a.slot.point, size)} -> "
            if a.kind == KIND_POINT_EVAL_X else f"  B_{n} -> "
            for a in arrows]


def dot_blocks(doc: DiagramDocument) -> Iterator[str]:
    """Draw the document in blocks of whole lines, with stable node ids: the
    header and stage clusters; per map, one block per target node and one
    of B-row edges; the closing ``}``.  The drawing has O(4^(nd)) edges,
    but a writer that takes the blocks as they come holds one node's.  All
    other lines, large integer labels included, are made before the first
    block is yielded, so a drawing refused at the int->str digit limit
    yields nothing.
    """
    d = doc.params.d
    out = ["digraph tower {", "  rankdir=LR;",
           "  node [shape=box, fontsize=10];"]
    for stage in doc.stages:
        n, size_label = stage.level, f"M={stage.c_block.matrix_size}"
        out += [f"  subgraph cluster_L{n}_C {{",
                f'    label="level {n} C row";']
        for k, z in enumerate(torus_lattice(d, n)):
            zs = ",".join(str(c) for c in z)
            out.append(f'    C_{n}_{k} [label="z=({zs})\\n{size_label}"];')
        out += ["  }", f"  subgraph cluster_L{n}_B {{",
                f'    label="level {n} B row";',
                f'    B_{n} [label="M={stage.b_block.matrix_size}"];', "  }"]
    maps = []
    for m in doc.maps:
        n = m.level
        # a trailing "" ends a target's join in its last edge's tail
        b_rows = f"B_{n + 1} [{EVAL_STYLE}];\n".join(
            _edge_sources(m.into_b.arrows, n) + [""])
        for s in m.into_b.spans:
            style = (PROJECTION_STYLE if s.kind == KIND_COORD_PROJECTION
                     else EVAL_STYLE)
            b_rows += f'  B_{n} -> B_{n + 1} [{style}, label="x{s.count}"];\n'
        maps.append((n, _edge_sources(m.into_c.arrows, n) + [""],
                     [f' [{PROJECTION_STYLE}, label="x{s.count}"];\n'
                      for s in m.into_c.spans], b_rows))
    yield "\n".join(out) + "\n"
    for n, sources, span_tails, b_rows in maps:
        size = 2 ** n
        for k_t, w in enumerate(torus_lattice(d, n + 1)):
            node = f"C_{n + 1}_{k_t}"
            parent = lattice_index(tuple(c % size for c in w), size)
            yield ("".join(f"  C_{n}_{parent} -> {node}{tail}"
                           for tail in span_tails)
                   + f"{node} [{EVAL_STYLE}];\n".join(sources))
        yield b_rows
    yield "}\n"


def render_dot(doc: DiagramDocument) -> str:
    """The whole drawing of ``dot_blocks`` as one string."""
    return "".join(dot_blocks(doc))


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def export_diagram(tables: GrowthTables) -> str:
    """The diagram of levels 0..depth as JSON text."""
    return document_text(diagram_to_json_obj(build_diagram_document(tables)))
