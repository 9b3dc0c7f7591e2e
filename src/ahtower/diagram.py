"""Serialized views of the tower: a JSON document and a DOT drawing.

A document is the tables with the connecting map out of every level,
the tower's own ``ConnectingMap``s.  Its JSON holds one stage entry per
level 0..depth with the component counts, block sizes and base
dimensions, written straight from the tables, and one map entry per gap
with the arrows and projection spans into each target row and the block
multiplicity matrix of ``multiplicity_matrix``.  Its one
reader is ``verify_document(obj, DIAGRAM_DOCUMENT)``, by regeneration: it
rebuilds the document from the params, depth and h override that the
JSON declares, and accepts the JSON only where it equals the rebuilt
document's.  The DOT drawing is a pure function of the document, so a
JSON that passes is drawn by drawing the document of its tables.

Node identifiers are stable: C_{n}_{k} for the lattice component whose
point has index k in lexicographic enumeration, B_{n} for the merged
row.  Coordinate-projection edges use the doubled-line style
(color="black:invis:black"); every evaluation edge is dotted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from .rational import document_text, ints_to_json, text_int
from .report import CheckReport
from .sequences import DocumentKind, GrowthTables, declared_tables
from .tower import (BLOCK_B, BLOCK_C, KIND_COORD_PROJECTION,
                    KIND_POINT_EVAL_X, KIND_STAR_EVAL, ArrowSpan,
                    ConnectingMap, LatticeArrows, lattice_maps,
                    multiplicity_matrix, torus_lattice)


# ----------------------------------------------------------------------
# document model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DiagramDocument:
    tables: GrowthTables
    maps: tuple[ConnectingMap, ...]


def build_diagram_document(tables: GrowthTables) -> DiagramDocument:
    return DiagramDocument(tables=tables, maps=lattice_maps(tables))


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------

def _described(cmap: ConnectingMap) -> LatticeArrows:
    """The map's lattice and star arrows; ValueError if they are not its
    own description (only an edited map's are not)."""
    if not cmap.described:
        raise ValueError(f"map {cmap.level}: {cmap.not_described()}")
    return cmap.arrows


def _span_to_json(span: ArrowSpan) -> dict[str, Any]:
    return {"source": span.source, "kind": span.kind,
            "lo": str(span.lo), "hi": str(span.hi)}


def _run_to_json(arrows: LatticeArrows) -> list[dict[str, Any]]:
    """The labelled run from the C row, then the star arrow from the B
    row: the arrows into either target row, so both hold this one list.
    Each point's coordinate list is both its ``point`` and its ``eval``."""
    run: list[dict[str, Any]] = []
    for z in torus_lattice(arrows.d, arrows.level):
        coordinates = ints_to_json(z)
        run.append({"source": BLOCK_C, "kind": KIND_POINT_EVAL_X,
                    "point": coordinates, "eval": coordinates})
    run.append({"source": BLOCK_B, "kind": KIND_STAR_EVAL})
    return run


def _map_to_json(tables: GrowthTables, m: ConnectingMap) -> dict[str, Any]:
    run = _run_to_json(_described(m))
    counts = multiplicity_matrix(tables, m.level)
    return {
        "level": str(m.level),
        "dNext": str(tables.d(m.level + 1)),
        "dPrimeNext": str(tables.d_prime(m.level + 1)),
        "multiplicity": {"cc": str(counts.cc), "cb": str(counts.cb),
                         "bc": str(counts.bc), "bb": str(counts.bb)},
        "into": {target: {"arrows": run,
                          "spans": [_span_to_json(s)
                                    for s in m.spans_into(target)]}
                 for target in (BLOCK_C, BLOCK_B)},
    }


def _stage_to_json(tables: GrowthTables, n: int) -> dict[str, str]:
    """Stage n: 2^(nd) C components and one B component, all of size
    r(n), over bases of dimension 2*h(n)*s(n) and 2*h'(n)*s'(n)."""
    size = str(tables.r(n))
    return {"level": str(n), "cComponents": str(tables.torus_points(n)),
            "cMatrixSize": size,
            "cBaseDimension": str(2 * tables.h(n) * tables.s(n)),
            "bMatrixSize": size,
            "bBaseDimension": str(2 * tables.h_prime(n) * tables.s_prime(n))}


def diagram_to_json_obj(doc: DiagramDocument) -> dict[str, Any]:
    """The document's JSON.  Lists in it may be shared (each map's run
    sits under both targets), so a caller that edits it copies it first."""
    tables = doc.tables
    return {
        **DIAGRAM_DOCUMENT.head(tables),
        "depthRange": {"lo": "0", "hi": str(tables.depth)},
        "stages": [_stage_to_json(tables, n)
                   for n in range(tables.depth + 1)],
        "maps": [_map_to_json(tables, m) for m in doc.maps],
    }


def _read_diagram(doc: dict) -> tuple:
    """The tables of the params, depth and h override the document
    declares: all that regeneration reads."""
    depth_range = doc["depthRange"]
    depth = text_int(depth_range["hi"])
    # levels the document does not list are refused before they are built
    if len(doc["stages"]) != depth - text_int(depth_range["lo"]) + 1:
        raise ValueError("stage levels must run contiguously over the band")
    return (declared_tables(doc, depth),)


# every leaf of a diagram is a string, so == is exact
DIAGRAM_DOCUMENT = DocumentKind(
    tag="diagram", parsed="diagram document well formed",
    matches="diagram matches canonical regeneration",
    passed="diagram matches canonical regeneration", strict=False,
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
        index = index * size + coordinate
    return index


PROJECTION_STYLE = 'color="black:invis:black"'
EVAL_STYLE = "style=dotted"


def _edge_sources(cmap: ConnectingMap) -> list[str]:
    """The ``"  SOURCE -> "`` prefix of each lattice and star edge out of
    level n into one target: C_{n}_{k} for k = 0..2^(nd)-1, then B_{n}."""
    n = cmap.level
    return ([f"  C_{n}_{k} -> " for k in range(_described(cmap).points)]
            + [f"  B_{n} -> "])


def dot_blocks(doc: DiagramDocument) -> Iterator[str]:
    """Draw the document in blocks of whole lines, with stable node ids: the
    header and stage clusters; per map, one block per target node and one
    of B-row edges; the closing ``}``.  The drawing has O(4^(nd)) edges,
    but a writer that takes the blocks as they come holds one node's.  All
    other lines, large integer labels included, are made before the first
    block is yielded, so a drawing refused at the int->str digit limit
    yields nothing.
    """
    tables = doc.tables
    d = tables.params.d
    out = ["digraph tower {", "  rankdir=LR;",
           "  node [shape=box, fontsize=10];"]
    for n in range(tables.depth + 1):
        size_label = f"M={tables.r(n)}"
        out += [f"  subgraph cluster_L{n}_C {{",
                f'    label="level {n} C row";']
        for k, z in enumerate(torus_lattice(d, n)):
            zs = ",".join(str(c) for c in z)
            out.append(f'    C_{n}_{k} [label="z=({zs})\\n{size_label}"];')
        out += ["  }", f"  subgraph cluster_L{n}_B {{",
                f'    label="level {n} B row";',
                f'    B_{n} [label="{size_label}"];', "  }"]
    maps = []
    for m in doc.maps:
        n = m.level
        # a trailing "" ends a target's join in its last edge's tail
        sources = _edge_sources(m) + [""]
        b_rows = f"B_{n + 1} [{EVAL_STYLE}];\n".join(sources)
        for s in m.spans_into(BLOCK_B):
            style = (PROJECTION_STYLE if s.kind == KIND_COORD_PROJECTION
                     else EVAL_STYLE)
            b_rows += f'  B_{n} -> B_{n + 1} [{style}, label="x{s.count}"];\n'
        maps.append((n, sources,
                     [f' [{PROJECTION_STYLE}, label="x{s.count}"];\n'
                      for s in m.spans_into(BLOCK_C)], b_rows))
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
