"""Render the two-row diagram of a shallow tower as graph text.

The JSON document is the authoritative serialization; the DOT text is a
pure function of it.  The JSON is read back by regeneration: it must equal
the document rebuilt from the params, depth and h override it declares,
so drawing that rebuilt document reproduces the bytes exactly.  Run with --out to write the DOT file for
graphviz, or without to inspect it on stdout.
"""

import argparse
import json

from ahtower import (
    build_diagram_document,
    export_diagram,
    multiplicity_matrix,
    render_dot,
    tables_from_cli,
)
from ahtower.diagram import DIAGRAM_DOCUMENT
from ahtower.sequences import declared_tables, verify_document


def describe_stages(tables):
    for n in range(tables.depth + 1):
        size = tables.r(n)
        print(f"  level {n}: C row {tables.torus_points(n)} x M_{size} "
              f"over a {2 * tables.h(n) * tables.s(n)}-dimensional base, "
              f"B row M_{size} over a "
              f"{2 * tables.h_prime(n) * tables.s_prime(n)}-dimensional base")


def describe_maps(tables):
    for n in range(tables.depth):
        m = multiplicity_matrix(tables, n)
        rows = [[m.cc, m.cb], [m.bc, m.bb]]
        print(f"  map {n}->{n + 1}: multiplicity {rows}, "
              f"column totals all equal l({n + 1}) = {tables.l(n + 1)}")


def main():
    parser = argparse.ArgumentParser(
        description="export the merged diagram of a small tower")
    parser.add_argument("--r", default="1/2")
    parser.add_argument("--r-prime", default="1/3")
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--out", help="write DOT here instead of stdout")
    args = parser.parse_args()

    tables = tables_from_cli(args.r, args.r_prime, args.d, args.depth)
    print("stages:")
    describe_stages(tables)
    print("connecting maps:")
    describe_maps(tables)

    document = json.loads(export_diagram(tables))
    assert verify_document(document, DIAGRAM_DOCUMENT).ok
    reparsed = build_diagram_document(
        declared_tables(document, int(document["depthRange"]["hi"])))
    dot = render_dot(reparsed)
    assert dot == render_dot(build_diagram_document(tables))

    if args.out:
        with open(args.out, "w") as handle:
            handle.write(dot + "\n")
        print(f"wrote {args.out}")
    else:
        print()
        print(dot)


if __name__ == "__main__":
    main()
