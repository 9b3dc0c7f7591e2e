"""Command-line surface: plan, verify, witness, chern, export.

Exit codes: 0 on success, 1 when the reader closes stdout before the
output is written (nothing is printed to stderr), 2 on usage or
precondition problems (bad targets, rho out of range, no witness at the
requested depth), 3 when a verification check fails.  All numeric inputs
are exact-rational strings; output JSON uses sorted keys so identical
configurations print identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Iterable, Sequence

from .action import check_equivariance
from .certificates import (WITNESS_DOCUMENT, search_witness,
                           verify_witness_json)
from .comparison import (CHERN_DOCUMENT, chern_document,
                         chern_min_embedding_ranks)
from .crossed import check_crossed_sizes, check_upper_bound_gap
from .diagram import (DIAGRAM_DOCUMENT, build_diagram_document, dot_blocks,
                      export_diagram)
from .rational import document_text, parse_fraction, shown_text
from .report import Checker, CheckReport
from .sequences import (TABLES_DOCUMENT, GrowthTables, declared_kind,
                        tables_from_cli, verify_document, verify_tables)
from .tower import ConnectingMap, lattice_maps, verify_tower


def add_target_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", default="1/2",
                   help="target radius, a rational like 3/4 or inf")
    p.add_argument("--r-prime", default=None,
                   help="transformed-side target radius; defaults to --r")
    p.add_argument("--d", type=int, default=1, help="lattice rank")
    p.add_argument("--depth", type=int, default=4,
                   help="number of levels to materialize")
    p.add_argument("--c", default=None,
                   help="ratio limit when both radii are inf "
                        "(default 1/2)")
    p.add_argument("--h-seq", default=None,
                   help="explicit comma-separated h sequence of at least "
                        "depth+1 entries; later ones are ignored (growing "
                        "regimes only)")
    p.add_argument("--out", default=None,
                   help="write output here instead of stdout")


def add_verify_arguments(p: argparse.ArgumentParser) -> None:
    add_target_flags(p)
    p.add_argument("file", nargs="?", default=None,
                   help="a previously emitted JSON document "
                        "(tables, witness, diagram, or chern)")


def add_witness_arguments(p: argparse.ArgumentParser) -> None:
    add_target_flags(p)
    p.add_argument("--rho", required=True,
                   help="claimed lower bound, a positive rational")
    p.add_argument("--crossed", action="store_true",
                   help="certify the shift-transformed tower instead")


def add_chern_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True,
                   help="largest bundle-product exponent to tabulate")
    p.add_argument("--out", default=None)


def add_export_arguments(p: argparse.ArgumentParser) -> None:
    add_target_flags(p)
    p.add_argument("--format", choices=("json", "dot"), default="json")


def tables_from_args(args: argparse.Namespace) -> GrowthTables:
    r_prime = args.r if args.r_prime is None else args.r_prime
    return tables_from_cli(args.r, r_prime, args.d, args.depth,
                           c=args.c, h_seq=args.h_seq)


# the file buffer of a streamed --out: a drawing's blocks reach the disk in
# 1 MiB writes, not one or more per block
STREAM_BUFFER = 1 << 20


def emit(text: str | Iterable[str], out: str | None) -> None:
    """Write ``text``, or each of its chunks as it is made, to ``out``
    (stdout if None; opened once the first chunk exists), ending in one
    newline that is added only when the text lacks it.  A single ``str``
    is one write; chunks reach an ``out`` file through a buffer of
    ``STREAM_BUFFER`` bytes.  If a chunk or a write raises, an ``out``
    that is a regular file is removed (never a device or a FIFO)."""
    streamed = not isinstance(text, str)
    chunks = iter(text if streamed else (text,))
    last = next(chunks, "")
    target = (open(out, "w", encoding="utf-8",
                   buffering=STREAM_BUFFER if streamed else -1)
              if out is not None else contextlib.nullcontext(sys.stdout))
    try:
        with target as handle:
            handle.write(last)
            for last in chunks:
                handle.write(last)
            handle.write("" if last.endswith("\n") else "\n")
    except BaseException:
        if out is not None and os.path.isfile(out):
            os.remove(out)
        raise


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_plan(args: argparse.Namespace) -> int:
    tables = tables_from_args(args)
    emit(document_text(tables.to_json_obj()), args.out)
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    tables = tables_from_args(args)
    report = search_witness(tables, parse_fraction(args.rho),
                            crossed=args.crossed)
    emit(document_text(report.to_json_obj()), args.out)
    return 0


def cmd_chern(args: argparse.Namespace) -> int:
    emit(document_text(chern_document(args.k)), args.out)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    tables = tables_from_args(args)
    emit(dot_blocks(build_diagram_document(tables)) if args.format == "dot"
         else export_diagram(tables), args.out)
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def standard_generators(d: int) -> list[tuple[int, ...]]:
    basis = [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
    diagonal = (1,) * d
    if diagonal not in basis:
        basis.append(diagonal)
    return basis


def equivariance_report(tables: GrowthTables,
                        maps: tuple[ConnectingMap, ...]) -> CheckReport:
    c = Checker()
    for n, cmap in enumerate(maps):
        for g in standard_generators(tables.params.d):
            c.merge(check_equivariance(cmap, g), prefix=f"map {n}: g={g} ")
    return c.report()


def chern_report() -> CheckReport:
    c = Checker()
    for k, rank in enumerate(chern_min_embedding_ranks(6), start=1):
        c.check(f"minimal embedding rank doubles (k={k})", rank == 2 * k)
    return c.report()


def run_suites(tables: GrowthTables) -> list[tuple[str, CheckReport]]:
    maps = lattice_maps(tables)
    suites = [
        ("tables", verify_tables(tables)),
        ("tower", verify_tower(tables, maps)),
        ("action", equivariance_report(tables, maps)),
        ("crossed sizes", check_crossed_sizes(tables)),
    ]
    if not tables.params.r_prime.is_infinite:
        suites.append(("crossed bounds", check_upper_bound_gap(tables)))
    suites.append(("chern", chern_report()))
    return suites


def report_lines(label: str, report: CheckReport) -> tuple[bool, str]:
    if report.ok:
        return True, f"{label}: {len(report.entries)} checks pass"
    failure = report.first_failure
    detail = f" ({failure.detail})" if failure.detail else ""
    return False, f"invariant violated: {failure.name}{detail}"


def cmd_verify(args: argparse.Namespace) -> int:
    if args.file is not None:
        return verify_document_file(args.file, args.out)
    tables = tables_from_args(args)
    lines = []
    for label, report in run_suites(tables):
        ok, line = report_lines(label, report)
        if not ok:
            emit(line, args.out)
            return 3
        lines.append(line)
    lines.append("all checks pass")
    emit("\n".join(lines), args.out)
    return 0


# tag -> kind, for every kind a command writes
DOCUMENT_KINDS = {kind.tag: kind for kind in (
    TABLES_DOCUMENT, WITNESS_DOCUMENT, DIAGRAM_DOCUMENT, CHERN_DOCUMENT)}


def verify_document_file(path: str, out: str | None) -> int:
    # bad JSON, bytes that are not UTF-8 and a number past the int->str
    # digit limit are ValueErrors, and nesting too deep to decode is a
    # RecursionError: the document does not parse.  A file that cannot be
    # opened stays an OSError, a usage error.
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.loads(handle.read())
    except (ValueError, RecursionError) as exc:
        emit(f"invariant violated: document parses ({exc})", out)
        return 3
    tag = declared_kind(obj)
    if not isinstance(tag, str) or tag not in DOCUMENT_KINDS:
        emit("invariant violated: recognized document kind "
             f"(got {shown_text(tag)})", out)
        return 3
    kind = DOCUMENT_KINDS[tag]
    # a witness goes through verify_witness_json, looked up when called, so
    # that a rebound global (a tracing span) is the one that runs
    report = (verify_witness_json(obj) if kind is WITNESS_DOCUMENT
              else verify_document(obj, kind))
    ok, line = report_lines(tag, report)
    emit(kind.passing_line(report) if ok else line, out)
    return 0 if ok else 3


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

# subcommand -> (its help line, what runs it, what adds its arguments), in
# the order the root help lists them
SUBCOMMANDS = {
    "plan": ("emit the growth tables as JSON", cmd_plan, add_target_flags),
    "verify": ("run every invariant suite, or re-verify a document",
               cmd_verify, add_verify_arguments),
    "witness": ("search for a canonical certificate for rho", cmd_witness,
                add_witness_arguments),
    "chern": ("table of minimal trivial embedding ranks", cmd_chern,
              add_chern_arguments),
    "export": ("serialize the diagram as JSON or DOT", cmd_export,
               add_export_arguments),
}


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """A fresh parser for ``argv`` (``sys.argv[1:]`` when None, the list
    ``parse_args`` reads).

    When ``argv`` starts with a subcommand, only its subparser is built,
    and the metavar keeps the root usage line naming all five.  Otherwise
    (no arguments, help, an unknown word, an option first) all five are
    built with no metavar, which argparse would print in place of
    ``command`` in the root's "invalid choice" and "required" errors.
    """
    words = sys.argv[1:] if argv is None else argv
    one = bool(words) and words[0] in SUBCOMMANDS
    parser = argparse.ArgumentParser(
        prog="ahtower",
        description="Exact finite-stage workbench for a tower of "
                    "matrix-algebra stages with a lattice shift action.")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(SUBCOMMANDS) + "}" if one else None)
    for name in [words[0]] if one else SUBCOMMANDS:
        help_text, func, add_arguments = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()      # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:
        # as Python's signal docs advise: point stdout at devnull so the
        # flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
