"""Differential test: the per-call parser against the one it replaced.

``build_parser`` now builds the root parser and only the subparser its
``argv`` names, or all five when ``argv`` names none.  The parser it
replaced, which always built all five, is copied below as it was, with
two help texts updated as the package's were (``verify``'s FILE names
chern documents, and ``--h-seq`` says that entries past depth+1 are
ignored).  On
root and subcommand help, and on every kind of usage error, ``main``
through either parser must print the same bytes to stdout and stderr and
exit with the same code, at ``COLUMNS=80``.  Since the reference runs on
the same interpreter, this holds on whichever one runs the suite.
"""

import argparse

import pytest

from ahtower import cli
from ahtower.cli import (cmd_chern, cmd_export, cmd_plan, cmd_verify,
                         cmd_witness, main)


# -- the parser main built on every call, as it was -----------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ahtower",
        description="Exact finite-stage workbench for a tower of "
                    "matrix-algebra stages with a lattice shift action.")
    sub = parser.add_subparsers(dest="command", required=True)

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
                       help="explicit comma-separated h sequence of at "
                            "least depth+1 entries; later ones are ignored "
                            "(growing regimes only)")
        p.add_argument("--out", default=None,
                       help="write output here instead of stdout")

    p_plan = sub.add_parser("plan", help="emit the growth tables as JSON")
    add_target_flags(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_verify = sub.add_parser(
        "verify", help="run every invariant suite, or re-verify a document")
    add_target_flags(p_verify)
    p_verify.add_argument("file", nargs="?", default=None,
                          help="a previously emitted JSON document "
                               "(tables, witness, diagram, or chern)")
    p_verify.set_defaults(func=cmd_verify)

    p_witness = sub.add_parser(
        "witness", help="search for a canonical certificate for rho")
    add_target_flags(p_witness)
    p_witness.add_argument("--rho", required=True,
                           help="claimed lower bound, a positive rational")
    p_witness.add_argument("--crossed", action="store_true",
                           help="certify the shift-transformed tower instead")
    p_witness.set_defaults(func=cmd_witness)

    p_chern = sub.add_parser(
        "chern", help="table of minimal trivial embedding ranks")
    p_chern.add_argument("--k", type=int, required=True,
                         help="largest bundle-product exponent to tabulate")
    p_chern.add_argument("--out", default=None)
    p_chern.set_defaults(func=cmd_chern)

    p_export = sub.add_parser(
        "export", help="serialize the diagram as JSON or DOT")
    add_target_flags(p_export)
    p_export.add_argument("--format", choices=("json", "dot"),
                          default="json")
    p_export.set_defaults(func=cmd_export)

    return parser


# -- the matrix -----------------------------------------------------------------

SUBCOMMANDS = ["plan", "verify", "witness", "chern", "export"]

ARGVS = [
    *([flag] for flag in ("--help", "-h")),
    *([name, flag] for name in SUBCOMMANDS for flag in ("--help", "-h")),
    [], ["bogus"], ["--r", "1/2", "plan"],
    ["plan", "extra"],                  # the root's "unrecognized arguments"
    ["witness"], ["chern"], ["plan", "--d", "x"],
    ["export", "--format", "png"],
    ["plan", "--dep", "3"],             # an abbreviated option runs
    ["verify", "a", "b"],
]


def answer(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def answers(monkeypatch, capsys, argv):
    """(new, reference) answers of ``main(argv)``."""
    monkeypatch.setenv("COLUMNS", "80")
    new = answer(capsys, argv)
    monkeypatch.setattr(cli, "build_parser", lambda argv: build_parser())
    return new, answer(capsys, argv)


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_main_answers_as_the_old_parser(monkeypatch, capsys, argv):
    new, old = answers(monkeypatch, capsys, argv)
    assert new == old


@pytest.mark.parametrize("argv", [["chern", "--k", "2"], ["plan", "extra"],
                                  ["-h"], []], ids=" ".join)
def test_main_reads_sys_argv_as_parse_args_does(monkeypatch, capsys, argv):
    # main(None): the subcommand is peeked from sys.argv[1:], the list
    # parse_args reads
    monkeypatch.setattr("sys.argv", ["ahtower", *argv])
    new, old = answers(monkeypatch, capsys, None)
    assert new == old


def subcommands(parser: argparse.ArgumentParser) -> list[str]:
    [action] = [action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)]
    return list(action.choices)


def test_one_command_build_holds_one_subparser(monkeypatch):
    assert subcommands(cli.build_parser(["chern", "--k", "3"])) == ["chern"]
    for argv in (["-h"], [], ["bogus"]):
        assert subcommands(cli.build_parser(argv)) == SUBCOMMANDS, argv
    monkeypatch.setattr("sys.argv", ["ahtower", "chern", "--k", "3"])
    assert subcommands(cli.build_parser(None)) == ["chern"]
