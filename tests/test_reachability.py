"""`src/` is what the CLI runs: every function and method of `ahtower` is
called by a small matrix of CLI runs, or is named in ALLOWED with the
reason it exists although no CLI path calls it.

The matrix runs `ahtower.cli.main` in process under `sys.settrace`, which
records only call events.  A function is identified by (file, first line)
of its code object, where the first line of a decorated function is its
first decorator's; the same pair is read from the module's syntax tree.
"""

import ast
import json
import os
import sys
from pathlib import Path

import pytest

import ahtower
from ahtower.cli import DOCUMENT_KINDS, main

SRC = Path(ahtower.__file__).resolve().parent

# qualified name -> why no CLI path calls it.  Each reason opens with its
# kind: README library API, demo, failure text, perfbench span, or
# perfbench control.  A reference that only tests call lives in tests/.
ALLOWED = {
    "action.LevelPermutation.apply_point":
        "demo: outerness_witness moves the origin slot (demo 03, gate C05)",
    "action.LevelPermutation.modulus":
        "demo: apply_point reduces by it (demo 03, gate C05)",
    "action.OuternessWitness.separated":
        "demo: outerness_witness checks its own pair (demo 03, gate C05)",
    "action.level_permutation":
        "demo: outerness_witness builds the permutation (demo 03)",
    "action.outerness_witness":
        "demo: the outerness level of a group element (demo 03, gate C05)",
    "action.two_adic_valuation":
        "demo: outerness_witness reads it (demo 03, gate C05)",
    "comparison.chern_min_embedding_rank":
        "perfbench span: comparison.chern_min_embedding_rank_s; also "
        "demo 04",
    "diagram.render_dot":
        "README library API: the drawing as one string (demo 02, gate C11, "
        "perfbench span diagram.render_dot_s)",
    "rational.quotient_text":
        "failure text: a quotient in a failed entry's detail",
    "tower.ConnectingMap.not_described":
        "failure text: why an edited map fails the checks and the writers",
    "tower.LatticeArrows.__getitem__":
        "perfbench control: moved_label edits one arrow of a built map",
    "tower.LatticeArrows.__iter__":
        "perfbench control: moved_label spells a built map's arrows out",
    "tower.LatticeArrows.__len__":
        "perfbench span: tower.arrows_built counts len(cmap.arrows)",
}

# from CPython 3.13 `rational.document_text` calls json.dumps, and the
# writer it replaces before 3.13 is reached on no path
if sys.version_info >= (3, 13):
    INTERPRETER_ONLY = {"rational._joined_text"}
else:
    INTERPRETER_ONLY = set()

KINDS = ("README library API", "demo", "failure text", "perfbench span",
         "perfbench control")


def functions():
    """(file, first line) -> qualified name, for every def in the
    package."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    found[os.path.realpath(path), first] = \
                        f"{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), f"{module}.")
    return found


TARGETS = [("1/2", "1/3"), ("inf", "5/2"), ("inf", "inf")]

# (kind, what writes one, and the leaf and value of its edited copy); the
# second tables document declares an h override, which `verify FILE` reads
DOCUMENTS = [
    ("tables", ["plan", "--depth", "3"], ("params", "d"), "2"),
    ("tables", ["plan", "--r", "inf", "--h-seq", "1,2,2,4", "--depth", "3"],
     ("hSeqOverride", 3), "3"),
    ("witness", ["witness", "--depth", "4", "--rho", "1/4"], ("params", "d"),
     "2"),
    ("diagram", ["export", "--depth", "2"], ("params", "d"), "2"),
    ("chern", ["chern", "--k", "4"], ("ranks", 0), "3"),
]


def matrix(where):
    """The CLI calls: each command in each regime, `verify FILE` of each
    document kind and of an edited copy, and the refusals."""
    calls = []
    for r, r_prime in TARGETS:
        for d, depth in ((1, 3), (2, 2), (3, 1)):
            flags = ["--r", r, "--r-prime", r_prime, "--d", str(d),
                     "--depth", str(depth)]
            calls += [["plan", *flags], ["verify", *flags],
                      ["export", *flags],
                      ["export", "--format", "dot", *flags]]
        calls += [["witness", "--r", r, "--r-prime", r_prime, "--depth", "4",
                   "--rho", "1/4", *crossed]
                  for crossed in ([], ["--crossed"])]
    calls += [["chern", "--k", "4"],
              ["plan", "--r", "inf", "--r-prime", "inf", "--c", "1/3"],
              ["verify", "--r", "inf", "--depth", "3", "--h-seq", "1,2,2,4"]]
    for i, (kind, argv, (key, leaf), value) in enumerate(DOCUMENTS):
        path = os.path.join(where, f"{kind}{i}.json")
        assert main([*argv, "--out", path]) == 0
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc["kind"] == kind
        doc[key][leaf] = value
        edited = os.path.join(where, f"{kind}{i}.edited.json")
        with open(edited, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        calls += [["verify", path], ["verify", edited]]
    broken = os.path.join(where, "broken.json")
    with open(broken, "w", encoding="utf-8") as handle:
        handle.write('{"kind": "diagram", "formatVersion": "1"')
    calls += [["verify", broken],
              ["verify", os.path.join(where, "missing.json")],
              ["plan", "--r", "-1"],
              ["plan", "--r", "1/3", "--r-prime", "1/2"],
              ["plan", "--c", "1/2"],
              ["witness", "--rho", "2"],
              ["witness", "--rho", "1/4", "--depth", "1"],
              ["chern", "--k", "0"]]
    return calls


def test_every_function_is_reached_or_allowed(tmp_path, capsys):
    calls = matrix(str(tmp_path))
    reached = set()

    def tracer(frame, event, arg):
        # returning None asks for no line, return or exception events
        code = frame.f_code
        reached.add((code.co_filename, code.co_firstlineno))

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        codes = [main(argv) for argv in calls]
    finally:
        sys.settrace(previous)
    capsys.readouterr()
    assert codes.count(0) > 0 and {2, 3} <= set(codes)

    names = functions()
    hit = {names.get((os.path.realpath(path), line))
           for path, line in reached}
    missing = sorted(set(names.values()) - hit - set(ALLOWED)
                     - INTERPRETER_ONLY)
    assert not missing, f"no CLI path and no allowance: {missing}"
    stale = sorted(set(ALLOWED) - set(names.values()))
    assert not stale, f"allowed but not defined: {stale}"
    needless = sorted(set(ALLOWED) & hit)
    assert not needless, f"allowed but reached by the CLI: {needless}"


def test_the_matrix_verifies_every_document_kind():
    # a kind that `verify FILE` reads but no matrix document exercises
    # would leave its reader's failure paths unchecked
    assert {kind for kind, *_ in DOCUMENTS} == set(DOCUMENT_KINDS)


@pytest.mark.parametrize("name", ALLOWED)
def test_every_allowance_gives_its_kind(name):
    assert ALLOWED[name].split(":")[0] in KINDS
