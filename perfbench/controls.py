"""Negative controls: evidence that the checks can fail.

Run once per run, after the cold pass and outside every timed region, on
small documents emitted through the same CLI entry point:

  * a one-field mutation of a tables, a witness and a diagram document must
    make `verify FILE` exit 3 with an `invariant violated:` line, and must
    also fail the benchmark's own `oracle` check, while the unmutated
    document passes it;
  * a connecting map with one evaluation label moved must fail
    `check_equivariance`, while the untouched map passes;
  * a DOT drawing with one edge line dropped must fail `oracle.check_dot`.

Each control returns a list of problems; empty means it behaved.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import tempfile

import oracle

TARGETS = ["--r", "1/2", "--r-prime", "1/3"]


def mutate_tables(doc: dict, rng: random.Random) -> str:
    key = rng.choice(["d", "l", "r", "s", "dPrime", "sPrime"])
    i = rng.randrange(len(doc[key]))
    doc[key][i] = str(int(doc[key][i]) + 1)
    return f"{key}[{i}] + 1"


def mutate_witness(doc: dict, rng: random.Random) -> str:
    choice = rng.choice(["M", "n", "holds"])
    if choice == "holds":
        i = rng.randrange(len(doc["ledger"]))
        doc["ledger"][i]["holds"] = not doc["ledger"][i]["holds"]
        return f"ledger[{i}].holds flipped"
    doc[choice] = str(int(doc[choice]) + 1)
    return f"{choice} + 1"


def mutate_diagram(doc: dict, rng: random.Random) -> str:
    i = rng.randrange(len(doc["stages"]))
    key = rng.choice(["cComponents", "cMatrixSize", "bMatrixSize"])
    doc["stages"][i][key] = str(int(doc["stages"][i][key]) + 1)
    return f"stages[{i}].{key} + 1"


DOCUMENTS = [
    ("tables", ["plan", "--d", "1", "--depth", "4", *TARGETS],
     mutate_tables, oracle.check_tables),
    ("witness", ["witness", "--d", "2", "--depth", "4", "--rho", "1/4",
                 *TARGETS], mutate_witness, oracle.check_witness),
    ("diagram", ["export", "--d", "1", "--depth", "3", *TARGETS],
     mutate_diagram, oracle.check_diagram),
]


def mutated_document(runner, where: str, rng: random.Random, kind: str,
                     argv: list[str], mutate, check) -> list[str]:
    path = os.path.join(where, f"{kind}.json")
    bad_path = os.path.join(where, f"{kind}.mutated.json")
    code, err = runner.call([*argv, "--out", path])
    if code != 0:
        return [f"control: emitting the {kind} document exited {code}: {err}"]
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    problems = [f"control: clean {kind} document: {p}" for p in check(doc)]
    what = mutate(doc, rng)
    with open(bad_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    out = os.path.join(where, f"{kind}.verify.out")
    code, _ = runner.call(["verify", bad_path, "--out", out])
    with open(out, encoding="utf-8") as handle:
        said = handle.read()
    if code != 3 or not said.startswith("invariant violated:"):
        problems.append(f"control: {kind} with {what} gave verify exit {code}")
    if not check(doc):
        problems.append(f"control: oracle accepted the {kind} with {what}")
    return problems


def moved_label(rng: random.Random) -> list[str]:
    from ahtower.action import check_equivariance
    from ahtower.sequences import tables_from_cli
    from ahtower.tower import build_connecting_map

    cmap = build_connecting_map(tables_from_cli("1/2", "1/3", 2, 3), 2)
    g = rng.choice([(1, 0), (0, 1), (1, 1)])
    problems = []
    if not check_equivariance(cmap, g).ok:
        problems.append(f"control: untouched map fails equivariance for {g}")
    labelled = [i for i, a in enumerate(cmap.arrows)
                if a.eval_point is not None]
    i = rng.choice(labelled)
    point = cmap.arrows[i].eval_point
    moved = ((point[0] + 1) % 4,) + point[1:]
    arrows = list(cmap.arrows)
    arrows[i] = dataclasses.replace(arrows[i], eval_point=moved)
    tampered = dataclasses.replace(cmap, arrows=tuple(arrows))
    if check_equivariance(tampered, g).ok:
        problems.append(f"control: equivariance accepted a label moved "
                        f"from {point} to {moved}")
    return problems


def dropped_edge(runner, where: str, rng: random.Random) -> list[str]:
    argv = ["export", "--d", "2", "--depth", "2", *TARGETS]
    json_path = os.path.join(where, "drawing.json")
    dot_path = os.path.join(where, "drawing.dot")
    codes = [runner.call([*argv, "--out", json_path])[0],
             runner.call([*argv, "--format", "dot", "--out", dot_path])[0]]
    if codes != [0, 0]:
        return [f"control: exporting the drawing exited {codes}"]
    with open(json_path, encoding="utf-8") as handle:
        doc = json.load(handle)
    with open(dot_path, encoding="utf-8") as handle:
        lines = handle.read().splitlines(keepends=True)
    problems = [f"control: clean drawing: {p}"
                for p in oracle.check_dot("".join(lines), doc)]
    edges = [i for i, line in enumerate(lines) if " -> " in line]
    del lines[rng.choice(edges)]
    if not oracle.check_dot("".join(lines), doc):
        problems.append("control: oracle accepted a drawing with an edge "
                        "dropped")
    return problems


def run_all(runner, rng: random.Random) -> list[str]:
    where = tempfile.mkdtemp(dir=runner.workdir)
    try:
        problems = []
        for kind, argv, mutate, check in DOCUMENTS:
            problems += mutated_document(runner, where, rng, kind, argv,
                                         mutate, check)
        problems += moved_label(rng)
        problems += dropped_edge(runner, where, rng)
        return problems
    finally:
        shutil.rmtree(where)
