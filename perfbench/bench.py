"""One workload in one fresh interpreter: set-up, timed passes, checks.

Run by `run.py` with `src` on PYTHONPATH; prints one JSON result line.

    setup_s   import of `ahtower`, input generation and the first (cold)
              pass, measured from inside this process
    emit_s    wall time of the emitting calls of one pass, mean over the
              timed passes
    check_s   the same for the checking calls
    peak_rss_mb, output_bytes   peak resident set; bytes one pass writes

Garbage is collected between passes, never inside one.  After every pass,
outside the timed region, each call's output is checked against `oracle`.
With --trace 1 the timed passes alternate traced and untraced, the per-layer
metrics are medians over the traced ones, and the spans of the last traced
pass go to the results directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
from fractions import Fraction
from statistics import mean, median, median_low

import controls
import oracle
import workloads
from spans import Tracer, span_cost

# Every run times at least this many passes, however short --seconds is.
# lattice-enum's passes (about 16 s each) outlast a 25-second run after two;
# stopping there keeps its runs under a minute.
MIN_PASSES = 2


def read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def expect_lines(text: str, first: str, last: str) -> list[str]:
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith(first) \
            or not lines[-1].endswith(last):
        return [f"unexpected verify output {text.strip()[:120]!r}"]
    return []


def check_witness_doc(path: str, op, _where) -> list[str]:
    doc = read_json(path)
    problems = oracle.check_witness(doc)
    if doc["crossed"] is not op.context["crossed"] \
            or oracle.fraction_of(doc["rho"]) != Fraction(op.context["rho"]):
        problems.append("witness document names another rho or flavour")
    return problems


# check name -> function(output path, op, pass directory) -> problems
CHECKS = {
    "tables": lambda path, op, _: oracle.check_tables(read_json(path)),
    "witness": check_witness_doc,
    "diagram_json": lambda path, op, _: oracle.check_diagram(read_json(path)),
    "diagram_dot": lambda path, op, where: oracle.check_dot(
        read_text(path), read_json(os.path.join(where, op.context["json"]))),
    "chern": lambda path, op, _: oracle.check_chern(read_json(path)),
    "verify_tables": lambda path, op, _: expect_lines(
        read_text(path), "tables:", "tables match canonical regeneration"),
    "verify_witness": lambda path, op, _: expect_lines(
        read_text(path), "witness certificate:", "checks pass"),
    "verify_diagram": lambda path, op, _: expect_lines(
        read_text(path), "diagram matches canonical regeneration",
        "diagram matches canonical regeneration"),
    "verify_suite": lambda path, op, _: expect_lines(
        read_text(path), "tables:", "all checks pass"),
}


class Runner:
    """Runs passes of one workload through `ahtower.cli.main`."""

    def __init__(self, cli, workload, workdir: str) -> None:
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, argv: list[str]) -> tuple[int, str]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, err.getvalue()

    def run_pass(self) -> dict:
        """One pass: every call timed on its own; `check_pass` checks them."""
        where = tempfile.mkdtemp(dir=self.workdir)
        spent = {workloads.EMIT: 0.0, workloads.CHECK: 0.0}
        done = []
        for op in self.workload.ops:
            argv = list(op.argv)
            if op.reads is not None:
                source = os.path.join(where, op.reads)
                if not os.path.exists(source):
                    continue        # its producer failed in this pass
                argv.append(source)
            argv += ["--out", os.path.join(where, op.out)]
            start = time.perf_counter()
            code, err = self.call(argv)
            spent[op.kind] += time.perf_counter() - start
            self.attempted += 1
            if code != 0:
                self.failed += 1
                if not op.cliff:
                    self.problems.append(
                        f"{op.argv[0]} exited {code}: {err.strip()}")
                continue
            done.append(op)
        return {"emit_s": spent[workloads.EMIT],
                "check_s": spent[workloads.CHECK],
                "where": where, "done": done}

    def check_pass(self, result: dict) -> int:
        """Check every output of a pass, delete them, return bytes written."""
        where = result.pop("where")
        written = 0
        for op in result.pop("done"):
            path = os.path.join(where, op.out)
            written += os.path.getsize(path)
            for problem in CHECKS[op.check](path, op, where):
                self.problems.append(f"{op.out}: {problem}")
        shutil.rmtree(where)
        return written


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--results", required=True)
    args = parser.parse_args(argv)

    result, extra = run(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.workdir)
    os.makedirs(args.results, exist_ok=True)
    stem = os.path.join(args.results,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    tracer = extra.pop("tracer", None)
    if tracer is not None:
        tracer.dump(stem + ".spans.json")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({"result": result, **extra}, handle, indent=1)
    print(json.dumps(result))
    return 0


def run(name: str, seed: int, seconds: float, traced: bool, workdir: str,
        small: bool = False):
    """Set up, run the timed passes, and return (result, details)."""
    setup_start = time.perf_counter()
    import ahtower.cli as cli
    workload = workloads.WORKLOADS[name](seed, small)
    runner = Runner(cli, workload, workdir)
    cold = runner.run_pass()
    setup_s = time.perf_counter() - setup_start
    runner.check_pass(cold)

    runner.problems += controls.run_all(runner, random.Random(seed))

    tracer = Tracer() if traced else None
    passes, layers = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        gc.collect()
        trace_this = tracer is not None and len(passes) % 2 == 0
        if trace_this:
            tracer.reset()
            tracer.install()
        try:
            timed = runner.run_pass()
        finally:
            if trace_this:
                tracer.uninstall()
        timed["traced"] = trace_this
        if trace_this:
            layers.append(tracer.metrics())
        timed["output_bytes"] = runner.check_pass(timed)
        timed["rss_mb"] = peak_rss_mb()
        passes.append(timed)

    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    plain = [p for p in passes if not p["traced"]]
    if traced:
        metrics = {key: {"value": median([m[key] for m in layers]),
                         "unit": "s"}
                   if key.endswith("_s") else
                   {"value": median_low([m[key] for m in layers]),
                    "unit": "count"}
                   for key in layers[0]}
    else:
        # Every pass makes the same calls on the same inputs, yet on a shared
        # 2-CPU host the same pass ran up to 1.9x slower for ten seconds to
        # several minutes at a time.  The mean weighs the host's fast and slow
        # states by the time the run spent in each; the median or the minimum
        # of a few passes jumps between them and spread more from run to run.
        metrics = {
            "emit_s": {"value": mean(p["emit_s"] for p in plain),
                       "unit": "s"},
            "check_s": {"value": mean(p["check_s"] for p in plain),
                        "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "output_bytes": {"value": median([p["output_bytes"]
                                              for p in plain]),
                             "unit": "bytes"},
        }
    result = {"correct": not runner.problems, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    extra = {"workload": name, "seed": seed, "python": sys.version,
             "inputs": workload.notes,
             "passes": [{k: p[k] for k in ("emit_s", "check_s", "traced",
                                           "output_bytes", "rss_mb")}
                        for p in passes],
             "setup_s": setup_s}
    if traced:
        pass_s = [p["emit_s"] + p["check_s"] for p in passes]
        extra["layers"] = layers
        extra["traced_pass_s"] = median([s for s, p in zip(pass_s, passes)
                                         if p["traced"]])
        extra["untraced_pass_s"] = median([s for s, p in zip(pass_s, passes)
                                           if not p["traced"]])
        extra["self_time_sum_s"] = median([sum(v for k, v in m.items()
                                               if k.endswith("_s"))
                                           for m in layers])
        extra["spans_per_pass"] = len(tracer.spans)
        extra["span_cost_s"] = span_cost()
        extra["tracer"] = tracer
    return result, extra


if __name__ == "__main__":
    sys.exit(main())
