"""Fast self-test of the benchmark harness (a few seconds, stdlib only).

    PYTHONPATH=src python3 perfbench/selftest.py

Runs every workload at reduced size, untraced and traced, in this process:
its checks and negative controls must pass, only the depth-13 cliff calls
may fail, and the traced pass's per-layer self times must add up to the
pass.  Then it checks that `run.py` refuses, without printing a result, in
a directory that holds the benchmark but no `src/`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench  # noqa: E402
import workloads  # noqa: E402


def check_workload(name: str, workdir: str) -> list[str]:
    problems = []
    ops = workloads.WORKLOADS[name](7, True).ops
    cliff_calls = sum(op.cliff for op in ops)
    for traced in (False, True):
        result, extra = bench.run(name, 7, 0, traced, workdir, small=True)
        label = f"{name} trace={int(traced)}"
        passes = 1 + len(extra["passes"])
        if not result["correct"]:
            problems.append(f"{label}: checks or controls failed")
        if result["failed"] != cliff_calls * passes:
            problems.append(f"{label}: {result['failed']} calls failed, "
                            f"expected {cliff_calls} per pass")
        if traced:
            # the harness's own per-call work (and any collector pause it
            # triggers) lies outside every span; a reduced pass lasts ~50 ms
            total, summed = extra["traced_pass_s"], extra["self_time_sum_s"]
            if not total - max(0.05 * total, 0.01) <= summed <= total:
                problems.append(f"{label}: self times sum to {summed:.4f} s "
                                f"of a {total:.4f} s traced pass")
        else:
            missing = {"emit_s", "check_s", "setup_s", "peak_rss_mb",
                       "output_bytes"} - set(result["metrics"])
            if missing:
                problems.append(f"{label}: metrics missing {sorted(missing)}")
        print(f"{label}: attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}")
    return problems


def check_refusal(workdir: str) -> list[str]:
    bare = os.path.join(workdir, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "results",
                                                  "__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice-enum",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    if child.returncode == 0 or child.stdout.strip():
        return ["run.py printed a result without the program's sources"]
    return []


def main() -> int:
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(HERE, "_work"))
    try:
        problems = []
        for name in workloads.WORKLOADS:
            problems += check_workload(name, workdir)
        problems += check_refusal(workdir)
    finally:
        shutil.rmtree(workdir)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
