"""Benchmark entry point: one workload in a fresh single-threaded interpreter.

    python3 perfbench/run.py --workload certify-sweep --seed 1 --seconds 25 \
        --trace 0

Run from a checkout of the repository (sources under `src/`).  The workload
runs in a child interpreter with only `src` on PYTHONPATH, a fixed hash
seed, a fixed malloc mmap threshold, no bytecode written, and CPython's
default int->str digit limit; the last line of standard output is the
child's JSON result.  Per-pass figures and, with --trace 1, the spans of the
last traced pass are written to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ahtower" / "cli.py").is_file():
        print(f"error: no ahtower sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workdir = HERE / "_work"
    workdir.mkdir(exist_ok=True)
    # glibc raises its mmap threshold after large frees, so over many passes
    # the peak RSS came to depend on allocation history (diagram-roundtrip
    # flipped between 172 and 199 MB); pin it at its initial 128 KiB.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1", MALLOC_MMAP_THRESHOLD_="131072")
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    command = [sys.executable, "-s", str(HERE / "bench.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir), "--results", str(HERE / "results")]
    try:
        child = subprocess.run(command, cwd=ROOT, env=env,
                               timeout=CHILD_TIMEOUT_S,
                               stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"error: workload ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: workload exited {child.returncode}", file=sys.stderr)
        return 3
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        print(f"error: malformed result {lines[-1]!r}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
