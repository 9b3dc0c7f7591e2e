import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    # every workload at reduced size, with the benchmark's negative
    # controls: mutated documents, a moved evaluation label, a dropped edge
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr



def load_perfbench_module(monkeypatch, name):
    """Import ``perfbench/<name>.py`` under its own name for one test; the
    tests' own ``oracle`` module shares that name, so it is set aside."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_moved_label_control_reports_no_problem(monkeypatch):
    # the benchmark's tamper control edits a built map's arrows; for every
    # generator and label it picks, the untouched map must pass and the
    # edited one fail
    load_perfbench_module(monkeypatch, "oracle")
    controls = load_perfbench_module(monkeypatch, "controls")
    for seed in range(20):
        assert controls.moved_label(random.Random(seed)) == []


def load_bench(monkeypatch):
    for name in ("oracle", "workloads", "controls", "spans"):
        load_perfbench_module(monkeypatch, name)
    return load_perfbench_module(monkeypatch, "bench")


# per workload, the layers its calls must reach: a span whose function is
# no longer called on that path would read 0 without dropping its metric
REACHED = {
    "certify-sweep": ["cli.parse_s", "certificates.verify_witness_json_s",
                      "sequences.verify_tables_s", "sequences.tables_json_s"],
    "lattice-enum": ["cli.parse_s"],
    "diagram-roundtrip": ["cli.parse_s", "diagram.json_s",
                          "diagram.build_diagram_document_s"],
}


@pytest.mark.parametrize("workload", ["certify-sweep", "lattice-enum",
                                      "diagram-roundtrip"])
def test_traced_run_reports_every_layer(monkeypatch, tmp_path, workload):
    # a traced run rebinds the functions perfbench/spans.py names; one that
    # was renamed or removed would silently drop its metric
    bench = load_bench(monkeypatch)
    result, _ = bench.run(workload, 7, 0, True, str(tmp_path), small=True)
    assert result["correct"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {layer["name"] for layer in declared}
    for name in REACHED[workload]:
        assert result["metrics"][name]["value"] > 0, name
