import errno
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import ahtower.cli
import ahtower.comparison
import ahtower.tower
from ahtower.action import check_equivariance
from ahtower.certificates import search_witness, verify_witness_json
from ahtower.cli import (STREAM_BUFFER, emit, main, run_suites,
                         standard_generators)
from ahtower.diagram import (DIAGRAM_DOCUMENT, build_diagram_document,
                             diagram_to_json_obj, render_dot)
from ahtower.sequences import tables_from_cli, verify_document
from ahtower.tower import build_connecting_map, check_unital

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def count_builds(monkeypatch) -> Counter:
    """Count connecting-map builds by level, wherever ahtower names the
    builder."""
    original = ahtower.tower.build_connecting_map
    built = Counter()

    def counting(tables, n):
        built[n] += 1
        return original(tables, n)

    for name, module in list(sys.modules.items()):
        if name == "ahtower" or name.startswith("ahtower."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return built


# ----------------------------------------------------------------------
# plan
# ----------------------------------------------------------------------

def test_plan_emits_tables(capsys):
    obj = run_json(capsys, "plan", "--r", "1/2", "--r-prime", "1/3",
                   "--d", "1", "--depth", "4")
    assert obj["kind"] == "tables"
    assert obj["d"] == ["3", "16", "476", "411256"]
    assert obj["ratio"][2] == {"num": "48", "den": "95"}


def test_plan_defaults(capsys):
    obj = run_json(capsys, "plan")
    assert obj["depth"] == "4"
    assert obj["params"]["r"] == obj["params"]["rPrime"]


def test_plan_infinite_uses_default_c(capsys):
    obj = run_json(capsys, "plan", "--r", "inf", "--r-prime", "inf",
                   "--d", "2")
    assert obj["params"]["cInfinite"] == {"num": "1", "den": "2"}
    assert obj["hRule"] == "linear"


def test_plan_rejects_inverted_targets(capsys):
    code, _, err = run(capsys, "plan", "--r", "1/3", "--r-prime", "1/2")
    assert code == 2
    assert "error:" in err


def test_plan_echoes_a_long_target_bounded(capsys):
    text = "1/1" + "0" * 5000
    code, out, err = run(capsys, "plan", "--r", text)
    assert (code, out) == (2, "")
    assert err == (f"error: not a rational: {text[:80]!r}... "
                   "(5003 characters)\n")
    assert len(err) < 200


def test_plan_accepts_h_override(capsys):
    obj = run_json(capsys, "plan", "--r", "inf", "--r-prime", "inf",
                   "--depth", "3", "--h-seq", "1,2,2,4")
    assert obj["hRule"] == "explicit"
    assert obj["hSeqOverride"] == ["1", "2", "2", "4"]


def test_plan_rejects_bad_h_override(capsys):
    code, _, err = run(capsys, "plan", "--r", "inf", "--r-prime", "inf",
                       "--depth", "3", "--h-seq", "2,2,2,4")
    assert code == 2


GROWING = ("--r", "inf", "--r-prime", "inf", "--depth", "3")


@pytest.mark.parametrize("argv, message", [
    (("--depth", "-1"), "depth must be nonnegative"),
    (GROWING + ("--h-seq", "1,2"), "h-sequence override needs 4 entries"),
    (GROWING + ("--h-seq", "2,3,4,5"), "h(0) must equal 1"),
    (GROWING + ("--h-seq", "1,3,2,2"), "h-sequence must be nondecreasing"),
    (GROWING + ("--h-seq", "1,4,8,16"), "h(n)/2^(nd) must be nonincreasing"),
    (("--r", "1/2", "--depth", "3", "--h-seq", "1,1,1,1"),
     "h-sequence override only applies when h grows"),
    (("--r", "1/2", "--c", "1/3"),
     "c only applies when r and r' are both infinite"),
    (("--r", "inf", "--r-prime", "5/2", "--c", "1/3"),
     "c only applies when r and r' are both infinite"),
], ids=["negative-depth", "h-too-short", "h0-not-1", "h-decreases",
        "h-outgrows-lattice", "h-in-constant-regime", "c-finite-finite",
        "c-infinite-finite"])
def test_plan_refusals_name_their_cause(capsys, argv, message):
    code, out, err = run(capsys, "plan", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# ----------------------------------------------------------------------
# witness
# ----------------------------------------------------------------------

def test_witness_tower(capsys):
    obj = run_json(capsys, "witness", "--r", "1/2", "--d", "1",
                   "--rho", "1/4")
    assert (obj["n"], obj["M"]) == ("1", "7")
    assert obj["crossed"] is False
    assert "rPrime" not in obj["params"]


def test_witness_crossed(capsys):
    obj = run_json(capsys, "witness", "--crossed", "--r", "1/2",
                   "--r-prime", "1/3", "--d", "1", "--rho", "1/4")
    assert (obj["n"], obj["M"]) == ("2", "119")
    assert obj["crossed"] is True
    names = [row["name"] for row in obj["ledger"]]
    assert "trace match (m=3)" in names


def test_witness_rho_out_of_range(capsys):
    code, _, err = run(capsys, "witness", "--r", "1/2", "--rho", "1/2")
    assert code == 2
    assert "below the target radius" in err


def test_witness_depth_too_shallow(capsys):
    code, _, err = run(capsys, "witness", "--r", "1/2", "--depth", "1",
                       "--rho", "9/20")
    assert code == 2
    assert "no witness at this depth" in err


# ----------------------------------------------------------------------
# chern
# ----------------------------------------------------------------------

def test_chern_table(capsys):
    obj = run_json(capsys, "chern", "--k", "3")
    assert obj["ranks"] == ["2", "4", "6"]


def test_chern_rejects_zero(capsys):
    code, _, err = run(capsys, "chern", "--k", "0")
    assert code == 2


BOUND = f"k must be an integer in [1, {ahtower.comparison.MAX_CHERN_K}]"


def test_chern_refuses_k_above_the_bound(capsys):
    assert run(capsys, "chern", "--k", "30") == (2, "", f"error: {BOUND}\n")


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------

def test_export_json_round_trip(capsys):
    obj = run_json(capsys, "export", "--r", "1/2", "--r-prime", "1/3",
                   "--depth", "2")
    assert obj["kind"] == "diagram"
    assert len(obj["stages"]) == 3


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export", "--depth", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph tower {")
    assert "style=dotted" in out


def test_export_is_deterministic(capsys):
    _, first, _ = run(capsys, "export", "--depth", "3")
    _, second, _ = run(capsys, "export", "--depth", "3")
    assert first == second


def test_export_rejects_unknown_format(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export", "--format", "svg"])
    assert exc.value.code == 2


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_refused_export_writes_nothing(capsys, tmp_path, fmt):
    # at d=1 depth 13 the stage labels pass the int->str digit limit; the
    # refusal comes before any output is opened or written
    path = tmp_path / "diagram"
    flags = ["export", "--format", fmt, "--d", "1", "--depth", "13"]
    code, out, err = run(capsys, *flags, "--out", str(path))
    assert (code, out) == (2, "") and "limit" in err
    assert not path.exists()
    code, out, err = run(capsys, *flags)
    assert (code, out) == (2, "") and "limit" in err


@pytest.mark.parametrize("d, depth", [(1, 10), (2, 5), (3, 3)])
def test_json_export_is_the_bytes_of_json_dumps(tmp_path, d, depth):
    # the benchmark's settings, where each map's run is written under both
    # targets from one list
    path = tmp_path / "diagram.json"
    assert main(["export", "--r", "1/2", "--r-prime", "1/3", "--d", str(d),
                 "--depth", str(depth), "--out", str(path)]) == 0
    obj = diagram_to_json_obj(build_diagram_document(
        tables_from_cli("1/2", "1/3", d, depth)))
    assert path.read_text(encoding="utf-8") \
        == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_streamed_dot_export_is_render_dot(tmp_path):
    # over one 1 MiB file buffer, so the blocks are flushed mid-stream
    path = tmp_path / "diagram.dot"
    assert main(["export", "--format", "dot", "--r", "1/2", "--r-prime",
                 "1/3", "--d", "1", "--depth", "8", "--out", str(path)]) == 0
    expected = render_dot(build_diagram_document(
        tables_from_cli("1/2", "1/3", 1, 8)))
    assert len(expected) > STREAM_BUFFER
    assert path.read_text(encoding="utf-8") == expected


# the three regimes, each as (r, r', c)
REGIME_TARGETS = {"finite-finite": ("1/2", "1/3", None),
                  "infinite-finite": ("inf", "1/3", None),
                  "infinite-infinite": ("inf", "inf", "1/2")}


@pytest.mark.parametrize("d, export_depth", [(1, 4), (2, 2), (3, 1)])
@pytest.mark.parametrize("regime", REGIME_TARGETS)
def test_documents_are_the_bytes_of_json_dumps(capsys, regime, d,
                                               export_depth):
    r, r_prime, c = REGIME_TARGETS[regime]
    flags = ["--r", r, "--r-prime", r_prime, "--d", str(d),
             *(["--c", c] if c else [])]
    tables = tables_from_cli(r, r_prime, d, 4, c=c)
    shallow = tables_from_cli(r, r_prime, d, export_depth, c=c)
    rho = Fraction(1, 4)
    documents = [
        (["plan", *flags, "--depth", "4"], tables.to_json_obj()),
        (["witness", *flags, "--depth", "4", "--rho", "1/4"],
         search_witness(tables, rho).to_json_obj()),
        (["witness", "--crossed", *flags, "--depth", "4", "--rho", "1/4"],
         search_witness(tables, rho, crossed=True).to_json_obj()),
        (["chern", "--k", "6"],
         {"formatVersion": "1", "kind": "chern", "maxK": "6",
          "ranks": ["2", "4", "6", "8", "10", "12"]}),
        (["export", "--format", "json", *flags, "--depth",
          str(export_depth)],
         diagram_to_json_obj(build_diagram_document(shallow))),
    ]
    for argv, obj in documents:
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out == json.dumps(obj, sort_keys=True, indent=2) + "\n", argv


@pytest.mark.parametrize("text, written", [
    ("a", "a\n"), ("a\n", "a\n"), ("", "\n"), ([], "\n"),
    (["a", "b"], "ab\n"), (["a\n", "b\n"], "a\nb\n"),
    (["a\n", "b"], "a\nb\n")])
def test_emit_adds_a_final_newline_only_when_missing(capsys, tmp_path, text,
                                                     written):
    # one string, or chunks handed over one at a time
    def fresh():
        return text if isinstance(text, str) else iter(text)
    emit(fresh(), None)
    assert capsys.readouterr().out == written
    path = tmp_path / "out"
    emit(fresh(), str(path))
    assert path.read_text(encoding="utf-8") == written


def test_emit_opens_nothing_before_the_first_chunk(tmp_path):
    def refused():
        raise ValueError("refused")
        yield "never"
    path = tmp_path / "out"
    with pytest.raises(ValueError, match="refused"):
        emit(refused(), str(path))
    assert not path.exists()


def disk_fills_after_one_chunk():
    yield "digraph tower {\n"
    raise OSError(errno.ENOSPC, "No space left on device")


def test_emit_removes_a_partial_file(tmp_path):
    path = tmp_path / "out"
    with pytest.raises(OSError) as caught:
        emit(disk_fills_after_one_chunk(), str(path))
    assert caught.value.errno == errno.ENOSPC
    assert not path.exists()


def test_export_that_fails_midway_exits_2_and_leaves_no_file(
        capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(ahtower.cli, "dot_blocks",
                        lambda doc: disk_fills_after_one_chunk())
    path = tmp_path / "diagram.dot"
    code, out, err = run(capsys, "export", "--format", "dot", "--out",
                         str(path))
    assert (code, out, err) == (2, "", "error: [Errno 28] No space left "
                                       "on device\n")
    assert not path.exists()


def test_emit_never_removes_a_device(monkeypatch):
    removed = []
    monkeypatch.setattr(os, "remove", removed.append)
    with pytest.raises(OSError):
        emit(disk_fills_after_one_chunk(), os.devnull)
    assert removed == []


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux")
def test_dot_export_streams_in_bounded_memory():
    # d=1 depth 11 writes 115 MB of DOT; holding the drawing in memory took
    # 347 MB, writing it block by block takes about 30 MB
    script = ("import os, resource\n"
              "from ahtower import cli\n"
              "code = cli.main(['export', '--format', 'dot', '--d', '1', "
              "'--depth', '11', '--out', os.devnull])\n"
              "print(code, resource.getrusage("
              "resource.RUSAGE_SELF).ru_maxrss)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, peak_kib = map(int, done.stdout.split())
    assert code == 0
    assert peak_kib < 120 * 1024, f"peak {peak_kib / 1024:.0f} MB"


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_full_suite(capsys):
    code, out, _ = run(capsys, "verify", "--r", "1/2", "--r-prime", "1/3",
                       "--depth", "3")
    assert code == 0
    assert "all checks pass" in out
    assert "tables:" in out and "action:" in out


# stdout of `verify` (no file), byte for byte: the suite counts of each
# regime at d = 1, 2, 3
VERIFY_STDOUT = {
    ("1/2", "1/3", 1, 5): "tables: 61 checks pass\ntower: 36 checks pass\n"
    "action: 5 checks pass\ncrossed sizes: 5 checks pass\n"
    "crossed bounds: 24 checks pass\nchern: 6 checks pass\nall checks pass\n",
    ("1/2", "1/3", 2, 3): "tables: 39 checks pass\ntower: 22 checks pass\n"
    "action: 9 checks pass\ncrossed sizes: 3 checks pass\n"
    "crossed bounds: 14 checks pass\nchern: 6 checks pass\nall checks pass\n",
    ("1/2", "1/3", 3, 2): "tables: 28 checks pass\ntower: 15 checks pass\n"
    "action: 8 checks pass\ncrossed sizes: 2 checks pass\n"
    "crossed bounds: 9 checks pass\nchern: 6 checks pass\nall checks pass\n",
    ("inf", "5/2", 1, 5): "tables: 62 checks pass\ntower: 36 checks pass\n"
    "action: 5 checks pass\ncrossed sizes: 5 checks pass\n"
    "crossed bounds: 24 checks pass\nchern: 6 checks pass\nall checks pass\n",
    ("inf", "5/2", 2, 3): "tables: 40 checks pass\ntower: 22 checks pass\n"
    "action: 9 checks pass\ncrossed sizes: 3 checks pass\n"
    "crossed bounds: 14 checks pass\nchern: 6 checks pass\nall checks pass\n",
    ("inf", "5/2", 3, 2): "tables: 29 checks pass\ntower: 15 checks pass\n"
    "action: 8 checks pass\ncrossed sizes: 2 checks pass\n"
    "crossed bounds: 9 checks pass\nchern: 6 checks pass\nall checks pass\n",
    ("inf", "inf", 1, 5): "tables: 62 checks pass\ntower: 36 checks pass\n"
    "action: 5 checks pass\ncrossed sizes: 5 checks pass\n"
    "chern: 6 checks pass\nall checks pass\n",
    ("inf", "inf", 2, 3): "tables: 40 checks pass\ntower: 22 checks pass\n"
    "action: 9 checks pass\ncrossed sizes: 3 checks pass\n"
    "chern: 6 checks pass\nall checks pass\n",
    ("inf", "inf", 3, 2): "tables: 29 checks pass\ntower: 15 checks pass\n"
    "action: 8 checks pass\ncrossed sizes: 2 checks pass\n"
    "chern: 6 checks pass\nall checks pass\n",
}


@pytest.mark.parametrize("r, r_prime, d, depth", VERIFY_STDOUT)
def test_verify_prints_the_pinned_counts(capsys, r, r_prime, d, depth):
    code, out, err = run(capsys, "verify", "--r", r, "--r-prime", r_prime,
                         "--d", str(d), "--depth", str(depth))
    assert (code, err) == (0, "")
    assert out == VERIFY_STDOUT[r, r_prime, d, depth]


# the entries of one map, in order; verify counts them.  The first reads
# the map's lattice and star arrows, the others its projection spans.
UNITAL_ENTRIES = ["lattice and star arrows described (lemma)",
                  *(f"{row}-target {entry}" for row in ("C", "B")
                    for entry in ("projection slots covered once", "census",
                                  "sources"))]
EQUIVARIANCE_ENTRIES = ["census invariant under shift (lemma)"]


def test_map_entry_names_are_pinned():
    tables = tables_from_cli("1/2", "1/3", 2, 3)
    cmap = build_connecting_map(tables, 1)
    assert [e.name for e in check_unital(tables, cmap).entries] \
        == UNITAL_ENTRIES
    assert [e.name for e in check_equivariance(cmap, (1, 0)).entries] \
        == EQUIVARIANCE_ENTRIES


def test_verify_depth_zero_is_vacuous(capsys):
    code, out, _ = run(capsys, "verify", "--depth", "0")
    assert code == 0
    assert "all checks pass" in out


def test_verify_builds_each_map_once(capsys, monkeypatch):
    built = count_builds(monkeypatch)
    code, _, err = run(capsys, "verify", "--r", "1/2", "--r-prime", "1/3",
                       "--d", "2", "--depth", "4")
    assert code == 0, err
    assert built == Counter({0: 1, 1: 1, 2: 1, 3: 1})


def test_verify_checks_every_level_in_full():
    # level 6 at d=3 has 262,144 lattice points per row; it is checked
    # in full, not skipped
    t = tables_from_cli("1/2", "1/3", d=3, depth=7)
    suites = dict(run_suites(t))
    assert not [e.name for report in suites.values()
                for e in report.entries if "skipped" in e.name]
    assert all(report.ok for report in suites.values())
    cmap = build_connecting_map(t, 6)
    action = suites["action"]
    per_map = [f"map 6: g={g} " + e.name for g in standard_generators(3)
               for e in check_equivariance(cmap, g).entries]
    assert len(action.entries) == 7 * len(per_map)
    assert [e.name for e in action.entries[-len(per_map):]] == per_map


def test_verify_runs_past_the_digit_limit(capsys):
    # r(14) has about 12,000 decimal digits, past CPython's default
    # int->str limit; a passing check must not format it
    r = tables_from_cli("1/2", "1/3", d=1, depth=14).r(14)
    assert r.bit_length() * math.log10(2) > sys.get_int_max_str_digits() > 0
    code, out, err = run(capsys, "verify", "--d", "1", "--depth", "14")
    assert (code, err) == (0, "")
    assert out.endswith("all checks pass\n")


def test_verify_infinite_regime(capsys):
    code, out, _ = run(capsys, "verify", "--r", "inf", "--r-prime", "inf",
                       "--depth", "3")
    assert code == 0


def test_verify_tables_file(capsys, tmp_path):
    path = tmp_path / "tables.json"
    assert main(["plan", "--r", "1/2", "--r-prime", "1/3", "--depth", "3",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "canonical regeneration" in out


def test_verify_corrupted_tables_file(capsys, tmp_path):
    path = tmp_path / "tables.json"
    main(["plan", "--r", "1/2", "--r-prime", "1/3", "--depth", "3",
          "--out", str(path)])
    capsys.readouterr()
    clean = path.read_text()
    obj = json.loads(clean)
    obj["d"][2] = "477"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(path))
    assert (code, out) == (3, "invariant violated: tables match canonical "
                              "regeneration ($.d[2]: '477' vs '476')\n")

    # the next two change no column
    def bit_length(obj):
        obj["bitLengths"]["r"][1] = "999"

    def extra_key(obj):
        obj["extra"] = "1"

    for corrupt, where in ((bit_length, "$.bitLengths.r[1]"),
                           (extra_key, "$.extra")):
        obj = json.loads(clean)
        corrupt(obj)
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 3, corrupt.__name__
        assert out.startswith("invariant violated: tables match canonical "
                              "regeneration")
        assert where in out


def test_verify_reads_the_h_override_of_a_tables_file(capsys, tmp_path):
    path = tmp_path / "tables.json"
    assert main(["plan", "--r", "inf", "--h-seq", "1,2,2,4", "--depth", "3",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    assert run(capsys, "verify", str(path))[0] == 0
    obj = json.loads(path.read_text())
    obj["hSeqOverride"][3] = "3"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(path))
    assert (code, out) == (3, "invariant violated: tables match canonical "
                              "regeneration ($.h[3]: '4' vs '3')\n")


def test_verify_tables_file_is_strict_about_types(capsys, tmp_path):
    # JSON true and 2.0 equal 1 and 2 under ==; they are not the canonical
    # integers, so the comparison must tell them apart
    path = tmp_path / "tables.json"
    main(["plan", "--d", "1", "--depth", "3", "--out", str(path)])
    capsys.readouterr()
    clean = json.loads(path.read_text())
    assert clean["bitLengths"]["r"][0] == 1
    assert clean["bitLengths"]["d"][0] == 2
    for key, value in (("r", True), ("d", 2.0)):
        obj = json.loads(json.dumps(clean))
        obj["bitLengths"][key][0] = value
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 3, key
        assert out.startswith("invariant violated: tables match canonical "
                              "regeneration")
        assert f"$.bitLengths.{key}[0]" in out


def json_leaves(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from json_leaves(item)
    elif isinstance(value, list):
        for item in value:
            yield from json_leaves(item)
    else:
        yield value


@pytest.mark.parametrize("d,depth", [(1, 4), (2, 2), (3, 1)])
def test_diagram_document_leaves_are_strings(capsys, d, depth):
    # verify FILE lets == decide a diagram, and walks it type-strictly only
    # to name the path of a difference; that is strict only because every
    # leaf is a string: true == 1 == 1.0 cannot arise
    obj = run_json(capsys, "export", "--d", str(d), "--depth", str(depth))
    leaves = list(json_leaves(obj))
    assert leaves and all(type(leaf) is str for leaf in leaves)


def test_verify_witness_file(capsys, tmp_path):
    path = tmp_path / "cert.json"
    main(["witness", "--r", "1/2", "--r-prime", "1/3", "--rho", "1/4",
          "--crossed", "--out", str(path)])
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0


def test_verify_witness_file_is_strict_about_types(capsys, tmp_path):
    # a holds bit of 1 equals true under ==; it is not the canonical
    # boolean, so both verify FILE and the library re-verifier reject it
    path = tmp_path / "cert.json"
    main(["witness", "--r", "1/2", "--rho", "1/4", "--out", str(path)])
    capsys.readouterr()
    obj = json.loads(path.read_text())
    i = len(obj["ledger"]) - 1
    assert obj["ledger"][i]["holds"] is True
    obj["ledger"][i]["holds"] = 1
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 3
    assert out.startswith("invariant violated: matches canonical "
                          "recomputation")
    assert f"$.ledger[{i}].holds" in out
    failure = verify_witness_json(obj).first_failure
    assert failure.name == "matches canonical recomputation"
    assert f"$.ledger[{i}].holds" in failure.detail


def test_verify_corrupted_witness_file(capsys, tmp_path):
    path = tmp_path / "cert.json"
    main(["witness", "--r", "1/2", "--rho", "1/4", "--out", str(path)])
    capsys.readouterr()
    obj = json.loads(path.read_text())
    obj["M"] = "8"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 3
    assert "invariant violated" in out


def test_verify_diagram_file(capsys, tmp_path):
    path = tmp_path / "diagram.json"
    main(["export", "--r", "1/2", "--r-prime", "1/3", "--depth", "2",
          "--out", str(path)])
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "canonical regeneration" in out


def test_verify_corrupted_diagram_file(capsys, tmp_path):
    path = tmp_path / "diagram.json"
    main(["export", "--depth", "2", "--out", str(path)])
    capsys.readouterr()
    clean = path.read_text()

    def multiplicity(obj):
        obj["maps"][0]["multiplicity"]["cc"] = "9"

    # the next two change only fields the DOT drawing reads
    def arrow_point(obj):
        obj["maps"][1]["into"]["C"]["arrows"][1]["point"] = ["0"]

    def span_hi(obj):
        obj["maps"][1]["into"]["B"]["spans"][0]["hi"] = "15"

    # the next two add keys that no document field holds
    def extra_key(obj):
        obj["extra"] = "1"

    def extra_map_key(obj):
        obj["maps"][0]["extra"] = "1"

    for corrupt in (multiplicity, arrow_point, span_hi, extra_key,
                    extra_map_key):
        obj = json.loads(clean)
        corrupt(obj)
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 3, corrupt.__name__
        assert "invariant violated" in out
    assert "$.maps[0].extra" in out


@pytest.mark.parametrize("drop_first_stage, line", [
    (False, "invariant violated: diagram document well formed "
            "(stage levels must run contiguously over the band)\n"),
    (True, "invariant violated: diagram matches canonical regeneration "
           "($.depthRange.lo: '1' vs '0')\n")],
    ids=["stage count", "comparison"])
def test_verify_refuses_a_band_above_level_zero(capsys, tmp_path,
                                                drop_first_stage, line):
    # a diagram covers levels 0..depth; a document whose depthRange starts
    # at 1 is refused by its stage count, or, with the count made to match,
    # by the comparison
    path = tmp_path / "diagram.json"
    main(["export", "--depth", "3", "--out", str(path)])
    capsys.readouterr()
    obj = json.loads(path.read_text())
    obj["depthRange"]["lo"] = "1"
    if drop_first_stage:
        del obj["stages"][0]
    path.write_text(json.dumps(obj))
    assert run(capsys, "verify", str(path)) == (3, line, "")
    # the reader refuses it with the text in that line's parentheses
    refusal = line[line.index("(") + 1:-len(")\n")]
    assert verify_document(obj, DIAGRAM_DOCUMENT).first_failure.detail \
        == refusal


def test_verify_unparseable_file(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 3
    assert "document parses" in out


def test_verify_file_that_is_not_utf8(capsys, tmp_path):
    # a UTF-16 byte-order mark: the file exists but does not decode
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (3, "")
    assert out.startswith("invariant violated: document parses (")
    assert "utf-8" in out


def test_verify_file_with_a_number_past_the_digit_limit(capsys, tmp_path):
    digits = sys.get_int_max_str_digits() + 700
    path = tmp_path / "long.json"
    path.write_text('{"kind": "tables", "depth": ' + "7" * digits + "}")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (3, "")
    assert out.startswith("invariant violated: document parses (")
    assert sys.get_int_max_str_digits() == digits - 700


def decodes(text):
    """Whether the running JSON decoder parses ``text`` rather than giving
    up with a RecursionError: CPython 3.13's parses 5000 nested lists."""
    try:
        json.loads(text)
    except RecursionError:
        return False
    return True


@pytest.mark.parametrize("depth", [5000, 100000])
def test_verify_file_nested_too_deep_to_decode(capsys, tmp_path, depth):
    # the decoder gives up with a RecursionError, not a ValueError; the
    # document still only fails to parse.  Where the decoder parses it, the
    # list is a document of no kind
    text = "[" * depth + "]" * depth
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (3, "")
    if decodes(text):
        assert depth == 5000
        assert out == ("invariant violated: recognized document kind "
                       "(got None)\n")
    else:
        assert out.startswith("invariant violated: document parses (")


@pytest.mark.parametrize("field", ["ratio", "gamma"])
@pytest.mark.parametrize("edit", ["num+1", "unreduced"])
def test_verify_file_with_an_edited_quotient_leaf(capsys, tmp_path, field,
                                                  edit):
    # tables hold no ratio or gamma: the comparison with the canonical
    # regeneration judges those leaves and names the path
    path = tmp_path / "tables.json"
    main(["plan", "--r", "1/2", "--r-prime", "1/3", "--depth", "4",
          "--out", str(path)])
    capsys.readouterr()
    doc = json.loads(path.read_text())
    num, den = int(doc[field][2]["num"]), int(doc[field][2]["den"])
    doc[field][2] = ({"num": str(num + 1), "den": str(den)}
                     if edit == "num+1"
                     else {"num": str(2 * num), "den": str(2 * den)})
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (3, "")
    assert out.startswith("invariant violated: tables match canonical "
                          f"regeneration ($.{field}[2].")


@pytest.mark.parametrize("argv, field", [
    (["plan"], ("depth",)),
    (["witness", "--rho", "1/4"], ("depth",)),
    (["export"], ("depthRange", "hi")),
])
def test_verify_file_with_an_infinite_integer_field(capsys, tmp_path, argv,
                                                    field):
    # JSON 1e400 decodes to float infinity, which is no decimal string:
    # the document is malformed, not a crash
    path = tmp_path / "doc.json"
    main([*argv, "--out", str(path)])
    capsys.readouterr()
    text = path.read_text()
    obj = json.loads(text)
    target = obj
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = "INFINITE"
    path.write_text(json.dumps(obj).replace('"INFINITE"', "1e400"))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (3, "")
    assert out.startswith("invariant violated: ")
    assert out.endswith("(not a decimal integer: inf)\n")


def test_verify_refuses_a_chern_document_past_the_bound(capsys, tmp_path):
    # a maxK is untrusted input, so one past the bound is refused before
    # any ranks are listed
    path = tmp_path / "chern.json"
    main(["chern", "--k", "6", "--out", str(path)])
    path.write_text(json.dumps({**json.loads(path.read_text()),
                                "maxK": "40"}))
    assert run(capsys, "verify", str(path)) == (
        3, f"invariant violated: chern document well formed ({BOUND})\n", "")


def test_verify_refuses_every_single_leaf_edit_of_a_chern_document(
        capsys, tmp_path):
    path = tmp_path / "chern.json"
    main(["chern", "--k", "6", "--out", str(path)])
    doc = json.loads(path.read_text())
    edits = [{**doc, key: value} for key in ("formatVersion", "kind", "maxK")
             for value in (doc[key] + "0", int(doc[key])
                           if doc[key].isdigit() else None)]
    edits += [{**doc, "ranks": [*doc["ranks"][:i], value,
                                *doc["ranks"][i + 1:]]}
              for i, rank in enumerate(doc["ranks"])
              for value in (str(int(rank) + 1), int(rank))]
    edits += [{**doc, "ranks": doc["ranks"][:-1]}, {**doc, "extra": "1"}]
    for edited in edits:
        path.write_text(json.dumps(edited))
        code, out, err = run(capsys, "verify", str(path))
        assert (code, err) == (3, ""), edited
        assert out.startswith("invariant violated: "), edited


def written_documents():
    """(kind, argv) for every document a command writes: `plan`, `witness`,
    `witness --crossed` and `export --format json` in each regime, and
    `chern`."""
    cases = [("chern", ["chern", "--k", "6"])]
    for r, r_prime, c in REGIME_TARGETS.values():
        flags = ["--r", r, "--r-prime", r_prime, *(["--c", c] if c else [])]
        witness = ["witness", *flags, "--depth", "4", "--rho", "1/4"]
        cases += [("tables", ["plan", *flags, "--depth", "4"]),
                  ("witness", witness),
                  ("witness", [*witness, "--crossed"]),
                  ("diagram", ["export", "--format", "json", *flags,
                               "--depth", "2"])]
    return cases


# kind -> the line `verify FILE` prints on one that passes
PASSING_LINES = {
    "tables": r"tables: \d+ checks pass\ntables match canonical regeneration",
    "witness": r"witness certificate: 3 checks pass",
    "diagram": r"diagram matches canonical regeneration",
    "chern": r"chern table matches canonical regeneration",
}


def with_last_leaf_edited(doc):
    """A copy of ``doc`` whose last leaf in key order is changed: a
    number or a string of digits to the next number, other strings by a
    suffix."""
    copy = json.loads(json.dumps(doc))
    node = copy
    while isinstance(node, (dict, list)):
        parent = node
        key = max(node) if isinstance(node, dict) else len(node) - 1
        node = node[key]
    parent[key] = (node + 1 if isinstance(node, int)
                   else str(int(node) + 1) if node.isdigit() else node + " x")
    return copy


@pytest.mark.parametrize("kind, argv", written_documents(),
                         ids=lambda x: x if isinstance(x, str) else
                         " ".join(x))
def test_verify_reads_every_written_document(capsys, tmp_path, kind, argv):
    # it passes the document with its kind's line, and refuses the
    # document with one leaf edited
    path = tmp_path / "document.json"
    assert main([*argv, "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["kind"] == kind
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (0, "")
    assert re.fullmatch(PASSING_LINES[kind] + "\n", out), out
    path.write_text(json.dumps(with_last_leaf_edited(doc)))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (3, "")
    assert out.startswith("invariant violated: ")


def test_verify_unknown_kind(capsys, tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"kind": "mystery"}))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 3
    assert "recognized document kind" in out


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "does-not-exist.json")
    assert code == 2
    assert "error:" in err


# ----------------------------------------------------------------------
# output handling
# ----------------------------------------------------------------------

def test_out_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    path = tmp_path / "plan.json"
    code, out, _ = run(capsys, "plan", "--depth", "2", "--out", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["depth"] == "2"


def test_closed_stdout_exits_quietly(tmp_path):
    # 441 kB of DOT, more than a pipe buffer holds: the write fails while
    # the command runs
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ahtower.cli", "export", "--format", "dot",
         "--d", "1", "--depth", "7"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (1, b"")


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
