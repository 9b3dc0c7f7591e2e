"""Differential test: `verify FILE` through the one document sequence
against the three paths it replaced.

``verify_document_file``, ``verify_tables_document`` and
``verify_diagram_document`` (from ``cli``), the tables reader the second
called (``GrowthTables.from_json_obj``), the diagram parser the last of
them called (from ``diagram``), ``verify_witness_json`` (from
``certificates``) and the integer readers they called (``int``,
``rational.ints_from_json`` and ``fraction_from_json``, and
``TargetParams.from_json_obj``) are copied below as they were.  A table
no longer stores the regime, kappa, kappa' or the h columns, so the old
tables reader returns them beside the table, and the old suite's entries
that compared them are replayed on them.  The inputs are
small ``plan``, ``witness``, ``witness --crossed`` and ``export`` documents
in all three regimes, every single-leaf edit of each (another value of the
leaf's JSON type, and a value of another type), and documents that no
kind accepts.  On each, the new sequence must exit with the same code and
print the same text as the old paths, except in these cases, each asserted
exactly:

  * a diagram the old parser rejected as ``diagram document well formed
    (...)`` may now be rejected by the comparison, whose line names the
    JSON path of the first difference;
  * a tables document is now read for its params, depth and h override
    alone, like the other kinds: one the old path rejected, by its reader
    or by the identity it broke (``d(3) minimal``), or at another path,
    is now rejected as ``tables match canonical regeneration ($...)`` at
    the first difference; and an ``hSeqOverride`` edited so that it no
    longer builds, which the old path compared, is now rejected as
    ``tables document well formed (...)``;
  * a declared integer (a depth, a depth range bound, the rank d, a
    numerator or denominator of a radius or of rho, an h override entry)
    that ``str`` would not write, such as a JSON number, which the old
    readers read with ``int``, is now rejected by the kind's parse entry
    as ``... (not a decimal integer: ...)``;
  * a document nested too deep to decode raised RecursionError out of the
    old path; it is now refused as a document that does not parse (where
    the running decoder parses it, both paths refuse it as a document of
    no kind);
  * a document whose canonical regeneration passes the int->str digit
    limit raised ValueError out of the old path, which wrote it out; the
    sequence writes no regenerated integer, so it refuses such a document
    at the first difference of the comparison, and names an integer it
    cannot write by its bit length;
  * a document with a number no int can hold (JSON 1e400) raised
    OverflowError out of the old path; the sequence refuses it at the
    parse entry, as not a decimal integer, and so it refuses the spellings
    " 4", "+4", "4_0" and Arabic-Indic digits of a declared integer.

Beyond the leaf edits, a ledger operand and a tables ``r`` entry are each
respelt in every form ``int()`` reads but a document may not hold, and a
ledger operand is made 5000 and 10^6 digits long: the outcomes are the
old ones (but for a tables ``r`` entry spelt ``true``, which the old
reader read as 1), and the detail shows a long leaf by its head and
length.  A tables column leaf of 5000 digits, which the old reader
refused, is now a mismatch, as a ledger operand is.

For witness documents, ``verify_witness_json`` must also agree with the
old one on whether the document passes and on its first failure.
"""

import contextlib
import io
import json
import re
import sys
from collections import Counter
from fractions import Fraction
from typing import Any

from dataclasses import dataclass

import pytest

from ahtower import certificates, cli
from ahtower.certificates import search_witness
from ahtower.cli import emit, main, report_lines
from ahtower.diagram import build_diagram_document, diagram_to_json_obj
from ahtower.rational import SHOWN_CHARACTERS, ExtendedRational, IntLeaf
from ahtower.report import Checker, CheckReport, first_difference
from ahtower.sequences import (FORMAT_VERSION, GrowthTables, TargetParams,
                               build_tables, derive_kappa, require_document,
                               tables_from_cli, verify_tables)
from ahtower.tower import (BLOCK_B, BLOCK_C, KIND_COORD_PROJECTION,
                           KIND_POINT_EVAL_X, KIND_POINT_EVAL_Y,
                           KIND_STAR_EVAL, STAR, Arrow, ArrowSpan,
                           BlockMatrix, TorusSlot)


# -- the integer readers the old paths called, as they were -------------------

# int() reads a sign, spaces, ``_`` and other scripts' digits, and JSON
# numbers, which the package's readers now refuse

def ints_from_json(values) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


def fraction_from_json(obj: Any) -> Fraction:
    if not isinstance(obj, dict) or set(obj) != {"num", "den"}:
        raise ValueError(f"malformed rational object: {obj!r}")
    num, den = int(obj["num"]), int(obj["den"])
    if den <= 0 or num < 0:
        raise ValueError(f"malformed rational object: {obj!r}")
    value = Fraction(num, den)
    if (value.numerator, value.denominator) != (num, den):
        raise ValueError(f"rational not in lowest terms: {obj!r}")
    return value


def params_from_json(obj: Any) -> TargetParams:
    """``TargetParams.from_json_obj`` as it was."""
    def radius(value):
        if value == "inf":
            return ExtendedRational.infinite()
        return ExtendedRational(fraction_from_json(value))

    if not isinstance(obj, dict):
        raise ValueError("params must be an object")
    kwargs: dict[str, Any] = {
        "r": radius(obj["r"]),
        "r_prime": radius(obj["rPrime"]),
        "d": int(obj["d"]),
    }
    if "cInfinite" in obj:
        kwargs["c_infinite"] = fraction_from_json(obj["cInfinite"])
    return TargetParams(**kwargs)


# -- the diagram parser the old diagram path called, as it was -----------------

# the stage records it parsed into, which the package no longer has

@dataclass(frozen=True)
class BlockSpec:
    components: int
    base_dimension: int
    matrix_size: int


@dataclass(frozen=True)
class StageSpec:
    level: int
    c_block: BlockSpec
    b_block: BlockSpec


@dataclass(frozen=True)
class TargetArrows:
    """Everything one target row receives from one connecting map."""

    arrows: tuple[Arrow, ...]
    spans: tuple[ArrowSpan, ...]


@dataclass(frozen=True)
class DiagramMap:
    level: int                    # the map climbs from level to level + 1
    d_next: int
    d_prime_next: int
    multiplicity: BlockMatrix
    into_c: TargetArrows
    into_b: TargetArrows


@dataclass(frozen=True)
class DiagramDocument:
    params: TargetParams
    h_rule: str
    h_override: tuple[int, ...] | None
    depth: int
    stages: tuple[StageSpec, ...]
    maps: tuple[DiagramMap, ...]


def _arrow_from_json(obj: Any, target: str) -> Arrow:
    if not isinstance(obj, dict):
        raise ValueError("arrow must be an object")
    kind = obj.get("kind")
    if kind == KIND_STAR_EVAL:
        return Arrow(obj["source"], target, kind, STAR)
    if kind == KIND_POINT_EVAL_X:
        return Arrow(obj["source"], target, kind,
                     TorusSlot(tuple(ints_from_json(obj["point"]))),
                     tuple(ints_from_json(obj["eval"])))
    raise ValueError(f"unknown arrow kind {kind!r}")


def _span_from_json(obj: Any, target: str) -> ArrowSpan:
    if not isinstance(obj, dict):
        raise ValueError("span must be an object")
    if obj.get("kind") not in (KIND_COORD_PROJECTION, KIND_POINT_EVAL_Y):
        raise ValueError(f"unknown span kind {obj.get('kind')!r}")
    return ArrowSpan(obj["source"], target, obj["kind"],
                     int(obj["lo"]), int(obj["hi"]))


def _target_from_json(obj: Any, target: str) -> TargetArrows:
    if not isinstance(obj, dict):
        raise ValueError("target bucket must be an object")
    return TargetArrows(
        tuple(_arrow_from_json(a, target) for a in obj["arrows"]),
        tuple(_span_from_json(s, target) for s in obj["spans"]))


def _read_diagram(doc: dict) -> tuple:
    """Params, depth and h override: all that regeneration reads."""
    params = params_from_json(doc["params"])
    depth_range = doc["depthRange"]
    depth = int(depth_range["hi"])
    # levels the document does not list are refused before they are built
    if len(doc["stages"]) != depth - int(depth_range["lo"]) + 1:
        raise ValueError("stage levels must run contiguously over the band")
    override = (ints_from_json(doc["hSeqOverride"])
                if "hSeqOverride" in doc else None)
    return params, depth, override


def diagram_from_json_obj(obj: Any) -> DiagramDocument:
    params, depth, override = _read_diagram(require_document(obj, "diagram"))
    stages = tuple(StageSpec(
        int(s["level"]),
        BlockSpec(components=int(s["cComponents"]),
                  base_dimension=int(s["cBaseDimension"]),
                  matrix_size=int(s["cMatrixSize"])),
        BlockSpec(components=1,
                  base_dimension=int(s["bBaseDimension"]),
                  matrix_size=int(s["bMatrixSize"])),
    ) for s in obj["stages"])
    maps = tuple(DiagramMap(
        level=int(m["level"]),
        d_next=int(m["dNext"]),
        d_prime_next=int(m["dPrimeNext"]),
        multiplicity=BlockMatrix(cc=int(m["multiplicity"]["cc"]),
                                 cb=int(m["multiplicity"]["cb"]),
                                 bc=int(m["multiplicity"]["bc"]),
                                 bb=int(m["multiplicity"]["bb"])),
        into_c=_target_from_json(m["into"][BLOCK_C], BLOCK_C),
        into_b=_target_from_json(m["into"][BLOCK_B], BLOCK_B),
    ) for m in obj["maps"])
    # the stage count matches depthRange, so stages at levels 0..depth
    # also refuse a depthRange.lo other than 0
    if [s.level for s in stages] != list(range(depth + 1)):
        raise ValueError("stage levels must run contiguously over the band")
    if [m.level for m in maps] != list(range(depth)):
        raise ValueError("map levels must run contiguously over the band")
    return DiagramDocument(params=params, h_rule=obj["hRule"],
                           h_override=override, depth=depth,
                           stages=stages, maps=maps)


# -- the tables reader the old tables path called, as it was ------------------

# A table no longer stores the regime, kappa, kappa', the h rule or the h
# columns, so the old reader returns them beside the table it reads, and
# ``stored_report`` replays the old suite's entries that compared them.

def tables_from_json_obj(obj: Any) -> tuple[GrowthTables, tuple]:
    require_document(obj, "tables")
    depth = int(obj["depth"])
    d_seq = (0,) + ints_from_json(obj["d"])
    l_seq = (1,) + ints_from_json(obj["l"])
    r_seq, s_seq = ints_from_json(obj["r"]), ints_from_json(obj["s"])
    d_prime_seq = (0,) + ints_from_json(obj["dPrime"])
    s_prime_seq = ints_from_json(obj["sPrime"])
    stored = (str(obj["regime"]), fraction_from_json(obj["kappa"]),
              fraction_from_json(obj["kappaPrime"]), str(obj["hRule"]),
              ints_from_json(obj["h"]), ints_from_json(obj["hPrime"]))
    h_rule, h_seq, h_prime_seq = stored[3:]
    tables = GrowthTables(
        params=params_from_json(obj["params"]), depth=depth,
        h_override=h_seq if h_rule == "explicit" else None,
        d_seq=d_seq, l_seq=l_seq, r_seq=r_seq, s_seq=s_seq,
        d_prime_seq=d_prime_seq, s_prime_seq=s_prime_seq)
    lengths = {len(d_seq), len(l_seq), len(r_seq), len(s_seq),
               len(d_prime_seq), len(s_prime_seq), len(h_seq),
               len(h_prime_seq)}
    if lengths != {depth + 1}:
        raise ValueError("tables document has inconsistent sequence lengths")
    return tables, stored


def stored_report(tables: GrowthTables, stored: tuple) -> CheckReport:
    """The old suite's entries that read a stored regime, kappa, kappa' or
    h column, on the stored values, as the old suite ran them; where they
    all hold, each equals its derived value, or (a growing h) passes every
    entry that reads it, so the rest of the old suite is ``verify_tables``.
    """
    regime, kappa, kappa_prime, _, h, h_prime = stored
    rate = derive_kappa(tables.params)
    c = Checker()
    c.check("regime matches params", regime == tables.params.regime)
    c.check("kappa matches params", kappa == rate.kappa,
            lambda: f"kappa={kappa}")
    c.check("kappa' matches params", kappa_prime == rate.kappa_prime)
    if rate.h_grows:
        c.check("h(0) = 1", h[0] == 1)
    else:
        c.check("h constant", set(h) == {rate.h_base})
    c.check("h nondecreasing", all(x <= y for x, y in zip(h, h[1:])))
    if rate.h_prime_grows:
        c.check("h' = h", h_prime == h)
    else:
        c.check("h' constant", set(h_prime) == {rate.h_prime_base})
    c.check("h(n)/2^(nd) nonincreasing",
            all(y <= x * 2 ** tables.params.d for x, y in zip(h, h[1:])))
    report = c.report()
    return report if not report.ok else verify_tables(tables)


# -- the three paths, as they were --------------------------------------------

def verify_document_file(path: str, out: str | None) -> int:
    # bad JSON, bytes that are not UTF-8 and a number past the int->str
    # digit limit are all ValueErrors: the document does not parse.  A file
    # that cannot be opened stays an OSError, a usage error.
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.loads(handle.read())
    except ValueError as exc:
        emit(f"invariant violated: document parses ({exc})", out)
        return 3
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "tables":
        return verify_tables_document(obj, out)
    if kind == "witness":
        report = verify_witness_json(obj)
        ok, line = report_lines("witness certificate", report)
        emit(line, out)
        return 0 if ok else 3
    if kind == "diagram":
        return verify_diagram_document(obj, out)
    emit(f"invariant violated: recognized document kind (got {kind!r})", out)
    return 3


def verify_tables_document(obj: dict, out: str | None) -> int:
    try:
        tables, stored = tables_from_json_obj(obj)
        rebuilt = build_tables(tables.params, tables.depth,
                               tables.h_override)
    except (KeyError, ValueError, TypeError) as exc:
        emit(f"invariant violated: tables document well formed ({exc})", out)
        return 3
    report = stored_report(tables, stored)
    ok, line = report_lines("tables", report)
    if not ok:
        emit(line, out)
        return 3
    # first_difference, unlike ==, tells true and 2.0 from 1 and 2
    diff = first_difference(obj, rebuilt.to_json_obj())
    if diff:
        emit("invariant violated: tables match canonical regeneration "
             f"({diff})", out)
        return 3
    emit(line + "\ntables match canonical regeneration", out)
    return 0


def verify_diagram_document(obj: dict, out: str | None) -> int:
    try:
        doc = diagram_from_json_obj(obj)
        tables = build_tables(doc.params, doc.depth, doc.h_override)
        rebuilt = build_diagram_document(tables)
    except (KeyError, ValueError, TypeError) as exc:
        emit(f"invariant violated: diagram document well formed ({exc})", out)
        return 3
    canonical = diagram_to_json_obj(rebuilt)
    if obj != canonical:
        emit("invariant violated: diagram matches canonical regeneration "
             f"({first_difference(obj, canonical)})", out)
        return 3
    emit("diagram matches canonical regeneration", out)
    return 0


def verify_witness_json(doc: Any) -> CheckReport:
    """Rebuild the certificate from its inputs and require equality.

    The presented document must match the canonical recomputation key for
    key, value for value; nothing in it is trusted.
    """
    c = Checker()
    try:
        if not isinstance(doc, dict):
            raise ValueError("certificate must be an object")
        if doc.get("formatVersion") != FORMAT_VERSION:
            raise ValueError(f"unknown formatVersion {doc.get('formatVersion')!r}")
        if doc.get("kind") != "witness":
            raise ValueError(f"not a witness document: kind={doc.get('kind')!r}")
        if not isinstance(doc.get("crossed"), bool):
            raise ValueError("crossed flag must be a boolean")
        params_obj = doc["params"]
        if isinstance(params_obj, dict) and "rPrime" not in params_obj:
            params_obj = {**params_obj, "rPrime": params_obj.get("r")}
        params = params_from_json(params_obj)
        depth = int(doc["depth"])
        rho = fraction_from_json(doc["rho"])
        override = None
        if "hSeqOverride" in doc:
            override = tuple(int(x) for x in doc["hSeqOverride"])
        tables = build_tables(params, depth, override)
        canonical = search_witness(tables, rho, doc["crossed"])
    except (KeyError, ValueError, TypeError, RuntimeError) as exc:
        c.check("document parses and recomputes", False, str(exc))
        return c.report()
    c.check("document parses and recomputes", True)
    diff = first_difference(doc, canonical.to_json_obj())
    c.check("matches canonical recomputation", diff is None, diff or "")
    c.check("all ledger rows hold", canonical.all_hold)
    return c.report()


# -- inputs -------------------------------------------------------------------

REGIMES = [("1/2", "1/3", "1/4"), ("inf", "5/2", "1"), ("inf", "inf", "1")]


def emitted(tmp_path, *argv):
    path = tmp_path / "emitted.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(path)]) == 0
    return json.loads(path.read_text())


def documents(tmp_path):
    """(name, document) for every small document the tests edit."""
    docs = []
    for r, r_prime, rho in REGIMES:
        flags = ("--r", r, "--r-prime", r_prime)
        docs += [
            (f"plan {r} {r_prime}", emitted(tmp_path, "plan", *flags,
                                            "--depth", "3")),
            (f"witness {r} {r_prime}", emitted(
                tmp_path, "witness", *flags, "--depth", "3", "--rho", rho)),
            (f"crossed witness {r} {r_prime}", emitted(
                tmp_path, "witness", *flags, "--depth", "3", "--rho", rho,
                "--crossed")),
            (f"export {r} {r_prime}", emitted(tmp_path, "export", *flags,
                                              "--depth", "2")),
        ]
    explicit = ("--r", "inf", "--r-prime", "inf", "--depth", "4",
                "--h-seq", "1,2,2,4,4")
    docs += [
        ("plan explicit h", emitted(tmp_path, "plan", *explicit)),
        ("witness explicit h", emitted(tmp_path, "witness", *explicit,
                                       "--rho", "1")),
        ("export explicit h", emitted(tmp_path, "export", *explicit)),
        ("export d=2", emitted(tmp_path, "export", "--d", "2",
                               "--depth", "2")),
    ]
    return docs


def leaf_edits(node, path=()):
    """(path, value) pairs: each scalar leaf with another value of its JSON
    type, then with a value of another type."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_edits(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaf_edits(value, path + (i,))
    elif isinstance(node, bool):
        yield path, not node
        yield path, int(node)
    elif isinstance(node, int):
        yield path, node + 1
        yield path, float(node)
    elif node.lstrip("-").isdigit():
        yield path, str(int(node) + 1)
        yield path, int(node)
    else:
        yield path, node + " x"
        yield path, None


def edited(doc, path, value):
    copy = json.loads(json.dumps(doc))
    target = copy
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return copy


# -- comparison ---------------------------------------------------------------

def outcome(verify, path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = verify(str(path), None)
    return code, out.getvalue()


# the parse entry of each kind, failed by a declared integer that is not
# spelt as ``str`` writes it
DECLARED_INTEGER = re.compile(
    r"invariant violated: (tables document well formed|document parses and "
    r"recomputes|diagram document well formed) \(not a decimal integer: ")


def assert_same_outcome(path):
    """The new outcome equals the old, or differs by one of the line
    classes of the module docstring; returns the class, or None."""
    new, old = outcome(cli.verify_document_file, path), \
        outcome(verify_document_file, path)
    if new == old:
        return None
    assert new[0] == old[0] == 3, (new, old)
    if DECLARED_INTEGER.match(new[1]):
        assert old[1].startswith("invariant violated: "), (new, old)
        return "declared integer"
    if new[1].startswith("invariant violated: diagram matches canonical "
                         "regeneration ($."):
        assert old[1].startswith(
            "invariant violated: diagram document well formed ("), (new, old)
        return "diagram"
    if new[1].startswith("invariant violated: tables document well formed ("):
        assert old[1].startswith("invariant violated: tables match canonical "
                                 "regeneration ($.hSeqOverride["), (new, old)
        return "h override"
    assert new[1].startswith(
        "invariant violated: tables match canonical regeneration ($."), \
        (new, old)
    assert old[1].startswith("invariant violated: "), (new, old)
    return "tables"


def assert_same_witness_report(doc):
    new, old = certificates.verify_witness_json(doc), verify_witness_json(doc)
    if (not new.ok
            and new.first_failure.detail.startswith("not a decimal integer:")):
        assert not old.ok
        return
    assert (new.ok, new.first_failure) == (old.ok, old.first_failure)


def test_every_single_leaf_edit_matches_the_old_paths(tmp_path):
    path = tmp_path / "document.json"
    edits = 0
    differed = Counter()
    for name, doc in documents(tmp_path):
        path.write_text(json.dumps(doc))
        assert outcome(cli.verify_document_file, path)[0] == 0, name
        assert not assert_same_outcome(path), name
        for leaf, value in leaf_edits(doc):
            mutated = edited(doc, leaf, value)
            path.write_text(json.dumps(mutated))
            differed[assert_same_outcome(path)] += 1
            if doc["kind"] == "witness":
                assert_same_witness_report(mutated)
            edits += 1
    assert edits > 2000
    # each line class is exercised, and together they stay a minority
    del differed[None]
    assert set(differed) == {"diagram", "tables", "h override",
                             "declared integer"}
    assert sum(differed.values()) < edits // 4


@pytest.mark.parametrize("text", [
    "[1, 2]",
    "null",
    json.dumps({"kind": "mystery"}),
    json.dumps({"kind": ["tables"]}),
    json.dumps({"formatVersion": "1"}),
    "{not json",
])
def test_documents_of_no_kind_match_the_old_paths(tmp_path, text):
    path = tmp_path / "document.json"
    path.write_text(text)
    assert not assert_same_outcome(path)


@pytest.mark.parametrize("kind", ["plan", "witness", "export"])
def test_wrong_format_version_matches_the_old_paths(tmp_path, kind):
    argv = [kind] + (["--rho", "1/4"] if kind == "witness" else [])
    doc = emitted(tmp_path, *argv)
    for version in ("2", 1, None):
        path = tmp_path / "document.json"
        path.write_text(json.dumps({**doc, "formatVersion": version}))
        assert not assert_same_outcome(path)
        if kind == "witness":
            assert_same_witness_report({**doc, "formatVersion": version})


def test_witness_reports_differ_only_on_a_non_object():
    for doc in ([], "witness", None):
        new = certificates.verify_witness_json(doc).first_failure
        old = verify_witness_json(doc).first_failure
        assert (new.name, old.name) == ("document parses and recomputes",) * 2
        assert (old.detail, new.detail) == (
            "certificate must be an object",
            "witness document must be an object")


def format_edits(text):
    """Spellings of the decimal ``text`` (two digits or more) that int()
    reads, as the same value where it can, and a document may not hold."""
    assert len(text) > 1
    yield from ("0" + text, "+" + text, " " + text, text + " ",
                text[0] + "_" + text[1:], text.translate(ARABIC_INDIC),
                int(text), float(text), True)


ARABIC_INDIC = str.maketrans("0123456789", "".join(
    chr(0x660 + k) for k in range(10)))


def decimal_leaves(doc):
    """A ledger operand of each witness, and the deepest r of each tables
    document, that has two digits or more."""
    if doc["kind"] == "tables":
        return [("r", len(doc["r"]) - 1)]
    return [next(("ledger", i, side, part)
                 for i, row in enumerate(doc["ledger"])
                 for side in ("lhs", "rhs") for part in ("num", "den")
                 if len(row[side][part]) > 1)]


def test_format_edits_of_a_decimal_leaf_match_the_old_paths(tmp_path):
    path = tmp_path / "document.json"
    edits = 0
    for name, doc in documents(tmp_path):
        if doc["kind"] not in ("tables", "witness"):
            continue
        for leaf in decimal_leaves(doc):
            target = doc
            for step in leaf:
                target = target[step]
            for value in format_edits(target):
                mutated = edited(doc, leaf, value)
                path.write_text(json.dumps(mutated))
                assert outcome(cli.verify_document_file, path)[0] == 3, \
                    (name, leaf, value)
                # the old tables reader read True as 1, and failed the
                # identity it broke
                assert assert_same_outcome(path) == (
                    "tables" if value is True and doc["kind"] == "tables"
                    else None), (name, leaf, value)
                if doc["kind"] == "witness":
                    assert_same_witness_report(mutated)
                edits += 1
    # nine spellings of one leaf in each of 4 tables and 7 witnesses
    assert edits == 9 * 11


def test_a_5000_digit_ledger_operand_is_a_mismatch(tmp_path):
    # past the int->str digit limit: text_int refuses to read it, so it
    # matches no integer; nothing raises, on either path
    doc = emitted(tmp_path, "witness", "--rho", "1/4")
    path = tmp_path / "long-operand.json"
    path.write_text(json.dumps(edited(doc, ("ledger", 0, "lhs", "num"),
                                      "7" * 5000)))
    code, out = outcome(cli.verify_document_file, path)
    assert code == 3
    assert out.startswith("invariant violated: matches canonical "
                          "recomputation ($.ledger[0].lhs.num: '7777")
    assert not assert_same_outcome(path)


def test_a_5000_digit_column_leaf_is_a_mismatch(tmp_path):
    # the old reader let int() refuse it at the digit limit
    if not 0 < sys.get_int_max_str_digits() <= 5000:
        pytest.skip("needs an int->str digit limit near the default")
    doc = emitted(tmp_path, "plan", "--depth", "3")
    path = tmp_path / "long-leaf.json"
    path.write_text(json.dumps(edited(doc, ("r", 1), "7" * 5000)))
    assert outcome(verify_document_file, path)[1].startswith(
        "invariant violated: tables document well formed (Exceeds the limit")
    head = "'" + "7" * SHOWN_CHARACTERS + "'"
    assert outcome(cli.verify_document_file, path) == (
        3, "invariant violated: tables match canonical regeneration "
           f"($.r[1]: {head}... (5000 characters) vs '5')\n")


def test_a_depth_past_the_listed_levels_is_refused_before_it_is_built(
        tmp_path):
    doc = emitted(tmp_path, "plan", "--depth", "3")
    path = tmp_path / "deeper.json"
    path.write_text(json.dumps({**doc, "depth": "16"}))
    assert outcome(cli.verify_document_file, path) == (
        3, "invariant violated: tables document well formed (tables "
           "document has inconsistent sequence lengths)\n")
    assert not assert_same_outcome(path)


def test_a_million_character_ledger_operand_has_a_short_detail(tmp_path):
    # the detail shows the leaf by its head and length, on both paths
    doc = emitted(tmp_path, "witness", "--rho", "1/4")
    path = tmp_path / "long-operand.json"
    path.write_text(json.dumps(edited(doc, ("ledger", 0, "lhs", "num"),
                                      "7" * 10 ** 6)))
    code, out = outcome(cli.verify_document_file, path)
    assert code == 3
    assert out.startswith("invariant violated: matches canonical "
                          "recomputation ($.ledger[0].lhs.num: '7777")
    assert "'... (1000000 characters) vs '" in out
    assert len(out) < 200
    assert not assert_same_outcome(path)


def test_a_million_character_key_has_a_short_path(tmp_path):
    # the path shows a long key by its head and length, as the detail
    # shows a leaf
    doc = emitted(tmp_path, "witness", "--rho", "1/4")
    path = tmp_path / "long-key.json"
    path.write_text(json.dumps({**doc, "x" * 10 ** 6: "1"}))
    code, out = outcome(cli.verify_document_file, path)
    assert (code, out) == (3, "invariant violated: matches canonical "
                           f"recomputation ($.{'x' * SHOWN_CHARACTERS}... "
                           "(1000000 characters): unexpected key)\n")
    assert len(out) < 200


@pytest.mark.parametrize("key", ["kind", "formatVersion"])
def test_a_million_character_tag_is_echoed_bounded(tmp_path, key):
    doc = emitted(tmp_path, "witness", "--rho", "1/4")
    path = tmp_path / "long-tag.json"
    path.write_text(json.dumps({**doc, key: "x" * 10 ** 6}))
    code, out = outcome(cli.verify_document_file, path)
    assert code == 3
    assert out.startswith("invariant violated: ")
    assert out.endswith("... (1000000 characters))\n")
    assert len(out) < 200


def test_regeneration_past_the_digit_limit_is_refused_in_the_sequence(
        tmp_path):
    # at d=1 the canonical certificate of depth 13 has integers past the
    # int->str digit limit: the old path let that ValueError out of
    # verify_document_file (exit 2 from main); the sequence writes no
    # regenerated integer, and refuses the document at its first
    # difference
    if not 0 < sys.get_int_max_str_digits() <= 5000:
        pytest.skip("needs an int->str digit limit near the default")
    doc = emitted(tmp_path, "witness", "--rho", "1/4", "--depth", "12")
    path = tmp_path / "deep-witness.json"
    path.write_text(json.dumps({**doc, "depth": "13"}))
    with pytest.raises(ValueError, match="Exceeds the limit"):
        outcome(verify_document_file, path)
    assert outcome(cli.verify_document_file, path) == (
        3, "invariant violated: matches canonical recomputation "
           "($.checkedDepths: length 11 vs 12)\n")


def test_an_unwritable_regenerated_integer_is_named_by_its_bits(tmp_path):
    # the depth-13 certificate itself, with each integer past the limit
    # spelt "0": the comparison reaches one it cannot write
    if not 0 < sys.get_int_max_str_digits() <= 5000:
        pytest.skip("needs an int->str digit limit near the default")
    canonical = search_witness(tables_from_cli("1/2", "1/2", 1, 13),
                               Fraction(1, 4)).to_json_obj(IntLeaf)

    def spelt(node):
        if isinstance(node, dict):
            return {key: spelt(value) for key, value in node.items()}
        if isinstance(node, list):
            return [spelt(value) for value in node]
        if isinstance(node, IntLeaf):
            try:
                return str(node.value)
            except ValueError:
                return "0"
        return node

    path = tmp_path / "deep-witness.json"
    path.write_text(json.dumps(spelt(canonical)))
    code, out = outcome(cli.verify_document_file, path)
    assert code == 3
    assert re.fullmatch(
        r"invariant violated: matches canonical recomputation "
        r"\(\$\.ledger\[\d+\]\.(lhs|rhs)\.(num|den): '0' vs "
        r"<\d+-bit integer past the int->str digit limit>\)\n", out), out


# a declared integer of each kind, read by its kind's parse entry
@pytest.mark.parametrize("argv, field, entry", [
    (["plan"], ("depth",), "tables document well formed"),
    (["witness", "--rho", "1/4"], ("depth",),
     "document parses and recomputes"),
    (["export"], ("depthRange", "lo"), "diagram document well formed"),
    (["export"], ("depthRange", "hi"), "diagram document well formed"),
    (["plan"], ("params", "d"), "tables document well formed"),
    (["plan"], ("params", "rPrime", "den"), "tables document well formed"),
    (["witness", "--rho", "1/4"], ("rho", "num"),
     "document parses and recomputes"),
    (["witness", "--r", "inf", "--r-prime", "inf", "--rho", "1",
      "--h-seq", "1,2,3,4,5"], ("hSeqOverride", 1),
     "document parses and recomputes"),
    (["chern", "--k", "4"], ("maxK",), "chern document well formed"),
])
def test_an_integer_field_of_1e400_is_refused_in_the_sequence(
        tmp_path, argv, field, entry):
    # JSON 1e400 (float infinity), and each spelling that int() reads but
    # str does not write, fails the parse entry: text_int reads only
    # canonical decimal strings
    doc = emitted(tmp_path, *argv)
    path = tmp_path / "infinite.json"
    path.write_text(json.dumps(edited(doc, field, "INFINITE")).replace(
        '"INFINITE"', "1e400"))
    # the old paths read it with int(), which raised OverflowError (they
    # read no chern document)
    if argv[0] != "chern":
        with pytest.raises(OverflowError):
            outcome(verify_document_file, path)
    assert outcome(cli.verify_document_file, path) == (
        3, f"invariant violated: {entry} (not a decimal integer: inf)\n")
    for value in (" 4", "+4", "4_0", "\u0664"):
        path.write_text(json.dumps(edited(doc, field, value)))
        assert outcome(cli.verify_document_file, path) == (
            3, f"invariant violated: {entry} "
               f"(not a decimal integer: {value!r})\n")


def decodes(text):
    """Whether the running JSON decoder parses ``text`` rather than giving
    up with a RecursionError: CPython 3.13's parses 5000 nested lists."""
    try:
        json.loads(text)
    except RecursionError:
        return False
    return True


def test_nesting_too_deep_to_decode_is_a_document_that_does_not_parse(
        tmp_path):
    path = tmp_path / "deep.json"
    for depth in (5000, 100000):
        text = "[" * depth + "]" * depth
        path.write_text(text)
        if decodes(text):
            # a decoded list is a document of no kind, on both paths
            assert depth == 5000
            assert outcome(cli.verify_document_file, path) == (
                3, "invariant violated: recognized document kind (got None)\n")
            assert not assert_same_outcome(path)
            continue
        with pytest.raises(RecursionError):
            outcome(verify_document_file, path)
        code, out = outcome(cli.verify_document_file, path)
        assert code == 3
        assert out.startswith("invariant violated: document parses (")
