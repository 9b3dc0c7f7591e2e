import copy
import json
from fractions import Fraction

import pytest

from ahtower.certificates import (LedgerRow, search_witness,
                                  verify_witness_json)
from ahtower.rational import ExtendedRational
from ahtower.report import first_difference
from ahtower.sequences import TargetParams, build_tables


def tables_for(r, rp, d=1, depth=4, c=None, h_seq=None):
    kwargs = {}
    if c is not None:
        kwargs["c_infinite"] = Fraction(c)
    params = TargetParams(ExtendedRational.parse(r),
                          ExtendedRational.parse(rp), d, **kwargs)
    return build_tables(params, depth, h_seq)


@pytest.fixture(scope="module")
def half_third():
    return tables_for("1/2", "1/3")


def rows_by_name(report):
    return {row.name: row for row in report.ledger}


# ----------------------------------------------------------------------
# ledger rows
# ----------------------------------------------------------------------

def test_ledger_row_compare():
    row = LedgerRow.compare("demo", 1, "<", Fraction(3, 2))
    assert row.holds and row.lhs == 1 and row.rhs == Fraction(3, 2)
    assert not LedgerRow.compare("demo", 2, "<", 2).holds
    assert LedgerRow.compare("demo", 2, "<=", 2).holds
    assert LedgerRow.compare("demo", Fraction(7, 5), ">", Fraction(5, 4)).holds
    assert LedgerRow.compare("demo", 3, "=", 3).holds


def test_ledger_row_json_shape():
    obj = LedgerRow.compare("demo", Fraction(1, 3), "<", 1).to_json_obj()
    assert obj == {"name": "demo", "lhs": {"num": "1", "den": "3"},
                   "relation": "<", "rhs": {"num": "1", "den": "1"},
                   "holds": True}


# ----------------------------------------------------------------------
# the finite-anchor search
# ----------------------------------------------------------------------

def test_tower_witness_frozen_values(half_third):
    rep = search_witness(half_third, Fraction(1, 4))
    assert (rep.n, rep.M, rep.origin) == (1, 7, 0)
    assert rep.checked_depths == (2, 3, 4)
    assert rep.all_hold
    rows = rows_by_name(rep)
    assert rows["rank bound (m=2)"].lhs == 133
    assert rows["rank bound (m=2)"].rhs == 143
    assert rows["trace bound (m=2)"].lhs == Fraction(7, 5)
    assert rows["trace bound (m=2)"].rhs == Fraction(5, 4)
    assert rows["rank bound (m=3)"].lhs == 63973
    assert rows["rank bound (m=3)"].rhs == 68543


def test_tower_witness_window_rows(half_third):
    rep = search_witness(half_third, Fraction(1, 4))
    rows = rows_by_name(rep)
    assert rows["depth window (n=1)"].lhs == Fraction(1, 5)
    assert rows["depth window (n=1)"].rhs == Fraction(1, 4)
    assert rows["normalized rank floor (n=1)"].rhs == Fraction(7, 5)
    assert rows["normalized rank ceiling (n=1)"].rhs == Fraction(3, 2)


def test_crossed_witness_frozen_values(half_third):
    rep = search_witness(half_third, Fraction(1, 4), crossed=True)
    assert (rep.n, rep.M, rep.origin) == (2, 119, 0)
    assert rep.crossed and rep.all_hold
    rows = rows_by_name(rep)
    assert rows["rank bound (m=3)"].lhs == 57239
    assert rows["rank bound (m=3)"].rhs == 60927
    assert rows["rank bound (m=4)"].lhs == 23540397335
    assert rows["rank bound (m=4)"].rhs == 25057005567
    assert rows["trace match (m=3)"].relation == "="
    assert rows["trace match (m=3)"].holds


def test_crossed_collapses_to_tower_when_radii_match():
    t = tables_for("1/2", "1/2", depth=3)
    plain = search_witness(t, Fraction(1, 4))
    crossed = search_witness(t, Fraction(1, 4), crossed=True)
    assert (plain.n, plain.M) == (crossed.n, crossed.M)
    # the crossed flavor still carries its trace-match rows
    assert any(r.name.startswith("trace match") for r in crossed.ledger)
    assert not any(r.name.startswith("trace match") for r in plain.ledger)


# ----------------------------------------------------------------------
# the growing-anchor search
# ----------------------------------------------------------------------

def test_infinite_finite_witnesses():
    t = tables_for("inf", "5/2", depth=3)
    rep1 = search_witness(t, Fraction(1))
    assert (rep1.n, rep1.M, rep1.origin) == (1, 300, 1)
    rep2 = search_witness(t, Fraction(2))
    assert (rep2.n, rep2.M, rep2.origin) == (2, 16737891, 2)
    rows = rows_by_name(rep2)
    assert rows["multiplier floor (n=2)"].lhs == 3
    assert rows["ratio floor (m=3)"].relation == "<="
    assert rep1.all_hold and rep2.all_hold


def test_infinite_finite_crossed_witnesses():
    # the primed radius is finite, so the crossed flavor anchors at level 0
    t = tables_for("inf", "5/2", depth=3)
    rep1 = search_witness(t, Fraction(1), crossed=True)
    assert (rep1.n, rep1.M, rep1.origin) == (1, 53, 0)
    rep2 = search_witness(t, Fraction(2), crossed=True)
    assert (rep2.n, rep2.M, rep2.origin) == (1, 66, 0)
    assert rep1.all_hold and rep2.all_hold


def test_infinite_infinite_witnesses():
    t = tables_for("inf", "inf", depth=5, c="1/2")
    rep1 = search_witness(t, Fraction(1))
    assert (rep1.n, rep1.M, rep1.origin) == (2, 13776, 2)
    rep2 = search_witness(t, Fraction(2))
    assert (rep2.n, rep2.M) == (4, 882919023789517220351)
    assert rep1.all_hold and rep2.all_hold


def test_infinite_witness_rows_scale_with_anchor():
    t = tables_for("inf", "inf", depth=4, c="1/2")
    rep = search_witness(t, Fraction(1))
    rows = rows_by_name(rep)
    # anchor multiplies by h(2) s(2) = 3 * 48
    assert rows["trace bound (m=3)"].rhs == 144 + 1
    assert rows["rank bound (m=3)"].rhs == 3 * 48 * 45695 + 3 * 22848


# ----------------------------------------------------------------------
# search preconditions
# ----------------------------------------------------------------------

def test_rho_must_be_positive(half_third):
    with pytest.raises(ValueError, match="positive"):
        search_witness(half_third, Fraction(0))
    with pytest.raises(ValueError, match="positive"):
        search_witness(half_third, Fraction(-1, 2))


def test_rho_must_stay_below_radius(half_third):
    with pytest.raises(ValueError, match="below the target radius"):
        search_witness(half_third, Fraction(1, 2))
    with pytest.raises(ValueError, match="below the target radius"):
        search_witness(half_third, Fraction(1, 3), crossed=True)
    # unbounded radius accepts any positive rho
    t = tables_for("inf", "inf", depth=5, c="1/2")
    assert search_witness(t, Fraction(3, 2)).all_hold


def test_shallow_tables_have_no_witness():
    t = tables_for("1/2", "1/3", depth=1)
    with pytest.raises(ValueError, match="no witness at this depth"):
        search_witness(t, Fraction(9, 20))


# ----------------------------------------------------------------------
# structural diff
# ----------------------------------------------------------------------

def test_first_difference_cases():
    assert first_difference({"a": 1}, {"a": 1}) is None
    assert first_difference(1, "1") == "$: int vs str"
    assert first_difference({"a": 1}, {"a": 2}) == "$.a: 1 vs 2"
    assert first_difference({"a": 1}, {"a": 1, "b": 2}) \
        == "$.b: missing on the left"
    assert first_difference({"a": 1, "b": 2}, {"a": 1}) \
        == "$.b: unexpected key"
    assert first_difference([1, 2], [1]) == "$: length 2 vs 1"
    assert first_difference({"a": [1, {"b": 3}]}, {"a": [1, {"b": 4}]}) \
        == "$.a[1].b: 3 vs 4"


# ----------------------------------------------------------------------
# re-verification
# ----------------------------------------------------------------------

def emitted_doc(tables, rho, crossed=False):
    """Serialize through real JSON so the verifier sees primitives only."""
    rep = search_witness(tables, rho, crossed)
    return json.loads(json.dumps(rep.to_json_obj(), sort_keys=True))


def test_verifier_accepts_emitted_certificates(half_third):
    for crossed in (False, True):
        report = verify_witness_json(emitted_doc(half_third, Fraction(1, 4),
                                                 crossed))
        assert report.ok, report.first_failure


def test_plain_certificates_carry_no_dead_radius_field(half_third):
    plain = emitted_doc(half_third, Fraction(1, 4))
    crossed = emitted_doc(half_third, Fraction(1, 4), crossed=True)
    assert "rPrime" not in plain["params"]
    assert crossed["params"]["rPrime"] == {"num": "1", "den": "3"}
    # a plain certificate that smuggles the field back in is rejected
    smuggled = copy.deepcopy(plain)
    smuggled["params"]["rPrime"] = {"num": "1", "den": "3"}
    report = verify_witness_json(smuggled)
    assert not report.ok
    assert "rPrime" in report.first_failure.detail


def test_verifier_accepts_infinite_and_override_certificates():
    t1 = tables_for("inf", "5/2", depth=3)
    assert verify_witness_json(emitted_doc(t1, Fraction(1))).ok
    t2 = tables_for("inf", "inf", depth=4, c="1/2", h_seq=(1, 2, 2, 4, 4))
    doc = emitted_doc(t2, Fraction(1))
    assert doc["hRule"] == "explicit"
    assert doc["hSeqOverride"] == ["1", "2", "2", "4", "4"]
    assert verify_witness_json(doc).ok


def leaf_mutations(node, path=()):
    """Yield (path, replacement) pairs, one per scalar leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_mutations(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaf_mutations(value, path + (i,))
    elif isinstance(node, bool):
        yield path, not node
    elif isinstance(node, str):
        if node.lstrip("-").isdigit():
            yield path, str(int(node) + 1)
        else:
            yield path, node + " x"
    else:
        raise AssertionError(f"unexpected leaf {node!r} at {path}")


def apply_mutation(doc, path, value):
    mutated = copy.deepcopy(doc)
    target = mutated
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return mutated


def test_every_single_field_mutation_is_rejected(half_third):
    doc = emitted_doc(half_third, Fraction(1, 4))
    mutations = list(leaf_mutations(doc))
    assert len(mutations) > 40
    for path, value in mutations:
        mutated = apply_mutation(doc, path, value)
        report = verify_witness_json(mutated)
        assert not report.ok, f"mutation at {path} slipped through"
    assert verify_witness_json(doc).ok


def test_malformed_documents_are_rejected(half_third):
    good = emitted_doc(half_third, Fraction(1, 4))
    bad_docs = [
        [],
        {},
        {**good, "kind": "tables"},
        {**good, "formatVersion": "99"},
        {**good, "crossed": "no"},
        {**good, "depth": "three"},
        {**good, "rho": {"num": "0", "den": "1"}},
        {**good, "rho": {"num": "1", "den": "2"}},
        {k: v for k, v in good.items() if k != "params"},
        {**good, "params": {"r": {"num": "1", "den": "2"}}},
    ]
    for doc in bad_docs:
        report = verify_witness_json(doc)
        assert not report.ok
        assert report.first_failure is not None


def test_verifier_names_the_first_divergence(half_third):
    doc = emitted_doc(half_third, Fraction(1, 4))
    mutated = apply_mutation(doc, ("M",), "8")
    report = verify_witness_json(mutated)
    failing = report.first_failure
    assert failing.name == "matches canonical recomputation"
    assert "$." in failing.detail
