"""Acceptance gate: the headline guarantees of the package in one place.

Each test prints a single ``[ACCEPTANCE] C## <label>: PASS/FAIL`` line and
then asserts, so a plain pytest run doubles as the sign-off checklist.
Every quantity checked here is exact; the only tolerances are wall-clock
budgets on the few criteria that carry one.
"""

import dataclasses
import itertools
import json
import time
from fractions import Fraction

from ahtower import (
    TargetParams,
    build_connecting_map,
    build_diagram_document,
    build_tables,
    check_equivariance,
    check_upper_bound_gap,
    chern_min_embedding_rank,
    diagram_to_json_obj,
    export_diagram,
    lattice_maps,
    outerness_witness,
    render_dot,
    search_witness,
    verify_tower,
    verify_witness_json,
)
from ahtower.diagram import DIAGRAM_DOCUMENT
from ahtower.rational import ExtendedRational
from ahtower.sequences import declared_tables, verify_document
from ahtower.tower import TorusSlot

import oracle
from oracle import SquareZeroPoly
from test_certificates import apply_mutation, leaf_mutations
from test_verify_reference import crossed_rc_upper

INF = ExtendedRational.infinite()


def gate(cid, label, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[ACCEPTANCE] {cid} {label}: {status}")
    assert not failures, f"{cid} {label}: " + "; ".join(failures)


def need(failures, ok, message):
    if not ok:
        failures.append(message)


def finite_tables(r, r_prime, d=1, depth=4):
    params = TargetParams(r=ExtendedRational(Fraction(r)),
                          r_prime=ExtendedRational(Fraction(r_prime)),
                          d=d)
    return build_tables(params, depth)


# ----------------------------------------------------------------------
# C01: the sequence generator against an independent scan
# ----------------------------------------------------------------------

def test_c01_sequence_oracle_equivalence():
    failures = []
    start = time.perf_counter()
    cases = [(Fraction(1, 2), 1), (Fraction(3, 4), 1),
             (Fraction(1, 2), 2), (Fraction(9, 10), 3)]
    for kappa, d in cases:
        got = finite_tables(kappa, kappa, d=d, depth=6)
        got_ratio = [Fraction(s, r) for s, r in zip(got.s_seq, got.r_seq)]
        d_seq, l_seq, r_prod, s_prod, ratio = oracle.primary_tables(
            kappa, d, 6)
        need(failures, list(got.d_seq[1:]) == d_seq[1:],
             f"d sequence differs for kappa={kappa}, d={d}")
        need(failures, list(got.l_seq) == l_seq
             and list(got.r_seq) == r_prod
             and list(got.s_seq) == s_prod
             and got_ratio == ratio,
             f"derived tables differ for kappa={kappa}, d={d}")
    half = finite_tables("1/2", "1/2", d=1, depth=6)
    need(failures, half.d_seq[1:4] == (3, 16, 476),
         f"frozen d values differ: {half.d_seq[1:4]}")
    half_ratio = Fraction(half.s_seq[2], half.r_seq[2])
    need(failures, half_ratio == Fraction(48, 95),
         f"frozen ratio differs: {half_ratio}")
    elapsed = time.perf_counter() - start
    need(failures, elapsed < 5.0, f"too slow: {elapsed:.2f}s")
    gate("C01", "sequence oracle equivalence", failures)


# ----------------------------------------------------------------------
# C02: exact growth invariants at depth 8
# ----------------------------------------------------------------------

def test_c02_growth_invariants_depth_8():
    failures = []
    start = time.perf_counter()
    depth = 8
    for r, rp in (("1/2", "1/3"), ("3/4", "1/4"), ("9/10", "9/10")):
        t = finite_tables(r, rp, depth=depth)
        kappa, kappa_prime = t.kappa, t.kappa_prime
        tag = f"targets {r}, {rp}"
        for n in range(1, depth + 1):
            need(failures, kappa < t.ratio(n) < t.ratio(n - 1),
                 f"{tag}: ratio not strictly decreasing above kappa at {n}")
            need(failures, 1 <= t.d_prime(n) <= t.d(n),
                 f"{tag}: d' outside [1, d] at {n}")
            gap = t.gamma(n) * (kappa / t.ratio(n)) - kappa_prime
            need(failures, 0 <= gap < Fraction(1, t.l(n)),
                 f"{tag}: secondary remainder outside window at {n}: {gap}")
        for n in range(1, depth):
            need(failures, t.d(n) <= t.d(n + 1),
                 f"{tag}: d not nondecreasing at {n}")
        tail = t.ratio(depth) - kappa
        need(failures, tail <= kappa / (t.d(depth) - 1),
             f"{tag}: tail bound fails: {tail}")
    elapsed = time.perf_counter() - start
    need(failures, elapsed < 10.0, f"too slow: {elapsed:.2f}s")
    gate("C02", "growth invariants at depth 8", failures)


# ----------------------------------------------------------------------
# C03: tower soundness at depth 8
# ----------------------------------------------------------------------

def test_c03_tower_soundness_depth_8():
    failures = []
    for r, rp in (("1/2", "1/3"), ("3/4", "1/4")):
        t = finite_tables(r, rp, depth=8)
        rep = verify_tower(t, lattice_maps(t))
        need(failures, rep.ok,
             f"targets {r}, {rp}: {rep.first_failure}")
        need(failures,
             not any("skipped" in e.name for e in rep.entries),
             f"targets {r}, {rp}: slot checks were skipped")
    gate("C03", "tower soundness at depth 8", failures)


# ----------------------------------------------------------------------
# C04: equivariance for generators, with a negative control
# ----------------------------------------------------------------------

def test_c04_equivariance_with_negative_control():
    failures = []
    for d in (1, 2):
        t = finite_tables("1/2", "1/3", d=d, depth=7)
        generators = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        elements = generators + [(1,) * d]
        for n in range(7):
            cmap = build_connecting_map(t, n)
            for g in elements:
                rep = check_equivariance(cmap, g)
                need(failures, rep.ok,
                     f"d={d}, level {n}, g={g}: {rep.first_failure}")

    t = finite_tables("1/2", "1/3", depth=3)
    cmap = build_connecting_map(t, 2)
    z1, z2 = (0,), (1,)

    def tamper(a):
        if a.target == "C" and a.kind == "pointEvalX":
            if a.slot == TorusSlot(z1):
                return dataclasses.replace(a, eval_point=z2)
            if a.slot == TorusSlot(z2):
                return dataclasses.replace(a, eval_point=z1)
        return a

    mutated = dataclasses.replace(cmap, arrows=tuple(map(tamper, cmap.arrows)))
    need(failures, not check_equivariance(mutated, (1,)).ok,
         "negative control passed on a tampered map")
    gate("C04", "equivariance with negative control", failures)


# ----------------------------------------------------------------------
# C05: outerness levels across a sup-norm ball
# ----------------------------------------------------------------------

def brute_two_adic(x):
    x = abs(x)
    e = 0
    while x % 2 == 0:
        x //= 2
        e += 1
    return e


def test_c05_outerness_witness_levels():
    failures = []
    for d in (1, 2):
        for g in itertools.product(range(-4, 5), repeat=d):
            if all(x == 0 for x in g):
                continue
            w = outerness_witness(g)
            want = 1 + min(brute_two_adic(x) for x in g if x != 0)
            need(failures, w.level == want,
                 f"g={g}: level {w.level} instead of {want}")
            need(failures, w.separated, f"g={g}: slots not separated")
    gate("C05", "outerness witness levels", failures)


# ----------------------------------------------------------------------
# C06: minimal embedding rank doubling with the exact ring identity
# ----------------------------------------------------------------------

def test_c06_minimal_embedding_rank_doubling():
    failures = []
    start = time.perf_counter()
    for k in range(1, 11):
        need(failures, chern_min_embedding_rank(k) == 2 * k,
             f"rank at k={k} is not {2 * k}")
        total = SquareZeroPoly.one(k)
        inverse = SquareZeroPoly.one(k)
        for i in range(1, k + 1):
            total = total.mul(
                SquareZeroPoly.one(k).add(SquareZeroPoly.linear(k, i)))
            inverse = inverse.mul(
                SquareZeroPoly.one(k).add(SquareZeroPoly.linear(k, i, -1)))
        need(failures, total.mul(inverse).is_one,
             f"class times inverse class is not 1 at k={k}")
    elapsed = time.perf_counter() - start
    need(failures, elapsed < 1.0, f"too slow: {elapsed:.2f}s")
    gate("C06", "minimal embedding rank doubling", failures)


# ----------------------------------------------------------------------
# C07: the plain-tower certificate and its re-verifier
# ----------------------------------------------------------------------

def rows_by_name(report):
    return {row.name: row for row in report.ledger}


def test_c07_tower_witness_certificate():
    failures = []
    t = finite_tables("1/2", "1/3", depth=3)
    w = search_witness(t, Fraction(1, 4), crossed=False)
    need(failures, (w.n, w.M) == (1, 7), f"witness is ({w.n}, {w.M})")
    rows = rows_by_name(w)
    expect = [("rank bound (m=2)", 133, 143),
              ("trace bound (m=2)", Fraction(7, 5), Fraction(5, 4)),
              ("rank bound (m=3)", 63973, 68543)]
    for name, lhs, rhs in expect:
        row = rows.get(name)
        need(failures, row is not None and (row.lhs, row.rhs) == (lhs, rhs)
             and row.holds, f"ledger row {name} is off: {row}")
    need(failures, all(row.holds for row in w.ledger),
         "some ledger row fails")

    doc = json.loads(json.dumps(w.to_json_obj()))
    need(failures, verify_witness_json(doc).ok,
         "re-verifier rejects the emitted certificate")
    mutations = list(leaf_mutations(doc))
    need(failures, len(mutations) > 30, "mutation walk looks too small")
    for path, value in mutations:
        broken = apply_mutation(doc, path, value)
        if verify_witness_json(broken).ok:
            failures.append(f"mutation survived at {path} -> {value!r}")
    need(failures, verify_witness_json(doc).ok,
         "original certificate damaged by the mutation walk")
    gate("C07", "tower witness certificate", failures)


# ----------------------------------------------------------------------
# C08: crossed upper bounds converge onto the small target
# ----------------------------------------------------------------------

def test_c08_crossed_upper_bound_convergence():
    failures = []
    t = finite_tables("1/2", "1/3", depth=8)
    r_prime = Fraction(1, 3)
    bounds = [crossed_rc_upper(t, n) for n in range(9)]
    for ub in bounds:
        n = ub.level
        excess = ub.b_part - r_prime
        cap = t.h_prime(n) * (t.gamma(n) - t.kappa_prime) \
            + Fraction(t.params.d, 2 * t.r(n))
        need(failures, 0 <= excess,
             f"level {n}: excess {excess} is negative")
        need(failures, excess <= cap,
             f"level {n}: excess {excess} above its cap {cap}")
        need(failures, ub.c_part > 0, f"level {n}: torus part not positive")
    for a, b in zip(bounds, bounds[1:]):
        need(failures, b.c_part < a.c_part,
             f"torus part not strictly decreasing at {b.level}")
    need(failures, bounds[-1].c_part < Fraction(1, 100),
         f"torus part still large at depth 8: {bounds[-1].c_part}")
    rep = check_upper_bound_gap(t)
    need(failures, rep.ok, f"gap report: {rep.first_failure}")
    gate("C08", "crossed upper bound convergence", failures)


# ----------------------------------------------------------------------
# C09: the crossed certificate and its trace cross-checks
# ----------------------------------------------------------------------

def test_c09_crossed_witness_certificate():
    failures = []
    t = finite_tables("1/2", "1/3", depth=4)
    w = search_witness(t, Fraction(1, 4), crossed=True)
    need(failures, (w.n, w.M) == (2, 119), f"witness is ({w.n}, {w.M})")
    need(failures, all(row.holds for row in w.ledger),
         "some ledger row fails")
    doc = json.loads(json.dumps(w.to_json_obj()))
    need(failures, verify_witness_json(doc).ok,
         "re-verifier rejects the crossed certificate")

    # the big row carries rank 2^(md) M r(m)/r(2), the small row M r(m)/r(2);
    # both normalize to 119/r(2), so every convex weighting does too
    lambdas = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))
    expected = Fraction(119, t.r(2))
    hits = {lam: 0 for lam in lambdas}
    for m in range(2, t.depth + 1):
        growth = t.r(m) // t.r(2)
        big = Fraction(119 * growth * t.torus_points(m),
                       t.r(m) * t.torus_points(m))
        small = Fraction(119 * growth, t.r(m))
        need(failures, big == small, f"row traces differ at m={m}")
        for lam in lambdas:
            mixed = lam * big + (1 - lam) * small
            need(failures, mixed == expected,
                 f"weighted trace lambda={lam} (m={m}): {mixed}")
            hits[lam] += 1
    for lam in lambdas:
        need(failures, hits[lam] >= 2, f"no weighted rows for lambda={lam}")
    gate("C09", "crossed witness certificate", failures)


# ----------------------------------------------------------------------
# C10: both growing-denominator regimes
# ----------------------------------------------------------------------

def test_c10_infinite_growth_regimes():
    failures = []
    half_inf = TargetParams(r=INF, r_prime=ExtendedRational(
        Fraction(5, 2)), d=1)
    both_inf = TargetParams(r=INF, r_prime=INF, d=1,
                            c_infinite=Fraction(1, 2))
    frozen = {
        "one finite": {False: {1: (1, 300), 2: (2, 16737891)},
                       True: {1: (1, 53), 2: (1, 66)}},
        "both infinite": {False: {1: (2, 13776),
                                  2: (4, 882919023789517220351)},
                          True: {1: (2, 13776),
                                 2: (4, 882919023789517220351)}},
    }
    for tag, params in (("one finite", half_inf), ("both infinite", both_inf)):
        t = build_tables(params, 6)
        need(failures, t.h(0) == 1, f"{tag}: h(0) is {t.h(0)}")
        shrink = [Fraction(t.h(n), t.torus_points(n)) for n in range(7)]
        for a, b in zip(shrink, shrink[1:]):
            need(failures, b <= a, f"{tag}: h over lattice size grew")
        need(failures, shrink[6] < Fraction(1, 4),
             f"{tag}: ratio at depth 6 is {shrink[6]}")
        rep = verify_tower(t, lattice_maps(t))
        need(failures, rep.ok, f"{tag}: {rep.first_failure}")
        for crossed in (False, True):
            for rho in (1, 2):
                w = search_witness(t, Fraction(rho), crossed=crossed)
                want = frozen[tag][crossed][rho]
                need(failures, (w.n, w.M) == want,
                     f"{tag}, crossed={crossed}, rho={rho}: "
                     f"({w.n}, {w.M}) instead of {want}")
                need(failures, all(row.holds for row in w.ledger),
                     f"{tag}, crossed={crossed}, rho={rho}: ledger fails")
                doc = json.loads(json.dumps(w.to_json_obj()))
                need(failures, verify_witness_json(doc).ok,
                     f"{tag}, crossed={crossed}, rho={rho}: verifier rejects")
    gate("C10", "infinite growth regimes", failures)


# ----------------------------------------------------------------------
# C11: diagram export and re-imports
# ----------------------------------------------------------------------

def test_c11_diagram_export_round_trip():
    failures = []
    t = finite_tables("1/2", "1/3", depth=4)
    text = export_diagram(t)
    obj = json.loads(text)
    need(failures, verify_document(obj, DIAGRAM_DOCUMENT).ok,
         "the export fails its re-verification")
    parsed = build_diagram_document(
        declared_tables(obj, int(obj["depthRange"]["hi"])))
    need(failures, parsed == build_diagram_document(t),
         "parsed document differs from a fresh build")
    need(failures, diagram_to_json_obj(parsed) == obj,
         "serializing the parsed document changes it")
    need(failures,
         render_dot(parsed) == render_dot(build_diagram_document(t)),
         "graph text from the parsed document differs")
    gate("C11", "diagram export round trip", failures)
