"""Independent recomputation of what `ahtower` emits, for the checks.

Nothing here imports `ahtower`.  The growth sequences are recomputed from the
recursions stated in the `ahtower.sequences` module docstring, in integer
cross-multiplication (no `Fraction` normalization), and every document the
benchmark reads back is compared against them:

  * tables:  d, l, r, s, d', s' and h, entry by entry;
  * witness: every ledger row re-evaluated from its serialized operands, and
             (n, M) checked against the window of the `ahtower.certificates`
             docstring, with n the least admissible level and M the least
             integer inside the window;
  * diagram: cComponents = 2^(dn), both matrix sizes = r(n), and the DOT
             drawing's node and edge counts derived from the map structure;
  * chern:   rank(k) = 2k for every k.

Each check returns a list of problems; an empty list means the document
passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

RELATIONS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    "=": lambda a, b: a == b,
}


def parse_target(text: str | None) -> Fraction | None:
    """`"p/q"` or `"p"` as a Fraction; `"inf"` (or None) as None."""
    if text is None or text == "inf":
        return None
    return Fraction(text)


@dataclass(frozen=True)
class Construction:
    """Targets of one construction: kappa, kappa' and the h rules.

    ``h_const`` / ``h_prime_const`` are None when that multiplier grows as
    h(n) = n + 1 (the default growing rule).
    """

    d: int
    kappa: Fraction
    kappa_prime: Fraction
    h_const: int | None
    h_prime_const: int | None
    r: Fraction | None
    r_prime: Fraction | None

    @classmethod
    def from_targets(cls, r: Fraction | None, r_prime: Fraction | None,
                     d: int, c: Fraction = Fraction(1, 2)) -> "Construction":
        if r is not None:
            h = math.floor(r) + 1
            return cls(d, r / h, r_prime / h, h, h, r, r_prime)
        if r_prime is not None:
            hp = math.floor(r_prime) + 1
            return cls(d, r_prime / hp, r_prime / hp, None, hp, r, r_prime)
        return cls(d, c, c, None, None, None, None)

    def h(self, n: int) -> int:
        return n + 1 if self.h_const is None else self.h_const

    def h_prime(self, n: int) -> int:
        return n + 1 if self.h_prime_const is None else self.h_prime_const


@dataclass(frozen=True)
class Sequences:
    """d, l, r, s, d', s' for levels 0..depth (d[0] = d'[0] = 0 unused)."""

    d: list[int]
    l: list[int]
    r: list[int]
    s: list[int]
    dp: list[int]
    sp: list[int]


def sequences(con: Construction, depth: int) -> Sequences:
    """The recursions of the `ahtower.sequences` docstring, in integers.

    With kappa = p/q and ratio(n-1) = s(n-1)/r(n-1), the least k with
    k/(k + pad) > kappa/ratio(n-1) is  p*r*pad // (q*s - p*r) + 1.  With
    kappa' = p'/q' < kappa the least m with m*gamma(n-1)*rho(n)/l(n) >= kappa'
    simplifies (r(n) = r(n-1) l(n)) to  ceil(p'*q*s(n) / (p*q'*s'(n-1))).
    """
    p, q = con.kappa.numerator, con.kappa.denominator
    pp, qp = con.kappa_prime.numerator, con.kappa_prime.denominator
    d_, l_, r_, s_, dp_, sp_ = [0], [1], [1], [1], [0], [1]
    for n in range(1, depth + 1):
        pad = 1 + 2 ** (con.d * (n - 1))
        big_r, big_s = r_[-1], s_[-1]
        k = p * big_r * pad // (q * big_s - p * big_r) + 1
        d_.append(k)
        l_.append(k + pad)
        r_.append(big_r * (k + pad))
        s_.append(big_s * k)
        if con.kappa_prime == con.kappa:
            m = k
        else:
            m = max(1, -(-(pp * q * s_[-1]) // (p * qp * sp_[-1])))
        dp_.append(m)
        sp_.append(sp_[-1] * m)
    return Sequences(d_, l_, r_, s_, dp_, sp_)


# ----------------------------------------------------------------------
# documents
# ----------------------------------------------------------------------

def fraction_of(obj) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def construction_of(params: dict) -> Construction:
    """The construction named by a document's ``params`` object."""
    def target(key):
        value = params.get(key, params.get("r"))
        return None if value == "inf" else fraction_of(value)
    c = fraction_of(params["cInfinite"]) if "cInfinite" in params \
        else Fraction(1, 2)
    return Construction.from_targets(target("r"), target("rPrime"),
                                     int(params["d"]), c)


def check_tables(doc: dict) -> list[str]:
    """Compare every sequence of a tables document with the recomputation."""
    con = construction_of(doc["params"])
    depth = int(doc["depth"])
    seq = sequences(con, depth)
    want = {
        "d": seq.d[1:], "l": seq.l[1:], "r": seq.r, "s": seq.s,
        "dPrime": seq.dp[1:], "sPrime": seq.sp,
        "h": [con.h(n) for n in range(depth + 1)],
        "hPrime": [con.h_prime(n) for n in range(depth + 1)],
    }
    problems = []
    for key, values in want.items():
        got = [int(x) for x in doc[key]]
        if got != values:
            bad = next((i for i, (a, b) in enumerate(zip(got, values))
                        if a != b), min(len(got), len(values)))
            problems.append(f"tables {key}[{bad}] differs from recomputation")
    if fraction_of(doc["kappa"]) != con.kappa \
            or fraction_of(doc["kappaPrime"]) != con.kappa_prime:
        problems.append("tables kappa/kappa' differ from recomputation")
    return problems


def witness_side(con: Construction, crossed: bool):
    """(radius, kap, s-sequence selector, h) for one certificate flavour."""
    if crossed:
        return con.r_prime, con.kappa_prime, "sp", con.h_prime
    return con.r, con.kappa, "s", con.h


def admissible(con: Construction, seq: Sequences, crossed: bool,
               rho: Fraction, n: int) -> bool:
    """Whether level n opens a nonempty window for rho (certificates doc)."""
    radius, kap, _, h = witness_side(con, crossed)
    if radius is not None:
        return Fraction(1, h(0) * seq.r[n]) < kap - rho / h(0)
    return h(n) > rho / kap and Fraction(1, seq.r[n]) < kap * h(n) - rho


def window(con: Construction, seq: Sequences, crossed: bool, rho: Fraction,
           n: int) -> tuple[Fraction, Fraction]:
    """Open interval that M/(h0 r(n)) (finite) or M/r(n) (infinite) lies in."""
    radius, kap, s_key, h = witness_side(con, crossed)
    if radius is not None:
        return rho / h(0) + 1, kap + 1
    hs = h(n) * getattr(seq, s_key)[n]
    return rho + hs, kap * h(n) + hs


def check_witness(doc: dict) -> list[str]:
    """Re-evaluate the ledger and check (n, M) against the stated window."""
    problems = []
    for i, row in enumerate(doc["ledger"]):
        truth = RELATIONS[row["relation"]](fraction_of(row["lhs"]),
                                           fraction_of(row["rhs"]))
        if truth is not row["holds"] or not truth:
            problems.append(f"ledger[{i}] {row['name']!r} does not hold")
    con = construction_of(doc["params"])
    depth, crossed = int(doc["depth"]), doc["crossed"]
    rho, n, M = fraction_of(doc["rho"]), int(doc["n"]), int(doc["M"])
    seq = sequences(con, depth)
    least = next((k for k in range(1, depth + 1)
                  if admissible(con, seq, crossed, rho, k)), None)
    if n != least:
        problems.append(f"witness n={n}, least admissible level is {least}")
        return problems
    radius, _, _, h = witness_side(con, crossed)
    scale = h(0) * seq.r[n] if radius is not None else seq.r[n]
    lo, hi = window(con, seq, crossed, rho, n)
    if not lo < Fraction(M, scale) < hi:
        problems.append(f"witness M={M} outside its window at n={n}")
    if lo < Fraction(M - 1, scale):
        problems.append(f"witness M={M} is not the least in its window")
    if [int(m) for m in doc["checkedDepths"]] != list(range(n + 1, depth + 1)):
        problems.append("witness checkedDepths do not run from n+1 to depth")
    return problems


def check_diagram(doc: dict) -> list[str]:
    """Stage components and sizes against 2^(dn) and the recomputed r(n)."""
    con = construction_of(doc["params"])
    lo, hi = int(doc["depthRange"]["lo"]), int(doc["depthRange"]["hi"])
    seq = sequences(con, hi)
    problems = []
    for stage in doc["stages"]:
        n = int(stage["level"])
        if int(stage["cComponents"]) != 2 ** (con.d * n):
            problems.append(f"diagram stage {n} cComponents != 2^(dn)")
        if int(stage["cMatrixSize"]) != seq.r[n] \
                or int(stage["bMatrixSize"]) != seq.r[n]:
            problems.append(f"diagram stage {n} matrix sizes != r({n})")
    if [int(s["level"]) for s in doc["stages"]] != list(range(lo, hi + 1)):
        problems.append("diagram stages do not cover the band")
    return problems


def dot_counts(con: Construction, lo: int, hi: int) -> tuple[int, int]:
    """Node and edge counts of the drawing of levels lo..hi.

    Level n draws 2^(dn) C nodes and one B node.  The map out of level n
    sends, into each of the 2^(d(n+1)) C nodes above it, one projection edge
    plus one evaluation edge per C node and one from B below; into B it
    sends one evaluation edge per C node, one from B, and one edge per
    projection span (two spans when d'(n+1) < d(n+1), else one).
    """
    seq = sequences(con, hi)
    nodes = sum(2 ** (con.d * n) + 1 for n in range(lo, hi + 1))
    edges = 0
    for n in range(lo, hi):
        below, above = 2 ** (con.d * n), 2 ** (con.d * (n + 1))
        spans_into_b = 2 if seq.dp[n + 1] < seq.d[n + 1] else 1
        edges += above * (1 + below + 1) + below + 1 + spans_into_b
    return nodes, edges


def check_dot(text: str, doc: dict) -> list[str]:
    """Count the drawing's node and edge lines against `dot_counts`."""
    con = construction_of(doc["params"])
    lo, hi = int(doc["depthRange"]["lo"]), int(doc["depthRange"]["hi"])
    want_nodes, want_edges = dot_counts(con, lo, hi)
    edges = text.count(" -> ")
    nodes = text.count(" [label=")
    problems = []
    if nodes != want_nodes:
        problems.append(f"DOT has {nodes} nodes, expected {want_nodes}")
    if edges != want_edges:
        problems.append(f"DOT has {edges} edges, expected {want_edges}")
    if not (text.startswith("digraph tower {")
            and text.rstrip().endswith("}")):
        problems.append("DOT text is not one closed digraph")
    return problems


def check_chern(doc: dict) -> list[str]:
    ranks = [int(x) for x in doc["ranks"]]
    if len(ranks) != int(doc["maxK"]):
        return ["chern table length differs from maxK"]
    return [f"chern rank({k}) = {got}, not {2 * k}"
            for k, got in enumerate(ranks, start=1) if got != 2 * k]
