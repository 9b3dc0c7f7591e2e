"""Differential test: the one-window witness search against the search it
replaced, which stated the finite-radius and infinite-radius certificates
as two branches with their own n, M and ledger rows.  On drawn targets in
all three regimes, both sides, and rho below reach, out of reach and at or
above the radius, both give the same document or the same refusal."""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahtower.certificates import LedgerRow, search_witness
from ahtower.comparison import projection_pair
from ahtower.rational import ExtendedRational, fraction_to_json
from ahtower.sequences import (FORMAT_VERSION, GrowthTables, TargetParams,
                               build_tables, tables_from_cli)

from test_verify_reference import fractions, units

INF = ExtendedRational.infinite()


# -- the two-branch search, as it was ---------------------------------------

@dataclass(frozen=True)
class WitnessReport:
    """A complete certificate for one rho, ready to serialize."""

    params: TargetParams
    depth: int
    crossed: bool
    h_rule: str
    h_override: tuple[int, ...] | None
    rho: Fraction
    n: int
    M: int
    origin: int
    checked_depths: tuple[int, ...]
    ledger: tuple[LedgerRow, ...]

    @property
    def all_hold(self) -> bool:
        return all(row.holds for row in self.ledger)

    def to_json_obj(self) -> dict[str, Any]:
        params_obj = self.params.to_json_obj()
        if not self.crossed and not self.params.r.is_infinite:
            # the plain-tower ledger never reads the primed radius, so a
            # certificate that carried it would have one dead field
            del params_obj["rPrime"]
        obj: dict[str, Any] = {
            "formatVersion": FORMAT_VERSION,
            "kind": "witness",
            "params": params_obj,
            "depth": str(self.depth),
            "crossed": self.crossed,
            "hRule": self.h_rule,
            "rho": fraction_to_json(self.rho),
            "n": str(self.n),
            "M": str(self.M),
            "origin": str(self.origin),
            "checkedDepths": [str(m) for m in self.checked_depths],
            "ledger": [row.to_json_obj() for row in self.ledger],
        }
        if self.h_override is not None:
            obj["hSeqOverride"] = [str(x) for x in self.h_override]
        return obj


def search_witness_two_branch(tables: GrowthTables, rho: Fraction,
                              crossed: bool = False) -> WitnessReport:
    """Canonical witness for rho against the tower or its transform.

    The crossed flavor reads the primed sequences (h', s', kappa') and
    additionally records, at every checked level, that the companion block
    on the big row carries the same normalized trace.
    """
    rho = Fraction(rho)
    if rho <= 0:
        raise ValueError("rho must be positive")
    side = tables.side(crossed)
    if not side.radius.is_infinite and not rho < side.radius.finite_value:
        raise ValueError(f"rho must stay below the target radius {side.radius}")

    t = tables
    d = t.params.d
    kap, s_of, h_of = side.kappa, side.s, side.h
    finite = not side.radius.is_infinite

    rows: list[LedgerRow] = []
    if finite:
        h0 = h_of(0)
        gap = kap - rho / h0
        n = next((n for n in range(1, t.depth + 1)
                  if Fraction(1, h0 * t.r(n)) < gap), None)
        if n is None:
            raise ValueError("no witness at this depth; regenerate deeper tables")
        M = math.floor(t.r(n) * (rho + h0)) + 1
        origin = 0
        rows.append(LedgerRow.compare(f"depth window (n={n})",
                                      Fraction(1, h0 * t.r(n)), "<", gap))
        norm = Fraction(M, h0 * t.r(n))
        rows.append(LedgerRow.compare(f"normalized rank floor (n={n})",
                                      rho / h0 + 1, "<", norm))
        rows.append(LedgerRow.compare(f"normalized rank ceiling (n={n})",
                                      norm, "<", kap + 1))
    else:
        c = kap            # exact limit of s(m)/r(m), by construction
        n = next((n for n in range(1, t.depth + 1)
                  if h_of(n) > rho / c
                  and Fraction(1, t.r(n)) < c * h_of(n) - rho), None)
        if n is None:
            raise ValueError("no witness at this depth; regenerate deeper tables")
        M = math.floor(t.r(n) * (rho + h_of(n) * s_of(n))) + 1
        origin = n
        rows.append(LedgerRow.compare(f"multiplier floor (n={n})",
                                      h_of(n), ">", rho / c))
        rows.append(LedgerRow.compare(f"depth window (n={n})",
                                      Fraction(1, t.r(n)), "<",
                                      c * h_of(n) - rho))
        norm = Fraction(M, t.r(n))
        rows.append(LedgerRow.compare(f"normalized rank floor (n={n})",
                                      rho + h_of(n) * s_of(n), "<", norm))
        rows.append(LedgerRow.compare(f"normalized rank ceiling (n={n})",
                                      norm, "<", c * h_of(n) + h_of(n) * s_of(n)))
    # the pattern's normalized trace; s(0) = 1 at the level-0 anchor
    base_trace = h_of(origin) * s_of(origin)

    checked = tuple(range(n + 1, t.depth + 1))
    for m in checked:
        small_rank = M * (t.r(m) // t.r(n))
        if not finite:
            rows.append(LedgerRow.compare(f"ratio floor (m={m})",
                                          kap * t.r(m), "<=", s_of(m)))
        rows.append(LedgerRow.compare(
            f"rank bound (m={m})", small_rank, "<",
            projection_pair(t, m, origin, crossed).threshold))
        rows.append(LedgerRow.compare(f"trace bound (m={m})",
                                      Fraction(M, t.r(n)), ">",
                                      base_trace + rho))
        if crossed:
            big_rank = M * (t.r(m) // t.r(n)) * 2 ** (d * m)
            big_trace = Fraction(big_rank, t.r(m) * 2 ** (d * m))
            rows.append(LedgerRow.compare(f"trace match (m={m})",
                                          big_trace, "=",
                                          Fraction(small_rank, t.r(m))))

    return WitnessReport(params=t.params, depth=t.depth, crossed=crossed,
                         h_rule=t.h_rule,
                         h_override=t.h_override,
                         rho=rho, n=n, M=M, origin=origin,
                         checked_depths=checked, ledger=tuple(rows))


# -- the comparison ----------------------------------------------------------

def outcome(search, tables, rho, crossed):
    """The document a search writes, or the message it refuses with."""
    try:
        return search(tables, rho, crossed).to_json_obj()
    except ValueError as exc:
        return ("refused", str(exc))


def assert_same(tables, rho, crossed):
    want = outcome(search_witness_two_branch, tables, rho, crossed)
    assert outcome(search_witness, tables, rho, crossed) == want
    return want


def finite(x):
    return ExtendedRational(Fraction(x))


# named pairs: r = r' (kappa' = kappa) and r = 7/3 (kappa = 7/9) included
NAMED = [(finite("1/2"), finite("1/3")), (finite(5), finite("1/7")),
         (finite(2), finite(1)), (finite("7/3"), finite("7/3")),
         (finite("1/2"), finite("1/2")), (INF, finite("5/2")),
         (INF, finite(2)), (INF, INF)]


@st.composite
def witness_cases(draw):
    regime = draw(st.sampled_from(["named", "finite-finite",
                                   "infinite-finite", "infinite-infinite"]))
    d = draw(st.integers(1, 3))
    c = {}
    if regime == "named":
        r, r_prime = draw(st.sampled_from(NAMED))
    elif regime == "finite-finite":
        r = finite(draw(fractions))
        r_prime = finite(r.finite_value * draw(st.fractions(
            min_value=Fraction(1, 8), max_value=Fraction(1),
            max_denominator=8)))
    elif regime == "infinite-finite":
        r, r_prime = INF, finite(draw(fractions))
    else:
        r, r_prime, c = INF, INF, {"c_infinite": draw(units)}
    crossed = draw(st.booleans())
    radius = r_prime if crossed else r
    # rho as a share of the radius, up to 3/2 of it or exactly it; of 6
    # when the radius is infinite, where h(n) = n + 1 puts rho >= c*9 out
    # of reach at depth 8
    scale = 6 if radius.is_infinite else radius.finite_value
    share = draw(st.one_of(
        st.just(Fraction(1)),
        st.fractions(min_value=Fraction(1, 50), max_value=Fraction(3, 2),
                     max_denominator=50)))
    params = TargetParams(r, r_prime, d, **c)
    return params, draw(st.integers(1, 8)), scale * share, crossed


@given(witness_cases())
@settings(max_examples=300, deadline=None)
def test_search_matches_two_branch_search(case):
    params, depth, rho, crossed = case
    assert_same(build_tables(params, depth), rho, crossed)


@pytest.mark.parametrize("r,r_prime", [("1/2", "1/3"), ("5", "1/7"),
                                       ("inf", "5/2"), ("inf", "inf")])
@pytest.mark.parametrize("crossed", [False, True])
def test_every_outcome_is_reached(r, r_prime, crossed):
    # a witness, and the refusal past the side's reach: at the radius when
    # it is finite, for want of depth when it is infinite
    tables = tables_from_cli(r, r_prime, d=1, depth=6)
    radius = tables.side(crossed).radius
    top = Fraction(6) if radius.is_infinite else radius.finite_value
    got = [assert_same(tables, rho, crossed)
           for rho in (top / 50, top, Fraction(0))]
    assert isinstance(got[0], dict)
    assert got[1][1].startswith("no witness" if radius.is_infinite
                                else "rho must stay below")
    assert got[2] == ("refused", "rho must be positive")


@pytest.mark.parametrize("crossed", [False, True])
def test_h_seq_override_matches(crossed):
    tables = tables_from_cli("inf", "inf", d=1, depth=9,
                             h_seq="1,2,4,8,16,32,64,128,256,512")
    got = assert_same(tables, Fraction(100), crossed)
    assert got["n"] == "8" and "hSeqOverride" in got
