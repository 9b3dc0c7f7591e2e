"""Witness certificates: search, exact ledger, serialization, re-verification.

A witness certificate asserts that a chosen rho is a lower bound for the
comparison radius of the limit (of the tower itself, or of its transform
under the shift action).  It consists of a level n, an integer M, and a
ledger of exact inequalities showing that M normalized matrix units at
level n form, at every deeper level m, a projection pair whose trace gap
exceeds rho while its trivial summand stays below the embedding threshold.

The search is canonical: smallest admissible n starting from 1, then the
smallest M inside the open window that n guarantees to contain an integer.
Two flavors exist:

  * target radius finite: the pattern is anchored at level 0 with the
    constant multiplier h(0), and the window is
    rho/h0 + 1 < M/(h0 r(n)) < kappa + 1;
  * target radius infinite: the pattern is anchored at the chosen level n
    with the growing multiplier h(n), and the window is
    rho + h(n) s(n) < M/r(n) < c h(n) + h(n) s(n),
    where c is the exact limit of s(m)/r(m), available in closed form as
    the generating target of the d-sequence.

A certificate is re-verified by rebuilding it from nothing but its stated
inputs (params, depth, rho, crossed flag, h-sequence override) and
requiring the presented document to equal the rebuilt one structurally.
Any single-field mutation, a flipped ``holds`` bit included, therefore
fails verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .comparison import projection_pair
from .rational import fraction_from_json, fraction_to_json
from .report import Checker, CheckReport
from .sequences import (FORMAT_VERSION, DocumentKind, GrowthTables,
                        TargetParams, h_override_from_json, verify_document)

RELATIONS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    "=": lambda a, b: a == b,
}


@dataclass(frozen=True)
class LedgerRow:
    """One exact comparison; ``holds`` is always the recomputed truth."""

    name: str
    lhs: Fraction
    relation: str
    rhs: Fraction
    holds: bool

    @classmethod
    def compare(cls, name: str, lhs, relation: str, rhs) -> "LedgerRow":
        lhs, rhs = Fraction(lhs), Fraction(rhs)
        return cls(name, lhs, relation, rhs, RELATIONS[relation](lhs, rhs))

    def to_json_obj(self) -> dict[str, Any]:
        return {"name": self.name, "lhs": fraction_to_json(self.lhs),
                "relation": self.relation, "rhs": fraction_to_json(self.rhs),
                "holds": self.holds}


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


# ----------------------------------------------------------------------
# canonical search
# ----------------------------------------------------------------------

def search_witness(tables: GrowthTables, rho: Fraction,
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


# ----------------------------------------------------------------------
# re-verification
# ----------------------------------------------------------------------

def _read_witness(doc: dict) -> tuple:
    if not isinstance(doc.get("crossed"), bool):
        raise ValueError("crossed flag must be a boolean")
    params_obj = doc["params"]
    if isinstance(params_obj, dict) and "rPrime" not in params_obj:
        params_obj = {**params_obj, "rPrime": params_obj.get("r")}
    params = TargetParams.from_json_obj(params_obj)
    depth, rho = int(doc["depth"]), fraction_from_json(doc["rho"])
    return params, depth, h_override_from_json(doc), rho, doc["crossed"]


def _regenerate_witness(tables: GrowthTables, rho: Fraction, crossed: bool
                        ) -> tuple[dict[str, Any], CheckReport]:
    canonical = search_witness(tables, rho, crossed)
    c = Checker()
    c.check("all ledger rows hold", canonical.all_hold)
    return canonical.to_json_obj(), c.report()


WITNESS_DOCUMENT = DocumentKind(
    tag="witness", parsed="document parses and recomputes",
    matches="matches canonical recomputation", strict=True,
    read=_read_witness, regenerate=_regenerate_witness)


def verify_witness_json(doc: Any) -> CheckReport:
    """Rebuild the certificate from its inputs and require equality.

    The presented document must match the canonical recomputation key for
    key, value for value; nothing in it is trusted.
    """
    return verify_document(doc, WITNESS_DOCUMENT)
