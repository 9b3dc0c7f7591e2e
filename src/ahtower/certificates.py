"""Witness certificates: search, exact ledger, serialization, re-verification.

A witness certificate asserts that a chosen rho is a lower bound for the
comparison radius of the limit (of the tower itself, or of its transform
under the shift action).  It consists of a level n, an integer M, and a
ledger of exact inequalities showing that M normalized matrix units at
level n form, at every deeper level m, a projection pair whose trace gap
exceeds rho while its trivial summand stays below the embedding threshold.

The search is canonical: smallest admissible n starting from 1, then the
smallest M inside the open window that n guarantees to contain an integer.
There is one window.  The pattern is anchored at an origin o: o = 0 when
the side's radius is finite, o = n when it is infinite.  With H = h(o)
and the pattern's normalized trace T = H s(o), n is the least level with
1/r(n) < kappa H - rho, M = floor(r(n) (rho + T)) + 1, and the window is
rho + T < M/r(n) < kappa H + T, where kappa is the exact limit of
s(m)/r(m).  The finite window is the infinite one at o = 0, normalized by
h(0): s(0) = 1 gives rho/h0 + 1 < M/(h0 r(n)) < kappa + 1.  For an
infinite radius the ledger first records h(n) > rho/kappa, which the
depth window implies.

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
from typing import Any, Callable

from .comparison import projection_pair
from .rational import IntLeaf, fraction_from_json, fraction_to_json, text_int
from .report import Checker, CheckReport
from .sequences import (DocumentKind, GrowthTables, Side, declared_tables,
                        verify_document)

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

    def to_json_obj(self, leaf: Callable[[int], Any] = str
                    ) -> dict[str, Any]:
        return {"name": self.name, "lhs": fraction_to_json(self.lhs, leaf),
                "relation": self.relation,
                "rhs": fraction_to_json(self.rhs, leaf), "holds": self.holds}


def _origin(side: Side, n: int) -> int:
    """The pattern's anchor level for a witness at level n."""
    return n if side.radius.is_infinite else 0


@dataclass(frozen=True)
class WitnessReport:
    """A complete certificate for one rho, ready to serialize."""

    tables: GrowthTables
    crossed: bool
    rho: Fraction
    n: int
    M: int
    ledger: tuple[LedgerRow, ...]

    @property
    def origin(self) -> int:
        return _origin(self.tables.side(self.crossed), self.n)

    @property
    def checked_depths(self) -> tuple[int, ...]:
        return tuple(range(self.n + 1, self.tables.depth + 1))

    @property
    def all_hold(self) -> bool:
        return all(row.holds for row in self.ledger)

    def to_json_obj(self, leaf: Callable[[int], Any] = str
                    ) -> dict[str, Any]:
        """The certificate, each integer of the ledger's operands made by
        ``leaf``: ``str`` to write, ``IntLeaf`` to compare."""
        t = self.tables
        obj: dict[str, Any] = {
            **WITNESS_DOCUMENT.head(t),
            "depth": str(t.depth),
            "crossed": self.crossed,
            "rho": fraction_to_json(self.rho),
            "n": str(self.n),
            "M": str(self.M),
            "origin": str(self.origin),
            "checkedDepths": [str(m) for m in self.checked_depths],
            "ledger": [row.to_json_obj(leaf) for row in self.ledger],
        }
        if not self.crossed and not t.params.r.is_infinite:
            # the plain-tower ledger never reads the primed radius, so a
            # certificate that carried it would have one dead field
            del obj["params"]["rPrime"]
        return obj


def _reduced(num: int, den: int, factor: int) -> Fraction:
    """num/den, where ``factor`` divides both (else the plain quotient):
    two exact divisions, with small quotients, leave a small gcd.

    >>> _reduced(6 * 10**40, 4 * 10**40, 10**40)
    Fraction(3, 2)
    """
    (a, x), (b, y) = divmod(num, factor), divmod(den, factor)
    return Fraction(num, den) if x or y else Fraction(a, b)


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
    infinite = side.radius.is_infinite
    if not infinite and not rho < side.radius.finite_value:
        raise ValueError(f"rho must stay below the target radius {side.radius}")

    t = tables
    kap, s_of, h_of = side.kappa, side.s, side.h
    n = next((n for n in range(1, t.depth + 1)
              if Fraction(1, t.r(n)) < kap * h_of(_origin(side, n)) - rho),
             None)
    if n is None:
        raise ValueError("no witness at this depth; regenerate deeper tables")
    origin = _origin(side, n)
    H = h_of(origin)
    T = H * s_of(origin)            # the pattern's trace; s(0) = 1
    M = math.floor(t.r(n) * (rho + T)) + 1

    # the window, divided by h(0) for a finite radius
    u = 1 if infinite else H
    norm = Fraction(M, u * t.r(n))
    window = [("multiplier floor", H, ">", rho / kap)] if infinite else []
    window += [("depth window", Fraction(1, u * t.r(n)), "<",
                (kap * H - rho) / u),
               ("normalized rank floor", (rho + T) / u, "<", norm),
               ("normalized rank ceiling", norm, "<", (kap * H + T) / u)]
    rows = [LedgerRow.compare(f"{name} (n={n})", *comparison)
            for name, *comparison in window]

    trace, floor = Fraction(M, t.r(n)), rho + T
    for m in range(n + 1, t.depth + 1):
        block = t.r(m) // t.r(n)
        small_rank = M * block
        if infinite:
            rows.append(LedgerRow.compare(f"ratio floor (m={m})",
                                          kap * t.r(m), "<=", s_of(m)))
        rows.append(LedgerRow.compare(
            f"rank bound (m={m})", small_rank, "<",
            projection_pair(t, m, origin, crossed).threshold))
        rows.append(LedgerRow.compare(f"trace bound (m={m})", trace, ">",
                                      floor))
        if crossed:
            # r(m)/r(n) divides both ranks and r(m), and 2^(md) the big
            # pair too: dividing them out leaves gcd(M, r(n)) to take
            points = t.torus_points(m)
            big_rank = small_rank * points
            rows.append(LedgerRow.compare(
                f"trace match (m={m})",
                _reduced(big_rank, t.r(m) * points, block * points), "=",
                _reduced(small_rank, t.r(m), block)))

    return WitnessReport(tables=t, crossed=crossed, rho=rho, n=n, M=M,
                         ledger=tuple(rows))


# ----------------------------------------------------------------------
# re-verification
# ----------------------------------------------------------------------

def _read_witness(doc: dict) -> tuple:
    if not isinstance(doc.get("crossed"), bool):
        raise ValueError("crossed flag must be a boolean")
    depth, rho = text_int(doc["depth"]), fraction_from_json(doc["rho"])
    params = doc["params"]
    if isinstance(params, dict) and "rPrime" not in params:
        # the dead field the writer leaves out: r' defaults to r
        doc = {**doc, "params": {**params, "rPrime": params.get("r")}}
    return declared_tables(doc, depth), rho, doc["crossed"]


def _regenerate_witness(tables: GrowthTables, rho: Fraction, crossed: bool
                        ) -> tuple[dict[str, Any], CheckReport]:
    canonical = search_witness(tables, rho, crossed)
    c = Checker()
    c.check("all ledger rows hold", canonical.all_hold)
    return canonical.to_json_obj(IntLeaf), c.report()


WITNESS_DOCUMENT = DocumentKind(
    tag="witness", parsed="document parses and recomputes",
    matches="matches canonical recomputation",
    passed="witness certificate: {entries} checks pass", strict=True,
    read=_read_witness, regenerate=_regenerate_witness)


def verify_witness_json(doc: Any) -> CheckReport:
    """Rebuild the certificate from its inputs and require equality.

    The presented document must match the canonical recomputation key for
    key, value for value; nothing in it is trusted.
    """
    return verify_document(doc, WITNESS_DOCUMENT)
