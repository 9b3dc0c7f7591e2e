"""Governing integer sequences for the recursive tower.

The tower is an inductive limit built one level at a time, and so are its
tables: `levels` computes the row of level n, that is d(n), l(n), r(n),
s(n), d'(n) and s'(n), from the row of level n-1 alone.
d(n) is chosen against a rational ratio target kappa in (0,1), and d'(n)
against a target kappa' <= kappa.  The definitions, in exact arithmetic,
with d the torus rank and pad(n) = 1 + 2^(d*n - d) for n >= 1:

    l(n)     = d(n) + pad(n)
    r(n)     = prod_{k<=n} l(k),  s(n) = prod_{k<=n} d(k),
    s'(n)    = prod_{k<=n} d'(k)   (r = s = s' = 1 at level 0)
    ratio(n) = s(n)/r(n)           (running ratio, decreases to kappa)
    d(n)     = least k with ratio(n-1) * k/(k + pad(n)) > kappa

and, when kappa' < kappa, with gamma(n) = s'(n)/r(n) and rho(n) =
kappa/ratio(n), so that gamma(n)*rho(n) = kappa*s'(n)/s(n):

    d'(n)    = least m with kappa * s'(n-1) * m / s(n) >= kappa'

while d'(n) = d(n) when kappa' = kappa.  r(n), s(n) and s'(n) are the
matrix sizes and ranks used by every later module.  These integers double
in bit length with every level, so no Fraction is multiplied out and none
is stored: a table holds the integer sequences alone, and
`GrowthTables.ratio` and `GrowthTables.gamma` build Fraction(s(n), r(n))
and Fraction(s'(n), r(n)) on demand, for the document writer and for
reading.

`levels` solves each "least" by one excess carried from row to row.  The
lemma below is a reconstruction from these definitions, not the paper's.
With kappa = p/q, kappa' = p'/q', a = p*q' and b = p'*q, let

    e(n) = q*s(n) - p*r(n),    e(0) = q - p,
    g(n) = a*s'(n) - b*s(n),   g(0) = a - b,

so that ratio(n) - kappa = e(n)/(q*r(n)) and gamma(n)*rho(n) - kappa' =
g(n)/(q*q'*s(n)).  Lemma: at every level n >= 1,

    d(n)  = floor(pad*p*r(n-1) / e(n-1)) + 1,
    e(n)  = d(n)*e(n-1) - pad*p*r(n-1),          1 <= e(n) <= e(n-1),
    d'(n) = d(n) - floor(d(n)*g(n-1) / (a*s'(n-1))),
    g(n)  = (d'(n) - d(n))*a*s'(n-1) + d(n)*g(n-1),
                                                 0 <= g(n) < a*s'(n-1).

Proof, by induction on n.  The d(n) predicate at k reads (k*e(n-1) -
pad*p*r(n-1)) / (q*r(n-1)*(k + pad)) > 0, and since r(n) = r(n-1)*l(n)
and s(n) = s(n-1)*d(n), its numerator at k = d(n) is e(n).  As e(n-1) >= 1
(e(0) = q - p >= 1 since kappa < 1), the least such k is the floor above
plus one, and the predicate at k = d(n) and its failure at k = d(n) - 1
read e(n) >= 1 and e(n) - e(n-1) <= 0.  On the crossed side the d'(n)
predicate at m reads a*s'(n-1)*m >= b*s(n) = d(n)*(a*s'(n-1) - g(n-1)),
whose least m is the d'(n) formula, and the predicate at m = d'(n) and its
failure at m - 1 read 0 <= g(n) < a*s'(n-1).  Since 0 <= g(n-1) <
a*s'(n-1) (0 <= g(0) = a - b < a as 0 < kappa' <= kappa, and s' does not
fall), the floor lies in [0, d(n)), so 1 <= d'(n) <= d(n).

So e(n) never grows, and ratio(n) - kappa <= (q - p)/(q*r(n)) is an exact
rate at every level; at kappa = 1/2, e is 1 throughout.  Where g(n-1) = 0,
d'(n) = d(n) and g(n) = 0 with no division: at r = 1/2, r' = 1/3 that
holds from level 2 on.  Each row is certified by its bounds on e(n) and
g(n), and the window gamma(n)*rho(n) < kappa' + 1/l(n) by g(n)*l(n) <
q*q'*s(n).  Only the products r(n-1)*l(n), s(n-1)*d(n), s'(n-1)*d'(n) and
the d' division where g(n-1) != 0 take two big operands.

`verify_tables` re-checks every step independently of `levels`, on
integers too: it reads the stored sequences, forms e(n) from them, and
compares each quotient of the recursion on its (s, r) pair, so it takes no
gcd (its docstring lists the forms).  The crossed side's window check
reads the same forms.

Targets come from a triple (r, r', d) of requested comparison radii where
each radius may be "inf":

  * both finite: h = least integer > r, kappa = r/h, kappa' = r'/h,
    and the multiplicity sequences h(n) = h'(n) = h are constant;
  * r infinite, r' finite: h' = least integer > r', kappa = kappa' = r'/h',
    h'(n) = h' constant while h(n) grows;
  * both infinite: kappa = kappa' = a free constant c in (0,1), both h
    sequences grow.

Growing h-sequences default to h(n) = n + 1, which satisfies the three
constraints that matter (h(0) = 1, nondecreasing, h(n)/2^(nd) -> 0).
`levels` does not end; `build_tables` stores its rows 0..depth as
columns beside the inputs (params, depth, an explicit h), so a table of
depth k is the first k + 1 rows of any deeper one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count, islice
from typing import Any, Callable, Iterator, NamedTuple

from .rational import (ExtendedRational, IntLeaf, cross_sign,
                       fraction_from_json, fraction_to_json, ints_from_json,
                       ints_to_json, parse_fraction, quotient_sign,
                       quotient_text, shown_text, text_int)
from .report import Checker, CheckReport, first_difference

REGIME_FINITE_FINITE = "finite-finite"
REGIME_INFINITE_FINITE = "infinite-finite"
REGIME_INFINITE_INFINITE = "infinite-infinite"

H_RULE_CONSTANT = "constant"
H_RULE_LINEAR = "linear"
H_RULE_EXPLICIT = "explicit"

DEFAULT_C_INFINITE = Fraction(1, 2)


# ----------------------------------------------------------------------
# parameters and rate targets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TargetParams:
    """Requested comparison radii (r for the tower, r' for its quotient by
    the shift action) and the torus rank d of the acting group."""

    r: ExtendedRational
    r_prime: ExtendedRational
    d: int
    c_infinite: Fraction = DEFAULT_C_INFINITE

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("torus rank d must be a positive integer")
        if not self.r_prime.is_infinite and self.r_prime.finite_value == 0:
            raise ValueError("r' must be positive")
        if self.r_prime > self.r:
            raise ValueError("r' must not exceed r")
        if not (0 < self.c_infinite < 1):
            raise ValueError("c must lie strictly between 0 and 1")

    @property
    def regime(self) -> str:
        if not self.r.is_infinite:
            return REGIME_FINITE_FINITE
        if not self.r_prime.is_infinite:
            return REGIME_INFINITE_FINITE
        return REGIME_INFINITE_INFINITE

    def to_json_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {
            "r": self.r.to_json(),
            "rPrime": self.r_prime.to_json(),
            "d": str(self.d),
        }
        if self.regime == REGIME_INFINITE_INFINITE:
            obj["cInfinite"] = fraction_to_json(self.c_infinite)
        return obj

    @classmethod
    def from_json_obj(cls, obj: Any) -> "TargetParams":
        if not isinstance(obj, dict):
            raise ValueError("params must be an object")
        kwargs: dict[str, Any] = {
            "r": ExtendedRational.from_json(obj["r"]),
            "r_prime": ExtendedRational.from_json(obj["rPrime"]),
            "d": text_int(obj["d"]),
        }
        if "cInfinite" in obj:
            kwargs["c_infinite"] = fraction_from_json(obj["cInfinite"])
        return cls(**kwargs)


def least_integer_above(x: Fraction) -> int:
    """Least integer strictly greater than x."""
    return math.floor(x) + 1


@dataclass(frozen=True)
class RateChoice:
    """Output of derive_kappa: the exact ratio targets and the h rules."""

    kappa: Fraction
    kappa_prime: Fraction
    h_base: int | None        # None means "growing"
    h_prime_base: int | None

    @property
    def h_grows(self) -> bool:
        return self.h_base is None

    @property
    def h_prime_grows(self) -> bool:
        return self.h_prime_base is None


def derive_kappa(params: TargetParams) -> RateChoice:
    """Turn requested radii into exact ratio targets in (0,1).

    A finite radius t is realized as t = kappa * h with h the least integer
    exceeding t, so kappa lands strictly inside (0,1); an infinite radius
    forces the corresponding h-sequence to grow instead.
    """
    regime = params.regime
    if regime == REGIME_FINITE_FINITE:
        r = params.r.finite_value
        h = least_integer_above(r)
        return RateChoice(Fraction(r, h),
                          Fraction(params.r_prime.finite_value, h), h, h)
    if regime == REGIME_INFINITE_FINITE:
        rp = params.r_prime.finite_value
        hp = least_integer_above(rp)
        kappa = Fraction(rp, hp)
        return RateChoice(kappa, kappa, None, hp)
    c = params.c_infinite
    return RateChoice(c, c, None, None)


# ----------------------------------------------------------------------
# the level recursion
# ----------------------------------------------------------------------

class Level(NamedTuple):
    """One row of the tables: d(n), l(n), r(n), s(n), d'(n) and s'(n).
    Level 0 holds the empty products l = r = s = s' = 1 and the
    placeholders d = d' = 0, which must not be read."""

    d: int
    l: int
    r: int
    s: int
    d_prime: int
    s_prime: int


def slot_padding(d: int, n: int) -> int:
    """Number of non-projection slots at level n: 1 + 2^(d*n-d) for n >= 1."""
    return 1 + 2 ** (d * n - d)


def levels(rate: RateChoice, d: int) -> Iterator[Level]:
    """The rows of one construction from level 0 on, each from the one
    before; the iterator does not end.  Where kappa' = kappa, d' = d and
    s' = s.

    Each row is solved from the excesses e and g of the row before and
    certified by the bounds of the module docstring's lemma.  At r = 1/2,
    r' = 1/3 (kappa = 1/2, kappa' = 1/3, so a = 3 and b = 2), e stays 1 and
    g is 0 from level 1 on:

    >>> rate = derive_kappa(TargetParams(ExtendedRational.parse("1/2"),
    ...                                  ExtendedRational.parse("1/3"), 1))
    >>> [(2 * row.s - row.r, 3 * row.s_prime - 2 * row.s)
    ...  for row in islice(levels(rate, 1), 6)]
    [(1, 1), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0)]
    """
    p, q = rate.kappa.numerator, rate.kappa.denominator
    collapses = rate.kappa_prime == rate.kappa
    a = p * rate.kappa_prime.denominator
    b = rate.kappa_prime.numerator * q
    den = q * rate.kappa_prime.denominator
    r = s = s_prime = 1
    e, g = q - p, a - b
    yield Level(0, 1, r, s, 0, s_prime)
    for n in count(1):
        pad = slot_padding(d, n)
        bar = pad * p * r
        dn = bar // e + 1
        e, last = dn * e - bar, e
        if not 1 <= e <= last:
            raise RuntimeError(f"e({n}) = {e} left [1, e({n - 1})]")
        ln = dn + pad
        r, s = r * ln, s * dn
        if collapses:
            m, s_prime = dn, s
        else:
            step = a * s_prime
            m = dn - dn * g // step if g else dn
            g = (m - dn) * step + dn * g
            s_prime *= m
            # gamma(n)*rho(n) - kappa' is g/(den*s(n))
            if not (0 <= g < step and g * ln < den * s):
                raise RuntimeError(f"gamma*rho window missed at level {n}")
        yield Level(dn, ln, r, s, m, s_prime)


# ----------------------------------------------------------------------
# the assembled table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Side:
    """What one side of the construction reads: the radius, the ratio
    target and the h and s sequences.  The tower reads (r, kappa, h, s),
    its transform by the shift action (r', kappa', h', s')."""

    radius: ExtendedRational
    kappa: Fraction
    h: Callable[[int], int]
    s: Callable[[int], int]


@dataclass(frozen=True)
class GrowthTables:
    """Every governing sequence of one construction, to a finite depth.

    A table stores its inputs, ``params``, ``depth`` and ``h_override``
    (the explicit h cut to depth + 1 entries, or None), and the columns of
    ``levels`` over levels 0..depth, in ``Level``'s order; the regime,
    kappa, kappa', the h rule, h(n) and h'(n) are derived from the inputs.
    Accessors take the level n directly; sequences that start at n = 1
    reject index 0.  All members are exact.
    """

    params: TargetParams
    depth: int
    h_override: tuple[int, ...] | None
    d_seq: tuple[int, ...]
    l_seq: tuple[int, ...]
    r_seq: tuple[int, ...]
    s_seq: tuple[int, ...]
    d_prime_seq: tuple[int, ...]
    s_prime_seq: tuple[int, ...]

    # -- what the inputs fix --------------------------------------------

    @cached_property
    def rate(self) -> RateChoice:
        """``derive_kappa(params)``, derived once per table."""
        return derive_kappa(self.params)

    @property
    def regime(self) -> str:
        return self.params.regime

    @property
    def kappa(self) -> Fraction:
        return self.rate.kappa

    @property
    def kappa_prime(self) -> Fraction:
        return self.rate.kappa_prime

    @property
    def h_rule(self) -> str:
        if not self.rate.h_grows:
            return H_RULE_CONSTANT
        return H_RULE_LINEAR if self.h_override is None else H_RULE_EXPLICIT

    def _level(self, n: int, lo: int = 0) -> int:
        if not lo <= n <= self.depth:
            raise ValueError(f"level {n} outside [{lo}, {self.depth}]")
        return n

    def d(self, n: int) -> int:
        return self.d_seq[self._level(n, 1)]

    def d_prime(self, n: int) -> int:
        return self.d_prime_seq[self._level(n, 1)]

    def l(self, n: int) -> int:
        return self.l_seq[self._level(n)]

    def r(self, n: int) -> int:
        return self.r_seq[self._level(n)]

    def s(self, n: int) -> int:
        return self.s_seq[self._level(n)]

    def s_prime(self, n: int) -> int:
        return self.s_prime_seq[self._level(n)]

    def ratio(self, n: int) -> Fraction:
        """s(n)/r(n), the running product of d(k)/l(k), built on demand."""
        return Fraction(self.s(n), self.r(n))

    def gamma(self, n: int) -> Fraction:
        """s'(n)/r(n), the running product of d'(k)/l(k), built on demand."""
        return Fraction(self.s_prime(n), self.r(n))

    def h(self, n: int) -> int:
        """The constant h, or where h grows the explicit h(n) or n + 1."""
        n = self._level(n)
        if not self.rate.h_grows:
            return self.rate.h_base
        return n + 1 if self.h_override is None else self.h_override[n]

    def h_prime(self, n: int) -> int:
        """The constant h', or h(n) where h' grows."""
        if self.rate.h_prime_grows:
            return self.h(n)
        self._level(n)
        return self.rate.h_prime_base

    def side(self, crossed: bool = False) -> Side:
        """The tower's sequences, or its transform's when ``crossed``."""
        if crossed:
            return Side(self.params.r_prime, self.kappa_prime, self.h_prime,
                        self.s_prime)
        return Side(self.params.r, self.kappa, self.h, self.s)

    def torus_points(self, n: int) -> int:
        """2^(nd), the number of order-2^n lattice points indexing one row."""
        return 2 ** (self.params.d * self._level(n))

    def bit_lengths(self) -> dict[str, list[int]]:
        return {
            "d": [x.bit_length() for x in self.d_seq[1:]],
            "r": [x.bit_length() for x in self.r_seq],
            "s": [x.bit_length() for x in self.s_seq],
        }

    # -- serialization --------------------------------------------------

    def to_json_obj(self, leaf: Callable[[int], Any] = str
                    ) -> dict[str, Any]:
        """The tables document, each integer of the columns, ratio and
        gamma made by ``leaf``: ``str`` to write, ``IntLeaf`` to compare."""
        levels = range(self.depth + 1)
        return {
            **TABLES_DOCUMENT.head(self),
            "depth": str(self.depth),
            "regime": self.regime,
            "kappa": fraction_to_json(self.kappa),
            "kappaPrime": fraction_to_json(self.kappa_prime),
            # the integer columns; d, d' and l from level 1
            **{key: ints_to_json(column, leaf) for key, column in (
                ("h", map(self.h, levels)),
                ("hPrime", map(self.h_prime, levels)),
                ("d", self.d_seq[1:]), ("dPrime", self.d_prime_seq[1:]),
                ("l", self.l_seq[1:]), ("r", self.r_seq), ("s", self.s_seq),
                ("sPrime", self.s_prime_seq))},
            "ratio": [fraction_to_json(self.ratio(n), leaf) for n in levels],
            "gamma": [fraction_to_json(self.gamma(n), leaf) for n in levels],
            "bitLengths": self.bit_lengths(),
        }


def build_tables(params: TargetParams, depth: int,
                 h_override: tuple[int, ...] | None = None) -> GrowthTables:
    """Generate the complete table for ``params`` down to ``depth``: the
    first depth + 1 rows of ``levels``, turned into columns.

    An h override only applies where h grows.  It must start at 1, be
    nondecreasing and keep h(n)/2^(nd) nonincreasing, so that the
    downstream smallness arguments hold; it is checked, and cut to depth +
    1 entries, before the first row is computed."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    rate = derive_kappa(params)
    if h_override is not None:
        if not rate.h_grows:
            raise ValueError("h-sequence override only applies when h grows")
        h = tuple(int(x) for x in h_override)
        if len(h) < depth + 1:
            raise ValueError(f"h-sequence override needs {depth + 1} entries")
        h_override = h = h[:depth + 1]
        if h[0] != 1:
            raise ValueError("h(0) must equal 1")
        if any(y < x for x, y in zip(h, h[1:])):
            raise ValueError("h-sequence must be nondecreasing")
        # h(n+1)/2^(d(n+1)) > h(n)/2^(dn) is h(n+1) > h(n)*2^d
        if any(y > x * 2 ** params.d for x, y in zip(h, h[1:])):
            raise ValueError("h(n)/2^(nd) must be nonincreasing")
    rows = islice(levels(rate, params.d), depth + 1)
    return GrowthTables(params, depth, h_override, *zip(*rows))


def tables_from_cli(r: str, r_prime: str, d: int, depth: int,
                    c: str | None = None,
                    h_seq: str | None = None) -> GrowthTables:
    """Build tables from the textual forms the CLI accepts."""
    kwargs: dict[str, Any] = {}
    if c is not None:
        kwargs["c_infinite"] = parse_fraction(c)
    params = TargetParams(ExtendedRational.parse(r),
                          ExtendedRational.parse(r_prime), d, **kwargs)
    if c is not None and params.regime != REGIME_INFINITE_INFINITE:
        raise ValueError("c only applies when r and r' are both infinite")
    override = None
    if h_seq is not None:
        override = tuple(int(part) for part in h_seq.split(","))
    return build_tables(params, depth, override)


# ----------------------------------------------------------------------
# documents
# ----------------------------------------------------------------------

FORMAT_VERSION = "1"


def declared_kind(doc: Any) -> Any:
    """The ``kind`` tag ``doc`` declares; None where it is not an object."""
    return doc.get("kind") if isinstance(doc, dict) else None


def require_document(doc: Any, tag: str) -> dict:
    """``doc`` if it is a ``tag`` document of this format; else ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"{tag} document must be an object")
    if doc.get("formatVersion") != FORMAT_VERSION:
        raise ValueError(
            f"unknown formatVersion {shown_text(doc.get('formatVersion'))}")
    if declared_kind(doc) != tag:
        raise ValueError(
            f"not a {tag} document: kind={shown_text(declared_kind(doc))}")
    return doc


@dataclass(frozen=True)
class DocumentKind:
    """One kind of document.  ``read`` returns what ``regenerate`` takes,
    building the declared tables where the kind is built from tables;
    ``regenerate`` returns the canonical JSON and a report of the kind's
    own checks."""

    tag: str
    parsed: str         # the entry that a read or regeneration error fails
    matches: str        # the entry of the comparison
    passed: str         # a passing one's line: {checks} own, {entries} all
    strict: bool        # compared by the walk: IntLeaf or non-str leaves
    read: Callable[[dict], tuple]
    regenerate: Callable[..., tuple[Any, CheckReport]]

    def head(self, tables: GrowthTables | None = None) -> dict[str, Any]:
        """The fields a document of this kind opens with: format and tag,
        and for a kind built from ``tables`` their params, h rule and h
        override (``declared_tables`` reads params and override back)."""
        head: dict[str, Any] = {"formatVersion": FORMAT_VERSION,
                                "kind": self.tag}
        if tables is not None:
            head["params"] = tables.params.to_json_obj()
            head["hRule"] = tables.h_rule
            if tables.h_override is not None:
                head["hSeqOverride"] = ints_to_json(tables.h_override)
        return head

    def passing_line(self, report: CheckReport) -> str:
        """``passed`` for a passing ``report`` of ``verify_document``,
        whose entries are ``parsed``, the kind's own, then ``matches``."""
        entries = len(report.entries)
        return self.passed.format(entries=entries, checks=entries - 2)


def declared_tables(doc: dict, depth: int) -> GrowthTables:
    """The tables a document's head declares, built to ``depth``."""
    override = (ints_from_json(doc["hSeqOverride"])
                if "hSeqOverride" in doc else None)
    return build_tables(TargetParams.from_json_obj(doc["params"]), depth,
                        override)


# what reading or regenerating a document raises when it is not well formed:
# a missing key, a bad value or type, a number no int can hold (JSON 1e400
# reads as float infinity), or nesting too deep (a RecursionError is a
# RuntimeError)
MALFORMED = (KeyError, ValueError, TypeError, OverflowError, RuntimeError)


def verify_document(doc: Any, kind: DocumentKind) -> CheckReport:
    """Re-verify ``doc``, trusting nothing in it.  ``kind.read`` takes
    only the inputs the document declares (params, depth and h override,
    or a chern table's ``maxK``); the kind's own checks run on the
    regeneration, and ``doc`` passes only where it equals that regeneration
    leaf for leaf.  A passing report holds ``kind.parsed``, the kind's own
    checks, then ``kind.matches``.

    A strict kind (tables, witness) regenerates its integers as
    ``IntLeaf``s, and the type-strict walk ``first_difference`` reads each
    presented decimal once and compares integers: nothing is written
    unless a comparison fails.  The other kinds (diagram, chern) hold
    thousands of small integers and no leaf but strings, so they are
    regenerated as text and compared by ``==``, in C; the walk runs only
    to name the path of a difference."""
    c = Checker()
    try:
        canonical, checks = kind.regenerate(
            *kind.read(require_document(doc, kind.tag)))
    except MALFORMED as exc:
        c.check(kind.parsed, False, str(exc))
        return c.report()
    c.check(kind.parsed, True)
    c.merge(checks)
    diff = (first_difference(doc, canonical)
            if kind.strict or doc != canonical else None)
    c.check(kind.matches, diff is None, diff or "")
    return c.report()


def _read_tables(doc: dict) -> tuple:
    depth = text_int(doc["depth"])
    # levels the document does not list are refused before they are built
    if len(doc["r"]) != depth + 1:
        raise ValueError("tables document has inconsistent sequence lengths")
    return (declared_tables(doc, depth),)


TABLES_DOCUMENT = DocumentKind(
    tag="tables", parsed="tables document well formed",
    matches="tables match canonical regeneration",
    passed="tables: {checks} checks pass\n"
           "tables match canonical regeneration", strict=True,
    read=_read_tables,
    regenerate=lambda tables: (tables.to_json_obj(IntLeaf),
                               verify_tables(tables)))


# ----------------------------------------------------------------------
# invariant suite
# ----------------------------------------------------------------------

def gamma_rho_gap(tables: GrowthTables, n: int) -> tuple[int, int]:
    """gamma(n)*rho(n) - kappa' as the unreduced pair (p*q'*s'(n) -
    p'*q*s(n), q*q'*s(n)), with kappa = p/q and kappa' = p'/q'.

    gamma(n)*rho(n) = (s'(n)/r(n)) * (p*r(n)/(q*s(n))) = p*s'(n)/(q*s(n)):
    r(n) cancels.
    """
    kappa, kp = tables.kappa, tables.kappa_prime
    below = kappa.denominator * tables.s(n)
    return (kappa.numerator * kp.denominator * tables.s_prime(n)
            - kp.numerator * below, kp.denominator * below)


def gamma_rho_signs(tables: GrowthTables, n: int
                    ) -> tuple[int | None, int | None]:
    """The signs of gamma(n)*rho(n) - kappa' and of gamma(n)*rho(n) -
    (kappa' + 1/l(n)): the window 0 <= gap < 1/l(n) holds exactly when
    they are (0 or 1, -1).  None where a quotient is undefined: where s(n)
    is 0, and where r(n) is 0, which leaves gamma(n) undefined although it
    cancels in ``gamma_rho_gap``.
    """
    if not tables.r(n):
        return None, None
    gap, below = gamma_rho_gap(tables, n)
    ln = tables.l(n)
    return (quotient_sign(gap, below),
            quotient_sign(gap * ln - below, below, ln))


def verify_tables(tables: GrowthTables) -> CheckReport:
    """Replay every defining identity and window of the table, exactly.

    kappa, kappa' and h are derived, not stored, so of them only their
    constraints are checked.  Each other entry reads the stored integer
    columns and compares integers:
    ratio(n) is the pair (s(n), r(n)), gamma(n) the pair (s'(n), r(n)) and
    rho(n) = kappa/ratio(n) the pair (p*r(n), q*s(n)), none of them
    reduced, so no gcd is taken.  With kappa = p/q, kappa' = p'/q' and
    pad = 1 + 2^(dn-d), the excess e(n) = q*s(n) - p*r(n) is formed once
    per level from the stored s(n) and r(n), so that ratio(n) - kappa =
    e(n)/(q*r(n)) and 1 - rho(n) = e(n)/(q*s(n)).  The entries compare

        d(n) minimal          k*e(n-1) - pad*p*r(n-1) against 0 over
                              (k + pad)*s(n-1), at k = d(n) and
                              k = d(n) - 1: k/(k + pad) against rho(n-1);
        ratio order           e(n) against 0 over r(n), and
                              s(n)/r(n) < s(n-1)/r(n-1) (``cross_sign``);
        ratio window          d(n)*e(n) - q*s(n) <= 0 over r(n), which is
                              ratio(n) - kappa <= kappa/(d(n) - 1);
        rho in (kappa, 1)     p*(r(n) - s(n)) and e(n) against 0 over s(n);
        d'(n) minimal         m*step against kappa' at m = d'(n) and
                              d'(n) - 1, step = gamma(n-1)*rho(n)/l(n) as
                              the pair (p*s'(n-1)*r(n), q*r(n-1)*s(n)*l(n));
        gamma*rho window      p*s'(n)/(q*s(n)) against kappa' and
                              kappa' + 1/l(n) (``gamma_rho_signs``).

    "d'(n) minimal" and the second half of "ratio order" keep their
    products of two stored big integers: the excess forms of the lemma in
    the module docstring hold only where the table is multiplicative, and
    each entry must fail on its own field.

    No entry checks a stored ratio or gamma, since none is stored; the
    recursion ratio(n) = ratio(n-1)*d(n)/l(n) follows from "r(n)
    multiplicative" and "s(n) multiplicative".  Nothing here calls
    `levels`, so it checks the excess recursion there against the
    definitions rather than restating it.  A quotient with a zero
    denominator, which only a corrupted table holds, fails the entries
    that read it.
    """
    c = Checker()
    t = tables
    c.check("kappa in (0,1)", 0 < t.kappa < 1)
    c.check("kappa' in (0, kappa]", 0 < t.kappa_prime <= t.kappa)

    # h-sequences; h' is h or a constant
    if t.rate.h_grows:
        c.check("h(0) = 1", t.h(0) == 1)
    c.check("h nondecreasing",
            all(t.h(n) <= t.h(n + 1) for n in range(t.depth)))
    c.check("h(n)/2^(nd) nonincreasing",
            all(t.h(n + 1) <= t.h(n) * 2 ** t.params.d
                for n in range(t.depth)))

    c.check("empty products",
            t.l(0) == t.r(0) == t.s(0) == t.s_prime(0) == 1)

    p, q = t.kappa.numerator, t.kappa.denominator
    pp, qp = t.kappa_prime.numerator, t.kappa_prime.denominator
    prime_collapses = t.kappa_prime == t.kappa
    e = q * t.s(0) - p * t.r(0)
    for n in range(1, t.depth + 1):
        pad = slot_padding(t.params.d, n)
        dn, ln, r, s = t.d(n), t.l(n), t.r(n), t.s(n)
        r_last, s_last, e_last = t.r(n - 1), t.s(n - 1), e
        e = q * s - p * r
        # k/(k + pad) > kappa/ratio(n-1) is k*e(n-1) - pad*p*r(n-1) > 0
        # over (k + pad)*q*s(n-1), and q > 0; at k = d(n) the numerator is
        # e(n) where r(n) and s(n) are multiplicative
        excess = dn * e_last - pad * p * r_last
        c.check(f"d({n}) minimal",
                quotient_sign(excess, dn + pad, s_last) == 1
                and (dn == 1 or quotient_sign(excess - e_last, dn - 1 + pad,
                                              s_last) != 1),
                lambda: f"d({n}) has {t.d(n).bit_length()} bits")
        c.check(f"l({n}) = d({n}) + 1 + 2^(dn-d)", ln == dn + pad)
        c.check(f"r({n}) multiplicative", r == r_last * ln)
        c.check(f"s({n}) multiplicative", s == s_last * dn)
        c.check(f"kappa < ratio({n}) < ratio({n - 1})",
                quotient_sign(e, r) == 1
                and cross_sign(s, r, s_last, r_last) == -1)
        if dn >= 2:
            c.check(f"ratio({n}) - kappa <= kappa/(d({n})-1)",
                    quotient_sign(dn * e - q * s, r) in (-1, 0))
        c.check(f"rho({n}) in (kappa, 1)",
                quotient_sign(p * (r - s), s) == 1
                and quotient_sign(e, s) == 1)

        if prime_collapses:
            c.check(f"d'({n}) = d({n})", t.d_prime(n) == dn)
        else:
            m = t.d_prime(n)
            step_num = t.s_prime(n - 1) * p * r
            step_den = r_last * q * s * ln
            reach = m * step_num
            c.check(f"d'({n}) minimal",
                    cross_sign(reach, step_den, pp, qp) in (0, 1)
                    and (m == 1 or cross_sign(reach - step_num, step_den,
                                              pp, qp) == -1))
        c.check(f"1 <= d'({n}) <= d({n})", 1 <= t.d_prime(n) <= dn)
        c.check(f"s'({n}) multiplicative",
                t.s_prime(n) == t.s_prime(n - 1) * t.d_prime(n))
        low, high = gamma_rho_signs(t, n)
        c.check(f"gamma*rho window at {n}", low in (0, 1) and high == -1,
                lambda: (f"gap={quotient_text(*gamma_rho_gap(t, n))}"
                         if t.r(n) else f"gap undefined: r({n}) = 0"))

    c.check("d nondecreasing",
            all(t.d(n) <= t.d(n + 1) for n in range(1, t.depth)))
    return c.report()
