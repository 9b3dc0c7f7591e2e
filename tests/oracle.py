"""Independent references for the tests: a recomputation of the governing
sequences, and the sparse square-zero ring.

Deliberately shares no code with the package: minimal-k choices are made by
a literal unit-step scan while the answer is small, switching to galloping
plus bisection on the monotone predicate once the scan cap is passed, and
in both cases the boundary pair (predicate true at k, false at k-1) is
certified before the value is accepted.  ``SquareZeroPoly`` multiplies term
by term, the sparse product that the dense list kernel of
``test_chern_reference``, the computed check of the rank-doubling lemma, is
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

SCAN_CAP = 4096


def least_true(pred, scan_cap: int = SCAN_CAP) -> int:
    """Least positive integer where the monotone predicate turns true."""
    for k in range(1, scan_cap + 1):
        if pred(k):
            assert k == 1 or not pred(k - 1), "predicate not monotone at boundary"
            return k
    lo, hi = scan_cap, 2 * scan_cap
    while not pred(hi):
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    assert pred(hi) and not pred(hi - 1)
    return hi


def primary_tables(kappa: Fraction, d: int, depth: int,
                   scan_cap: int = SCAN_CAP):
    """Recompute d(n), l(n), r(n), s(n), ratio(n) from the definitions."""
    d_seq, l_seq, r_prod, s_prod = [0], [1], [1], [1]
    ratio = [Fraction(1)]
    for n in range(1, depth + 1):
        pad = 1 + 2 ** (d * n - d)
        target = kappa / ratio[n - 1]
        dn = least_true(lambda k: Fraction(k, k + pad) > target, scan_cap)
        d_seq.append(dn)
        l_seq.append(dn + pad)
        r_prod.append(r_prod[-1] * (dn + pad))
        s_prod.append(s_prod[-1] * dn)
        ratio.append(ratio[-1] * Fraction(dn, dn + pad))
    return d_seq, l_seq, r_prod, s_prod, ratio


def secondary_tables(kappa: Fraction, kappa_prime: Fraction,
                     d_seq, l_seq, ratio, depth: int,
                     scan_cap: int = SCAN_CAP):
    """Recompute d'(n), s'(n), gamma(n) from the definitions."""
    d_prime, s_prime, gamma = [0], [1], [Fraction(1)]
    for n in range(1, depth + 1):
        if kappa_prime == kappa:
            m = d_seq[n]
        else:
            rho_n = kappa / ratio[n]
            step = gamma[n - 1] * rho_n / l_seq[n]
            m = least_true(lambda k: k * step >= kappa_prime, scan_cap)
        d_prime.append(m)
        s_prime.append(s_prime[-1] * m)
        gamma.append(gamma[-1] * Fraction(m, l_seq[n]))
    return d_prime, s_prime, gamma


@dataclass(frozen=True)
class SquareZeroPoly:
    """An element of Z[x_1..x_k]/(x_i^2), one bitmask term per monomial."""

    variables: int
    terms: tuple[tuple[int, int], ...]   # sorted (mask, coefficient) pairs

    @classmethod
    def from_dict(cls, variables: int, coeffs: dict[int, int]) -> "SquareZeroPoly":
        items = tuple(sorted((m, c) for m, c in coeffs.items() if c != 0))
        if any(m >> variables for m, _ in items):
            raise ValueError("monomial uses a variable out of range")
        return cls(variables, items)

    @classmethod
    def one(cls, variables: int) -> "SquareZeroPoly":
        return cls.from_dict(variables, {0: 1})

    @classmethod
    def linear(cls, variables: int, index: int, coefficient: int = 1
               ) -> "SquareZeroPoly":
        """coefficient * x_index, indices counted from 1."""
        if not 1 <= index <= variables:
            raise ValueError(f"variable index {index} out of range")
        return cls.from_dict(variables, {1 << (index - 1): coefficient})

    def add(self, other: "SquareZeroPoly") -> "SquareZeroPoly":
        out = dict(self.terms)
        for m, c in other.terms:
            out[m] = out.get(m, 0) + c
        return SquareZeroPoly.from_dict(self.variables, out)

    def mul(self, other: "SquareZeroPoly") -> "SquareZeroPoly":
        out: dict[int, int] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                if m1 & m2:
                    continue   # a square of some x_i, hence zero
                out[m1 | m2] = out.get(m1 | m2, 0) + c1 * c2
        return SquareZeroPoly.from_dict(self.variables, out)

    @property
    def is_one(self) -> bool:
        return self.terms == ((0, 1),)

    def coefficient(self, mask: int) -> int:
        return dict(self.terms).get(mask, 0)

    def top_degree(self) -> int:
        """Highest number of variables in a surviving monomial."""
        if not self.terms:
            raise ValueError("the zero element has no top degree")
        return max(m.bit_count() for m, _ in self.terms)
