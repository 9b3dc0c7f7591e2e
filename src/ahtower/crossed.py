"""The tower transformed by its shift action: shapes, bounds, trace pairing.

Absorbing the lattice shift enlarges the C row of stage n to matrix size
r(n) * 2^(nd) over the same base and adjoins a d-torus factor to both
rows.  The lattice points are folded into the matrix part, and the slot
census of the connecting maps is the plain tower's, so no map is built
here.  The governing size identity

    r(n+1) * 2^((n+1)d)  =  (r(n) * 2^(nd)) * l(n+1) * 2^d

is the plain size recursion r(n+1) = r(n) l(n+1) times one extra 2^d.

The distinguished projection pair swaps sides here: the patterned member
lives on the small row (the one carrying the bundle data of the torus
factor), while the big row contributes the entirely trivial companion
(``comparison.projection_pair`` with ``crossed=True``).
Upper bounds gain a d/(2r(n)) torus term on the small row and a
d/(2^(nd+1) r(n)) term on the big row, so the big-row part is crushed by
2^(nd) while the small-row part exceeds the target radius r' by exactly
h'(n) * (gamma_n - kappa') + d / (2 r(n)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .report import Checker, CheckReport
from .sequences import GrowthTables


# ----------------------------------------------------------------------
# shapes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CrossedBlockSpec:
    matrix_size: int
    base_dimension: int
    torus_rank: int


@dataclass(frozen=True)
class CrossedStageSpec:
    level: int
    c_tilde: CrossedBlockSpec
    b_tilde: CrossedBlockSpec


def build_crossed_stage(tables: GrowthTables, n: int) -> CrossedStageSpec:
    d = tables.params.d
    return CrossedStageSpec(
        level=n,
        c_tilde=CrossedBlockSpec(
            matrix_size=tables.r(n) * tables.torus_points(n),
            base_dimension=2 * tables.h(n) * tables.s(n),
            torus_rank=d),
        b_tilde=CrossedBlockSpec(
            matrix_size=tables.r(n),
            base_dimension=2 * tables.h_prime(n) * tables.s_prime(n),
            torus_rank=d))


def check_crossed_sizes(tables: GrowthTables) -> CheckReport:
    """The size recursion of every transformed level."""
    c = Checker()
    d = tables.params.d
    for n in range(tables.depth):
        big_now = tables.r(n) * tables.torus_points(n)
        big_next = tables.r(n + 1) * tables.torus_points(n + 1)
        c.check(f"size recursion at level {n}",
                big_next == big_now * tables.l(n + 1) * 2 ** d,
                lambda: f"{big_next} vs {big_now}*{tables.l(n + 1)}*{2 ** d}")
    return c.report()


# ----------------------------------------------------------------------
# upper bounds
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CrossedUpperBound:
    level: int
    c_part: Fraction
    b_part: Fraction

    @property
    def value(self) -> Fraction:
        return max(self.c_part, self.b_part)


def crossed_rc_upper(tables: GrowthTables, n: int) -> CrossedUpperBound:
    """Per-row dimension-over-size bounds with their torus terms."""
    d = tables.params.d
    pts = tables.torus_points(n)
    c_part = Fraction(tables.h(n) * tables.s(n), pts * tables.r(n)) \
        + Fraction(d, 2 * pts * tables.r(n))
    b_part = Fraction(tables.h_prime(n) * tables.s_prime(n), tables.r(n)) \
        + Fraction(d, 2 * tables.r(n))
    return CrossedUpperBound(level=n, c_part=c_part, b_part=b_part)


def check_upper_bound_gap(tables: GrowthTables, depth: int | None = None
                          ) -> CheckReport:
    """Exact control of the small-row excess over the target radius r'.

    Valid whenever r' is finite: the excess b_part - r' equals
    h'(n)(gamma_n - kappa') + d/(2 r(n)) on the nose, is nonnegative, and
    the gamma-gap obeys its sequence-level window; the big-row part is
    crushed below (h(n) + d/2)/2^(nd).
    """
    if tables.params.r_prime.is_infinite:
        raise ValueError("the gap identity needs a finite target radius r'")
    r_prime = tables.params.r_prime.finite_value
    depth = tables.depth if depth is None else depth
    d = tables.params.d
    c = Checker()
    previous_c_part: Fraction | None = None
    for n in range(1, depth + 1):
        bound = crossed_rc_upper(tables, n)
        excess = bound.b_part - r_prime
        gamma_gap = tables.gamma(n) - tables.kappa_prime
        torus_term = Fraction(d, 2 * tables.r(n))
        c.check(f"small-row excess nonnegative (n={n})", excess >= 0,
                lambda: f"excess={excess}")
        c.check(f"small-row excess identity (n={n})",
                excess == tables.h_prime(n) * gamma_gap + torus_term,
                lambda: f"{excess} vs h'*{gamma_gap} + {torus_term}")
        window = (tables.gamma(n) * tables.rho(n) - tables.kappa_prime
                  < Fraction(1, tables.l(n)))
        c.check(f"gamma gap inside its window (n={n})",
                gamma_gap >= 0 and window)
        c.check(f"big-row part crushed (n={n})",
                bound.c_part <= Fraction(tables.h(n) + Fraction(d, 2),
                                         tables.torus_points(n)))
        if previous_c_part is not None:
            c.check(f"big-row part strictly decreasing (n={n})",
                    bound.c_part < previous_c_part,
                    lambda: f"{bound.c_part} vs {previous_c_part}")
        previous_c_part = bound.c_part
    return c.report()


# ----------------------------------------------------------------------
# trace pairing
# ----------------------------------------------------------------------

def crossed_trace_check(tables: GrowthTables, n: int, M: int,
                        lambdas: tuple[Fraction, ...] = (
                            Fraction(0), Fraction(1, 4), Fraction(1, 2),
                            Fraction(1)),
                        depths: tuple[int, ...] | None = None) -> CheckReport:
    """Every convex weighting of the two row traces returns M/r(n).

    The big row carries the trivial projection of rank 2^(nd) M, the small
    row the companion of rank M; both normalize to M/r(n) at every deeper
    level, so the pairing is independent of the weight lambda.
    """
    if not 0 <= n <= tables.depth:
        raise ValueError(f"level {n} outside the tables")
    if M < 1:
        raise ValueError("M must be a positive integer")
    if depths is None:
        depths = tuple(range(n, tables.depth + 1))
    c = Checker()
    expected = Fraction(M, tables.r(n))
    for m in depths:
        if not n <= m <= tables.depth:
            raise ValueError(f"checked level {m} outside [{n}, depth]")
        growth = tables.r(m) // tables.r(n)
        big_rank = M * growth * tables.torus_points(m)
        small_rank = M * growth
        big_trace = Fraction(big_rank, tables.r(m) * tables.torus_points(m))
        small_trace = Fraction(small_rank, tables.r(m))
        c.check(f"row traces agree (m={m})", big_trace == small_trace,
                lambda: f"{big_trace} vs {small_trace}")
        for lam in lambdas:
            mixed = lam * big_trace + (1 - lam) * small_trace
            c.check(f"weighted trace lambda={lam} (m={m})",
                    mixed == expected, lambda: f"{mixed} vs {expected}")
    return c.report()
