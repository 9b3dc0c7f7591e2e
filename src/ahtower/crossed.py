"""The tower transformed by its shift action: shapes and upper bounds.

Absorbing the lattice shift enlarges the C row of stage n to matrix size
r(n) * 2^(nd) over the same base and adjoins a d-torus factor to both
rows.  The lattice points are folded into the matrix part, and the slot
census of the connecting maps is the plain tower's, so no map is built
here.  The governing size identity

    r(n+1) * 2^((n+1)d)  =  (r(n) * 2^(nd)) * l(n+1) * 2^d

is the plain size recursion r(n+1) = r(n) l(n+1) times one extra 2^d.

The distinguished projection pair swaps sides here: the patterned member
lives on the small row (the one carrying the bundle data of the torus
factor), and its ranks are ``comparison.projection_pair`` with
``crossed=True``, while the big row contributes the entirely trivial
companion, whose trace the crossed witness ledger's "trace match" rows
certify.
Upper bounds gain a d/(2r(n)) torus term on the small row and a
d/(2^(nd+1) r(n)) term on the big row, so the big-row part is crushed by
2^(nd) while the small-row part exceeds the target radius r' by exactly
h'(n) * (gamma_n - kappa') + d / (2 r(n)).
"""

from __future__ import annotations

from .rational import cross_sign, quotient_sign, quotient_text, shown_int
from .report import Checker, CheckReport
from .sequences import GrowthTables, gamma_rho_signs


# ----------------------------------------------------------------------
# shapes
# ----------------------------------------------------------------------

def check_crossed_sizes(tables: GrowthTables) -> CheckReport:
    """The size recursion of every transformed level."""
    c = Checker()
    d = tables.params.d
    for n in range(tables.depth):
        big_now = tables.r(n) * tables.torus_points(n)
        big_next = tables.r(n + 1) * tables.torus_points(n + 1)
        c.check(f"size recursion at level {n}",
                big_next == big_now * tables.l(n + 1) * 2 ** d,
                lambda: (f"{shown_int(big_next)} vs {shown_int(big_now)}*"
                         f"{shown_int(tables.l(n + 1))}*{2 ** d}"))
    return c.report()


# ----------------------------------------------------------------------
# upper bounds
# ----------------------------------------------------------------------

def check_upper_bound_gap(tables: GrowthTables) -> CheckReport:
    """Exact control of the small-row excess over the target radius r'.

    Valid whenever r' is finite: the excess b_part - r' of the small-row
    part b_part = (h'(n)s'(n) + d/2)/r(n) equals
    h'(n)(gamma_n - kappa') + d/(2 r(n)) on the nose, is nonnegative, and
    the gamma-gap obeys its sequence-level window; the big-row part is
    crushed below (h(n) + d/2)/2^(nd).

    Every comparison is made on integers, over one common denominator: with
    r' = u/v, gamma(n) = s'(n)/r(n) and kappa' = p'/q',

        excess >= 0           (2h's' + d)v - 2r(n)u against 0, over 2r(n)v;
        excess identity       (h's'v - r(n)u) q' = h'(s'q' - p'r(n)) v for
                              r(n) != 0, the torus term d/(2r(n)) and one
                              factor r(n) cancelling;
        gamma gap window      s'q' - p'r(n) >= 0 over r(n), and the upper
                              half of ``sequences.gamma_rho_signs``;
        big row crushed       2hs + d against (2h + d) r(n), as
                              c_part = (2hs + d)/(2^(nd+1) r(n));
        big row decreasing    (2hs + d)(n) r(n-1) against
                              (2hs + d)(n-1) 2^d r(n).

    No gcd is taken.  A zero r(n), which only a corrupted table holds,
    fails the entries that divide by it.
    """
    if tables.params.r_prime.is_infinite:
        raise ValueError("the gap identity needs a finite target radius r'")
    r_prime = tables.params.r_prime.finite_value
    u, v = r_prime.numerator, r_prime.denominator
    kp = tables.kappa_prime
    d = tables.params.d
    c = Checker()
    previous: tuple[int, int] | None = None    # (2hs + d, 2^(nd) r) at n-1
    for n in range(1, tables.depth + 1):
        r, hp, s_prime = tables.r(n), tables.h_prime(n), tables.s_prime(n)
        small = hp * s_prime
        excess = (2 * small + d) * v - 2 * r * u          # over 2 r v
        lift = s_prime * kp.denominator - kp.numerator * r    # over r q'
        c.check(f"small-row excess nonnegative (n={n})",
                quotient_sign(excess, r) in (0, 1),
                lambda: f"excess={quotient_text(excess, 2 * r * v)}")
        c.check(f"small-row excess identity (n={n})",
                r != 0 and ((small * v - r * u) * kp.denominator
                            == hp * lift * v),
                lambda: (f"{quotient_text(excess, 2 * r * v)} vs "
                         f"h'*{quotient_text(lift, r * kp.denominator)} + "
                         f"{quotient_text(d, 2 * r)}"))
        c.check(f"gamma gap inside its window (n={n})",
                quotient_sign(lift, r) in (0, 1)
                and gamma_rho_signs(tables, n)[1] == -1)
        h = tables.h(n)
        big, pts = 2 * h * tables.s(n) + d, tables.torus_points(n)
        c.check(f"big-row part crushed (n={n})",
                quotient_sign(big - (2 * h + d) * r, r) in (-1, 0))
        if previous is not None:
            before, below = previous
            c.check(f"big-row part strictly decreasing (n={n})",
                    cross_sign(big, pts * r, before, below) == -1,
                    lambda: (f"{quotient_text(big, 2 * pts * r)} vs "
                             f"{quotient_text(before, 2 * below)}"))
        previous = (big, pts * r)
    return c.report()

