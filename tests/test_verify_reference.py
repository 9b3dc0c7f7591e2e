"""Differential test: the integer verify suites against the Fraction and
product forms they replaced.

``verify_tables`` and ``check_upper_bound_gap`` are copied below as they
were, replaying every identity and window in ``Fraction``s, with
``crossed_rc_upper``, the Fraction form of the crossed upper bounds that the
second reads and that the other tests compare against; each new suite
must record the same (name, ok, detail) entries on clean tables, on the
columns of a ``plan`` document read back, and on tables with one stored
column corrupted.  Where a corrupted column makes the old form divide by
zero, the new one must fail instead.  Tables no longer store ratio, gamma,
the regime, kappa, kappa' or the h sequences, so the old rows that
compared them (``ratio(n) = s/r``, ``gamma(n) = s'/r``, the three
``matches params`` rows, ``h constant``, ``h' = h`` and ``h' constant``)
are left out of the comparison, and the copies read h and h' through the
accessors.  ``compose_multiplicities`` is the product form of the composed
totals: the one lemma row of ``verify_tower``, which reads l(k+1), with
the tables entries ``r(k) multiplicative`` must hold exactly when all of
its O(depth^2) per-range rows do with the entries ``l(k) = d(k) + 1 +
2^(dn-d)``.
"""

import dataclasses
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahtower import crossed, sequences
from ahtower.cli import main
from ahtower.rational import ExtendedRational
from ahtower.report import Checker, CheckReport
from ahtower.sequences import (GrowthTables, TargetParams, build_tables,
                               derive_kappa, slot_padding)
from ahtower.tower import (BlockMatrix, check_unital, lattice_maps,
                           multiplicity_matrix, verify_tower)


# -- the Fraction forms, as they were -----------------------------------------

@dataclasses.dataclass(frozen=True)
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


def verify_tables(tables: GrowthTables) -> CheckReport:
    """Replay every defining identity and window of the table, exactly."""
    c = Checker()
    t = tables
    rate = derive_kappa(t.params)
    c.check("regime matches params", t.regime == t.params.regime)
    c.check("kappa matches params", t.kappa == rate.kappa,
            lambda: f"kappa={t.kappa}")
    c.check("kappa' matches params", t.kappa_prime == rate.kappa_prime)
    c.check("kappa in (0,1)", 0 < t.kappa < 1)
    c.check("kappa' in (0, kappa]", 0 < t.kappa_prime <= t.kappa)

    # h-sequences
    h_seq = tuple(map(t.h, range(t.depth + 1)))
    h_prime_seq = tuple(map(t.h_prime, range(t.depth + 1)))
    if rate.h_grows:
        c.check("h(0) = 1", t.h(0) == 1)
    else:
        c.check("h constant", set(h_seq) == {rate.h_base})
    c.check("h nondecreasing",
            all(t.h(n) <= t.h(n + 1) for n in range(t.depth)))
    if rate.h_prime_grows:
        c.check("h' = h", h_prime_seq == h_seq)
    else:
        c.check("h' constant", set(h_prime_seq) == {rate.h_prime_base})
    c.check("h(n)/2^(nd) nonincreasing",
            all(Fraction(t.h(n + 1), t.torus_points(n + 1))
                <= Fraction(t.h(n), t.torus_points(n))
                for n in range(t.depth)))

    c.check("empty products", t.l(0) == t.r(0) == t.s(0) == t.s_prime(0) == 1
            and t.ratio(0) == t.gamma(0) == 1)

    prime_collapses = t.kappa_prime == t.kappa
    for n in range(1, t.depth + 1):
        pad = slot_padding(t.params.d, n)
        target = t.kappa / t.ratio(n - 1)
        c.check(f"d({n}) minimal",
                Fraction(t.d(n), t.d(n) + pad) > target
                and (t.d(n) == 1
                     or not Fraction(t.d(n) - 1, t.d(n) - 1 + pad) > target),
                lambda: f"d({n}) has {t.d(n).bit_length()} bits")
        c.check(f"l({n}) = d({n}) + 1 + 2^(dn-d)", t.l(n) == t.d(n) + pad)
        c.check(f"r({n}) multiplicative", t.r(n) == t.r(n - 1) * t.l(n))
        c.check(f"s({n}) multiplicative", t.s(n) == t.s(n - 1) * t.d(n))
        c.check(f"ratio({n}) = s/r",
                t.ratio(n) == Fraction(t.s(n), t.r(n))
                and t.ratio(n) == t.ratio(n - 1) * Fraction(t.d(n), t.l(n)))
        c.check(f"kappa < ratio({n}) < ratio({n - 1})",
                t.kappa < t.ratio(n) < t.ratio(n - 1))
        if t.d(n) >= 2:
            c.check(f"ratio({n}) - kappa <= kappa/(d({n})-1)",
                    t.ratio(n) - t.kappa <= t.kappa / (t.d(n) - 1))
        c.check(f"rho({n}) in (kappa, 1)",
                t.kappa < t.kappa / t.ratio(n) < 1)

        if prime_collapses:
            c.check(f"d'({n}) = d({n})", t.d_prime(n) == t.d(n))
        else:
            step = t.gamma(n - 1) * (t.kappa / t.ratio(n)) / t.l(n)
            c.check(f"d'({n}) minimal",
                    t.d_prime(n) * step >= t.kappa_prime
                    and (t.d_prime(n) == 1
                         or not (t.d_prime(n) - 1) * step >= t.kappa_prime))
        c.check(f"1 <= d'({n}) <= d({n})", 1 <= t.d_prime(n) <= t.d(n))
        c.check(f"s'({n}) multiplicative",
                t.s_prime(n) == t.s_prime(n - 1) * t.d_prime(n))
        c.check(f"gamma({n}) = s'/r",
                t.gamma(n) == Fraction(t.s_prime(n), t.r(n)))
        gap = t.gamma(n) * (t.kappa / t.ratio(n)) - t.kappa_prime
        c.check(f"gamma*rho window at {n}",
                0 <= gap < Fraction(1, t.l(n)), lambda: f"gap={gap}")

    c.check("d nondecreasing",
            all(t.d(n) <= t.d(n + 1) for n in range(1, t.depth)))
    return c.report()


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
        rho = tables.kappa / tables.ratio(n)
        window = (tables.gamma(n) * rho - tables.kappa_prime
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


# -- the product form of the composed totals ----------------------------------

def identity() -> BlockMatrix:
    return BlockMatrix(1, 0, 0, 1)


def then(first: BlockMatrix, later: BlockMatrix) -> BlockMatrix:
    """Counts for ``first`` followed by ``later``."""
    return BlockMatrix(
        cc=first.cc * later.cc + first.cb * later.bc,
        cb=first.cc * later.cb + first.cb * later.bb,
        bc=first.bc * later.cc + first.bb * later.bc,
        bb=first.bc * later.cb + first.bb * later.bb)


def compose_multiplicities(tables: GrowthTables, m: int, n: int) -> BlockMatrix:
    """Ordered product of the per-stage matrices along levels m..n."""
    if not 0 <= m <= n <= tables.depth:
        raise ValueError(f"bad level range [{m}, {n}]")
    acc = identity()
    for level in range(m, n):
        acc = then(acc, multiplicity_matrix(tables, level))
    return acc


def composed_rows(tables: GrowthTables):
    """The per-range rows verify_tower recorded before the lemma."""
    c = Checker()
    for m in range(tables.depth + 1):
        for n in range(m, tables.depth + 1):
            totals = compose_multiplicities(tables, m, n).into_totals()
            want = tables.r(n) // tables.r(m)
            c.check(f"composed totals {m}->{n}",
                    set(totals.values()) == {want}
                    and tables.r(m) * want == tables.r(n))
    return c.report()


# -- comparisons --------------------------------------------------------------

def rows(report):
    return [(e.name, e.ok, e.detail) for e in report.entries]


# the old rows that compared a value no table stores: a ratio, a gamma, or
# a value derived from the params
UNSTORED_ROWS = re.compile(r"(ratio|gamma)\(\d+\) = s'?/r|regime matches "
                           r"params|kappa'? matches params|h constant|"
                           r"h' = h|h' constant")


def outcome(fn, *args):
    """The rows ``fn`` records, or the type of what it raises."""
    try:
        return rows(fn(*args))
    except ZeroDivisionError as exc:    # compared, not hidden
        return type(exc)


def assert_same_rows(tables):
    """Both suites record what their Fraction forms record; where those
    divide by zero, they fail instead."""
    pairs = [(verify_tables, sequences.verify_tables)]
    if not tables.params.r_prime.is_infinite:
        pairs.append((check_upper_bound_gap, crossed.check_upper_bound_gap))
    for reference, suite in pairs:
        want, got = outcome(reference, tables), suite(tables)
        if want is ZeroDivisionError:
            assert not got.ok, suite.__name__
        else:
            want = [row for row in want
                    if not UNSTORED_ROWS.fullmatch(row[0])]
            assert rows(got) == want, suite.__name__


def lemma_row(tables):
    [entry] = [e for e in verify_tower(tables, lattice_maps(tables)).entries
               if e.name.startswith("composed totals")]
    return entry


def tables_rows_hold(tables, pattern):
    """Whether every ``verify_tables`` entry named by ``pattern`` holds."""
    return all(e.ok for e in sequences.verify_tables(tables).entries
               if re.fullmatch(pattern, e.name))


def assert_lemma_matches_products(tables):
    # the lemma row reads l(k+1) where the product rows read r(k+1)/r(k)
    lemma = (lemma_row(tables).ok
             and tables_rows_hold(tables, r"r\(\d+\) multiplicative"))
    try:
        products = composed_rows(tables)
    except ZeroDivisionError:           # r(m) = 0: r(n)/r(m) is undefined
        assert not lemma
        return
    assert lemma == (products.ok
                     and tables_rows_hold(tables, r"l\(\d+\) = .*"))


fractions = st.fractions(min_value=Fraction(1, 12), max_value=Fraction(9),
                         max_denominator=12)
units = st.fractions(min_value=Fraction(1, 40), max_value=Fraction(39, 40),
                     max_denominator=40)


@st.composite
def params(draw):
    """Targets in all three regimes."""
    regime = draw(st.sampled_from(["finite-finite", "infinite-finite",
                                   "infinite-infinite"]))
    d = draw(st.integers(1, 3))
    if regime == "finite-finite":
        r = draw(fractions)
        r_prime = r * draw(st.fractions(min_value=Fraction(1, 8),
                                        max_value=Fraction(1),
                                        max_denominator=8))
        return TargetParams(ExtendedRational(Fraction(r)),
                            ExtendedRational(Fraction(r_prime)), d)
    if regime == "infinite-finite":
        return TargetParams(ExtendedRational.infinite(),
                            ExtendedRational(Fraction(draw(fractions))), d)
    return TargetParams(ExtendedRational.infinite(),
                        ExtendedRational.infinite(), d, draw(units))


@given(params(), st.integers(0, 7))
@settings(max_examples=120, deadline=None)
def test_suites_match_fraction_forms(target, depth):
    tables = build_tables(target, depth)
    assert sequences.verify_tables(tables).ok
    assert_same_rows(tables)


PLAN_POINTS = [("1/2", "1/3", None, 1, 6), ("2", "1", None, 2, 4),
               ("13/3", "13/4", None, 3, 3), ("inf", "2/3", None, 1, 6),
               ("inf", "11/4", None, 2, 4), ("inf", "inf", "6/7", 3, 3)]


@pytest.mark.parametrize("r,r_prime,c,d,depth", PLAN_POINTS)
def test_suites_match_on_plan_documents(tmp_path, r, r_prime, c, d, depth):
    path = tmp_path / "tables.json"
    argv = ["plan", "--r", r, "--r-prime", r_prime, "--d", str(d),
            "--depth", str(depth), "--out", str(path)]
    assert main(argv + ([] if c is None else ["--c", c])) == 0
    assert_same_rows(columns_read(json.loads(path.read_text())))


def columns_read(doc) -> GrowthTables:
    """The tables a plan document's inputs and columns hold, read as they
    stand."""
    def ints(key):
        return tuple(int(x) for x in doc[key])

    return GrowthTables(
        TargetParams.from_json_obj(doc["params"]), int(doc["depth"]),
        ints("hSeqOverride") if "hSeqOverride" in doc else None,
        d_seq=(0, *ints("d")), l_seq=(1, *ints("l")), r_seq=ints("r"),
        s_seq=ints("s"), d_prime_seq=(0, *ints("dPrime")),
        s_prime_seq=ints("sPrime"))


# -- corrupted tables ---------------------------------------------------------

def edit_int(x: int, how: int, by: int) -> int:
    return (x + by, x - by, 0, -x, 2 * x, x * by)[how]


# column -> (attribute, first level); h, h', kappa and kappa' are derived
# from the params, so no edit reaches them apart from the params
SEQUENCE_FIELDS = {
    "d": ("d_seq", 1), "l": ("l_seq", 0), "r": ("r_seq", 0),
    "s": ("s_seq", 0), "d'": ("d_prime_seq", 1), "s'": ("s_prime_seq", 0),
}
FIELDS = list(SEQUENCE_FIELDS)
INT_EDITS = 6


def with_value(tables, field, n, value):
    """``tables`` with entry n of one stored column replaced by ``value``."""
    attr, _ = SEQUENCE_FIELDS[field]
    seq = getattr(tables, attr)
    return dataclasses.replace(tables, **{attr: seq[:n] + (value,)
                                          + seq[n + 1:]})


def corrupt(tables, field, level, how, by):
    attr, first = SEQUENCE_FIELDS[field]
    n = first + level % (tables.depth + 1 - first)
    seq = getattr(tables, attr)
    return with_value(tables, field, n, edit_int(seq[n], how % INT_EDITS, by))


@given(params(), st.integers(1, 7), st.sampled_from(FIELDS),
       st.integers(0, 100), st.integers(0, INT_EDITS - 1),
       st.integers(1, 5))
@settings(max_examples=400, deadline=None)
def test_suites_match_on_corrupted_tables(target, depth, field, level, how,
                                          by):
    tables = corrupt(build_tables(target, depth), field, level, how, by)
    assert_same_rows(tables)


@pytest.mark.parametrize("field", FIELDS)
def test_each_field_flips_the_same_entries(field):
    # every field, every edit, at every level of one table with kappa' <
    # kappa, so no field goes unchecked whatever hypothesis draws
    tables = build_tables(TargetParams(ExtendedRational.parse("1/2"),
                                       ExtendedRational.parse("1/3"), 2), 4)
    for level in range(5):
        for how in range(INT_EDITS):
            assert_same_rows(corrupt(tables, field, level, how, 3))


def test_suites_match_at_crossed_equalities():
    # at d = 2, r = 1/2, r' = 1/3 (so h = h' = 1): the small-row excess
    # (2h's' + d)/(2r) - r' is 0 when r(n) = 3(s'(n) + 1), and the big-row
    # part (2hs + d)/(2^(nd+1) r) stays level when r(n) = r(n-1) and
    # s(n) = 4 s(n-1) + 3
    t = build_tables(TargetParams(ExtendedRational.parse("1/2"),
                                  ExtendedRational.parse("1/3"), 2), 4)
    zero_excess = with_value(t, "r", 2, 3 * (t.s_prime(2) + 1))
    level = with_value(with_value(t, "r", 3, t.r(2)), "s", 3, 4 * t.s(2) + 3)
    assert crossed_rc_upper(zero_excess, 2).b_part == Fraction(1, 3)
    assert (crossed_rc_upper(level, 3).c_part
            == crossed_rc_upper(level, 2).c_part)
    for tables, name, ok in (
            (zero_excess, "small-row excess nonnegative (n=2)", True),
            (level, "big-row part strictly decreasing (n=3)", False)):
        assert_same_rows(tables)
        entries = crossed.check_upper_bound_gap(tables).entries
        assert [e.ok for e in entries if e.name == name] == [ok]


# -- the composed-totals lemma ------------------------------------------------

@given(params(), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_lemma_row_holds_with_every_product_row(target, depth):
    tables = build_tables(target, depth)
    assert lemma_row(tables).ok and composed_rows(tables).ok


@given(params(), st.integers(1, 8), st.sampled_from(["r", "l", "d"]),
       st.integers(0, 100), st.integers(0, 5), st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_lemma_row_fails_with_some_product_row(target, depth, field, level,
                                               how, by):
    tables = corrupt(build_tables(target, depth), field, level, how, by)
    assert_lemma_matches_products(tables)


def test_tower_suite_has_one_lemma_row():
    # the per-map rows and one lemma row: no row per range, no stage rows
    for d, depth in ((1, 8), (2, 5), (3, 4)):
        tables = build_tables(TargetParams(ExtendedRational.parse("1/2"),
                                           ExtendedRational.parse("1/3"), d),
                              depth)
        maps = lattice_maps(tables)
        per_map = sum(len(check_unital(tables, m).entries) for m in maps)
        names = [e.name for e in verify_tower(tables, maps).entries]
        assert per_map == 7 * depth
        assert len(names) == per_map + 1
        assert names[-1] == "composed totals m->n = r(n)/r(m) (lemma)"
        assert sum(name.startswith("composed totals") for name in names) == 1


def test_lemma_row_names_the_failing_step():
    tables = build_tables(TargetParams(ExtendedRational.parse("1/2"),
                                       ExtendedRational.parse("1/3"), 1), 5)
    broken = with_value(tables, "l", 3, tables.l(3) + 1)
    entry = lemma_row(broken)
    assert (entry.ok, entry.detail) == (False, "step 2->3")


def test_verify_deep_tower_passes(capsys):
    assert main(["verify", "--d", "1", "--depth", "16"]) == 0
    assert capsys.readouterr().out.endswith("all checks pass\n")
