"""Differential test: the tower and action suites against the longer forms
they replaced.

``check_unital``, ``verify_tower`` and ``check_equivariance`` are copied
below as they were, when ``check_unital`` recorded 17 entries per map,
``verify_tower`` a shape row per stage and ``check_equivariance`` five
entries per (map, g).  The maps they read stored their multiplicity
matrix, which ``build_connecting_map`` filled with
``multiplicity_matrix(tables, n)``; no map stores it now, so the copies
read that call where they read the field.  ``build_stage`` is copied with
them.

On clean tables in all three regimes at d = 1..3, the copies and
``cli.run_suites`` all pass.  On every map edit of the existing tamper
sets (arrows moved, dropped, duplicated or relabelled; a span's lo, hi,
kind or source changed) and on tables with r, l, d or d' corrupted,
wherever a copy records a failing entry the new ``tables``, ``tower`` and
``action`` suites of the same run fail too, and ``CATCHERS`` names the new
entries, at least one of which fails, for each old entry.  The old lemma
row compared r(k)*l(k+1) with r(k+1); the new one compares the column
sums with l(k+1), so an edited r is caught by the tables entry ``r(k+1)
multiplicative``.  Where a row
has no spans left, the old ``check_unital`` raised IndexError; the new
one must fail that row's coverage entry instead.
"""

import dataclasses
import functools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahtower.action import check_equivariance
from ahtower.cli import equivariance_report, run_suites, standard_generators
from ahtower.report import Checker, CheckReport
from ahtower.sequences import GrowthTables, tables_from_cli, verify_tables
from ahtower.tower import (BLOCK_B, BLOCK_C, KIND_COORD_PROJECTION,
                           KIND_POINT_EVAL_X, KIND_POINT_EVAL_Y,
                           KIND_STAR_EVAL, ConnectingMap, LatticeArrows,
                           lattice_maps, multiplicity_matrix, verify_tower)
from test_cli import EQUIVARIANCE_ENTRIES, UNITAL_ENTRIES
from test_document_reference import BlockSpec, StageSpec
from test_equivariance_replay import TAMPERINGS, tamper
from test_verify_reference import corrupt


# -- the suites, as they were -------------------------------------------------

def build_stage(tables: GrowthTables, n: int) -> StageSpec:
    return StageSpec(
        level=n,
        c_block=BlockSpec(components=tables.torus_points(n),
                          base_dimension=2 * tables.h(n) * tables.s(n),
                          matrix_size=tables.r(n)),
        b_block=BlockSpec(components=1,
                          base_dimension=2 * tables.h_prime(n) * tables.s_prime(n),
                          matrix_size=tables.r(n)))


def reference_check_unital(tables: GrowthTables,
                           cmap: ConnectingMap) -> CheckReport:
    n = cmap.level
    c = Checker()
    l_next = tables.l(n + 1)
    d_next, dp_next = tables.d(n + 1), tables.d_prime(n + 1)
    pts = tables.torus_points(n)
    c.check(f"r({n})*l({n + 1}) = r({n + 1})",
            tables.r(n) * l_next == tables.r(n + 1),
            lambda: f"{tables.r(n)}*{l_next}")

    described = cmap.described
    points = cmap.arrows.points if described else 0

    def detail(text):
        return text if described else cmap.not_described

    for target in (BLOCK_C, BLOCK_B):
        spans = cmap.spans_into(target)
        total = points + 1 + sum(s.count for s in spans)
        c.check(f"{target}-target total l({n + 1})",
                described and total == l_next,
                detail(lambda: f"total {total} vs l({n + 1}) = {l_next}"))
        c.check(f"{target}-target lattice slots covered once", described,
                detail(""))
        c.check(f"{target}-target star slot covered once", described,
                detail(""))
        runs = sorted((s.lo, s.hi) for s in spans)
        disjoint = all(a[1] < b[0] for a, b in zip(runs, runs[1:]))
        complete = (not runs) if d_next == 0 else (
            runs[0][0] == 1 and runs[-1][1] == d_next
            and all(a[1] + 1 == b[0] for a, b in zip(runs, runs[1:])))
        c.check(f"{target}-target projection slots covered once",
                disjoint and complete and all(s.lo <= s.hi for s in spans))

        by_kind = {KIND_POINT_EVAL_X: points, KIND_STAR_EVAL: 1}
        for s in spans:
            by_kind[s.kind] = by_kind.get(s.kind, 0) + s.count
        want = {KIND_POINT_EVAL_X: pts, KIND_STAR_EVAL: 1}
        if target == BLOCK_C:
            want[KIND_COORD_PROJECTION] = d_next
        else:
            want[KIND_COORD_PROJECTION] = dp_next
            if d_next > dp_next:
                want[KIND_POINT_EVAL_Y] = d_next - dp_next
        c.check(f"{target}-target census", described and by_kind == want,
                detail(lambda: f"{by_kind} vs {want}"))
        c.check(f"{target}-target sources",
                described
                and all(s.source == (BLOCK_C if target == BLOCK_C else BLOCK_B)
                        for s in spans if s.kind == KIND_COORD_PROJECTION)
                and all(s.source == BLOCK_B for s in spans
                        if s.kind == KIND_POINT_EVAL_Y), detail(""))
        c.check(f"{target}-target evaluation labels", described, detail(""))

    stored = multiplicity_matrix(tables, n)     # was cmap.multiplicity
    want_mult = multiplicity_matrix(tables, n)
    c.check("multiplicity matrix matches census", stored == want_mult)
    c.check("multiplicity per-target totals = l",
            set(stored.into_totals().values()) == {l_next})
    return c.report()


def reference_verify_tower(tables: GrowthTables,
                           maps: tuple[ConnectingMap, ...]) -> CheckReport:
    c = Checker()
    for n in range(tables.depth + 1):
        stage = build_stage(tables, n)
        c.check(f"stage {n} shape",
                stage.c_block.components == tables.torus_points(n)
                and stage.b_block.components == 1
                and stage.c_block.matrix_size == stage.b_block.matrix_size
                == tables.r(n)
                and stage.c_block.base_dimension % 2 == 0
                and stage.b_block.base_dimension % 2 == 0)
    for n, cmap in enumerate(maps):
        c.merge(reference_check_unital(tables, cmap), prefix=f"map {n}: ")
    failed = None
    for k in range(tables.depth):
        totals = multiplicity_matrix(tables, k).into_totals()
        if not (totals[BLOCK_C] == totals[BLOCK_B]
                and tables.r(k) * totals[BLOCK_C] == tables.r(k + 1)):
            failed = k
            break
    c.check("composed totals m->n = r(n)/r(m) (lemma)", failed is None,
            lambda: f"step {failed}->{failed + 1}")
    return c.report()


def reference_check_equivariance(cmap: ConnectingMap,
                                 g: tuple[int, ...]) -> CheckReport:
    if len(g) != cmap.d:
        raise ValueError(f"g has {len(g)} coordinates, map expects {cmap.d}")
    described = cmap.described
    c = Checker()
    for target in ("C", "B"):
        c.check(f"{target}-target census invariant under shift", described,
                cmap.not_described)
        c.check(f"{target}-target non-lattice arrows fixed pointwise",
                described, cmap.not_described)
    c.check("projection spans carry no lattice slots",
            all(s.kind != KIND_POINT_EVAL_X and s.lo >= 1
                for s in cmap.spans))
    return c.report()


# -- which new entry catches each old one ---------------------------------------

ARROWS = f"tower: map {{n}}: {UNITAL_ENTRIES[0]}"
SHIFT = f"action: map {{n}}: g={{g}} {EQUIVARIANCE_ENTRIES[0]}"
L_IDENTITY = "tables: l({m}) = d({m}) + 1 + 2^(dn-d)"

# old entry, as a template over its map n, the next level m = n + 1, its
# target row t and its generator g -> the new entries of the same run, at
# least one of which fails wherever the old entry does.
# An empty list is an old entry that no input fails: it compared a build
# with the values it was built from.
CATCHERS = {
    # the same identity r(n+1) = r(n)*l(n+1)
    "tower: map {n}: r({n})*l({m}) = r({m})": ["tables: r({m}) multiplicative"],
    # lattice and star slots sum to 2^(nd) + 1 by the lemma; covered spans
    # sum to d(n+1); with the l identity the total is l(n+1)
    "tower: map {n}: {t}-target total l({m})": [
        ARROWS, "tower: map {n}: {t}-target projection slots covered once",
        "tower: map {n}: {t}-target census", L_IDENTITY],
    "tower: map {n}: {t}-target lattice slots covered once": [ARROWS],
    "tower: map {n}: {t}-target star slot covered once": [ARROWS],
    "tower: map {n}: {t}-target evaluation labels": [ARROWS],
    # kept: the census and the sources of the spans, beside the lemma
    "tower: map {n}: {t}-target projection slots covered once": [
        "tower: map {n}: {t}-target projection slots covered once"],
    "tower: map {n}: {t}-target census": [
        ARROWS, "tower: map {n}: {t}-target census"],
    "tower: map {n}: {t}-target sources": [
        ARROWS, "tower: map {n}: {t}-target sources"],
    "tower: map {n}: multiplicity matrix matches census": [],
    # its column totals are 2^(nd) + d(n+1) + 1
    "tower: map {n}: multiplicity per-target totals = l": [L_IDENTITY],
    "tower: stage {n} shape": [],
    # the lemma row now reads l(k+1) for r(k+1)/r(k): an edited r fails
    # the tables entry "r(k+1) multiplicative" at some step k of the runs
    # below, none deeper than 4
    "tower: composed totals m->n = r(n)/r(m) (lemma)": [
        "tower: composed totals m->n = r(n)/r(m) (lemma)",
        *(f"tables: r({m}) multiplicative" for m in range(1, 5))],
    "action: map {n}: g={g} {t}-target census invariant under shift": [SHIFT],
    "action: map {n}: g={g} {t}-target non-lattice arrows fixed pointwise": [
        SHIFT],
    # a pointEvalX span fails its row's census, and lo < 1 its coverage
    "action: map {n}: g={g} projection spans carry no lattice slots": [
        f"tower: map {{n}}: {t}-target {entry}" for t in (BLOCK_C, BLOCK_B)
        for entry in ("projection slots covered once", "census")],
}


def _pattern(template):
    fields = {"n": r"(?P<n>\d+)", "m": r"(?P<m>\d+)", "t": "(?P<t>[CB])",
              "g": r"(?P<g>\([-\d, ]*\))"}
    out, seen = "", set()
    for literal, field in re.findall(r"([^{]*)(?:\{(\w)\})?", template):
        out += re.escape(literal)
        if field:
            out += f"(?P={field})" if field in seen else fields[field]
            seen.add(field)
    return re.compile(out)


PATTERNS = [(_pattern(old), new) for old, new in CATCHERS.items()]


def catchers(old_name):
    """The new entries that catch the old entry ``old_name``."""
    for pattern, new in PATTERNS:
        match = pattern.fullmatch(old_name)
        if match:
            fields = match.groupdict()
            if fields.get("n") is not None:
                fields["m"] = str(int(fields["n"]) + 1)
            return [name.format(**fields) for name in new]
    raise AssertionError(f"no catcher is named for {old_name!r}")


# -- runs ---------------------------------------------------------------------

REGIMES = [("1/2", "1/3"), ("inf", "5/2"), ("inf", "inf")]
DEPTH = {1: 4, 2: 3, 3: 2}


@functools.lru_cache(maxsize=None)
def clean_tables(regime, d):
    return tables_from_cli(*regime, d, DEPTH[d])


def failing(tables, maps, reference):
    """The failing entries of the old suites (``reference``) or the new ones,
    each named ``suite: entry``, with the action's entries under their
    map."""
    if reference:
        reports = [("tower", reference_verify_tower(tables, maps))]
        shift = reference_check_equivariance
    else:
        reports = [("tables", verify_tables(tables)),
                   ("tower", verify_tower(tables, maps))]
        shift = check_equivariance
    names = {f"{label}: {e.name}" for label, report in reports
             for e in report.entries if not e.ok}
    names |= {f"action: map {n}: g={g} {e.name}"
              for n, cmap in enumerate(maps)
              for g in standard_generators(tables.params.d)
              for e in shift(cmap, g).entries if not e.ok}
    return names


def old_failing(tables, maps):
    """``failing`` of the old suites, or None where they raised."""
    try:
        return failing(tables, maps, reference=True)
    except IndexError:      # a row with no spans
        return None


def assert_nothing_weaker(tables, maps):
    old = old_failing(tables, maps)
    if old == set():
        return
    # the suites as the CLI runs them fail ...
    suites = [verify_tables(tables), verify_tower(tables, maps),
              equivariance_report(tables, maps)]
    assert not all(report.ok for report in suites), old
    # ... and for each old entry, one of the entries named for it
    new = failing(tables, maps, reference=False)
    if old is None:
        assert any(name.endswith("-target projection slots covered once")
                   for name in new), sorted(new)
        return
    for name in sorted(old):
        assert set(catchers(name)) & new, (name, sorted(new))


# -- clean runs ---------------------------------------------------------------

@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_clean_runs_pass_both_forms(regime, d):
    tables = clean_tables(regime, d)
    maps = lattice_maps(tables)
    assert failing(tables, maps, reference=True) == set()
    for label, report in run_suites(tables):
        assert report.ok, (label, report.first_failure)
    # every old entry has a catcher named
    names = [f"tower: {e.name}"
             for e in reference_verify_tower(tables, maps).entries]
    names += [f"action: map {n}: g={g} {e.name}"
              for n, cmap in enumerate(maps) for g in standard_generators(d)
              for e in reference_check_equivariance(cmap, g).entries]
    for name in names:
        catchers(name)


def test_catchers_are_new_entry_names():
    # depth 4, deep enough for every r(m) that the lemma's catchers name
    tables = tables_from_cli(*REGIMES[0], 2, 4)
    maps = lattice_maps(tables)
    names = {f"tables: {e.name}" for e in verify_tables(tables).entries}
    names |= {f"tower: {e.name}"
              for e in verify_tower(tables, maps).entries}
    names |= {f"action: map {n}: g={g} {e.name}"
              for n, cmap in enumerate(maps)
              for g in standard_generators(2)
              for e in check_equivariance(cmap, g).entries}
    fields = {"n": "1", "m": "2", "t": "B", "g": "(1, 1)"}
    for new in CATCHERS.values():
        for name in new:
            assert name.format(**fields) in names, name


# -- edited maps --------------------------------------------------------------

def with_map(tables, n, cmap):
    maps = lattice_maps(tables)
    return maps[:n] + (cmap,) + maps[n + 1:]


def span_edits(cmap):
    """Each span with its lo, hi, kind, source or target changed, dropped
    or duplicated."""
    kinds = (KIND_COORD_PROJECTION, KIND_POINT_EVAL_Y, KIND_POINT_EVAL_X,
             KIND_STAR_EVAL)
    other = {BLOCK_C: BLOCK_B, BLOCK_B: BLOCK_C}
    for i, s in enumerate(cmap.spans):
        changes = [dict(lo=s.lo + 1), dict(lo=s.lo - 1), dict(lo=0),
                   dict(hi=s.hi + 1), dict(hi=s.hi - 1),
                   dict(source=other[s.source]),
                   dict(target=other[s.target]),
                   *(dict(kind=k) for k in kinds if k != s.kind)]
        for change in changes:
            spans = list(cmap.spans)
            spans[i] = dataclasses.replace(s, **change)
            yield dataclasses.replace(cmap, spans=tuple(spans))
        yield dataclasses.replace(cmap, spans=cmap.spans[:i]
                                  + cmap.spans[i + 1:])
        yield dataclasses.replace(cmap, spans=cmap.spans + (s,))


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_span_edits_are_caught(regime, d):
    tables = clean_tables(regime, d)
    edits = 0
    for n, cmap in enumerate(lattice_maps(tables)):
        for edited in span_edits(cmap):
            maps = with_map(tables, n, edited)
            assert old_failing(tables, maps) != set(), edited.spans
            assert_nothing_weaker(tables, maps)
            edits += 1
    assert edits


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_other_lattices_are_caught(regime, d):
    tables = clean_tables(regime, d)
    for n, cmap in enumerate(lattice_maps(tables)):
        for wrong in (LatticeArrows(d, n + 1), LatticeArrows(d + 1, n)):
            for arrows in (wrong, tuple(wrong), tuple(cmap.arrows)):
                maps = with_map(tables, n,
                                dataclasses.replace(cmap, arrows=arrows))
                assert_nothing_weaker(tables, maps)


@given(st.sampled_from(REGIMES), st.sampled_from([1, 2, 3]),
       st.sampled_from(TAMPERINGS), st.data())
@settings(max_examples=150, deadline=None)
def test_arrow_edits_are_caught(regime, d, how, data):
    tables = clean_tables(regime, d)
    n = data.draw(st.integers(0, tables.depth - 1))
    cmap = lattice_maps(tables)[n]
    spelled = dataclasses.replace(cmap, arrows=tuple(cmap.arrows))
    if how != "none":
        spelled = tamper(spelled, how, data.draw)
    maps = with_map(tables, n, spelled)
    assert failing(tables, maps, reference=True)
    assert_nothing_weaker(tables, maps)


# -- corrupted tables ---------------------------------------------------------

@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("field", ["r", "l", "d", "d'"])
def test_corrupted_tables_are_caught(regime, d, field):
    clean = clean_tables(regime, d)
    caught = 0
    for level in range(clean.depth + 1):
        for how in range(6):
            tables = corrupt(clean, field, level, how, 3)
            maps = lattice_maps(tables)
            caught += old_failing(tables, maps) != set()
            assert_nothing_weaker(tables, maps)
    # r and l always reach an old entry; d and d' reach one through the
    # spans and the totals
    assert caught
