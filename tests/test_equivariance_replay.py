"""The per-arrow replay of the shift as a test-side oracle.

``check_equivariance`` reads a map's lattice arrows off its description,
``LatticeArrows``, by the translation lemma.  The replay below pushes every
arrow of a map spelled out as a tuple forward and compares censuses, in
the five entries ``check_equivariance`` recorded before its one lemma
entry: on a spelled-out built map it passes where the lemma does, and it
sees every tampering, which ``check_equivariance`` refuses as an edited
map."""

import dataclasses
import functools
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from ahtower.action import check_equivariance
from ahtower.report import Checker
from ahtower.sequences import tables_from_cli
from ahtower.tower import (KIND_POINT_EVAL_X, KIND_STAR_EVAL, Arrow,
                           TorusSlot, build_connecting_map)
from test_cli import EQUIVARIANCE_ENTRIES


def reference_check_equivariance(cmap, g):
    """The per-arrow replay: every pushed arrow is a new ``Arrow``, its
    slot and label translated by g mod 2^level here, not by the package."""
    if len(g) != cmap.d:
        raise ValueError(f"g has {len(g)} coordinates, map expects {cmap.d}")
    modulus = 2 ** cmap.level
    c = Checker()

    def move(point):
        return tuple((p + s) % modulus for p, s in zip(point, g))

    def image(arrow):
        eval_point = arrow.eval_point
        if arrow.kind == KIND_POINT_EVAL_X and eval_point is not None:
            eval_point = move(eval_point)
        slot = arrow.slot
        if isinstance(slot, TorusSlot):
            slot = TorusSlot(move(slot.point))
        return Arrow(arrow.source, arrow.target, arrow.kind, slot, eval_point)

    for target in ("C", "B"):
        original = [a for a in cmap.arrows if a.target == target]
        pushed = [image(a) for a in original]
        missing = Counter(pushed) - Counter(original)
        detail = ""
        if missing:
            a = next(iter(missing))
            detail = (f"pushed arrow has no partner: {a.kind} at slot "
                      f"{a.slot} label {a.eval_point}")
        c.check(f"{target}-target census invariant under shift",
                not missing and len(pushed) == len(original), detail)
        c.check(f"{target}-target non-lattice arrows fixed pointwise",
                all(image(a) == a for a in original
                    if not isinstance(a.slot, TorusSlot)))
    c.check("projection spans carry no lattice slots",
            all(s.kind != KIND_POINT_EVAL_X and s.lo >= 1
                for s in cmap.spans))
    return c.report()


@functools.lru_cache(maxsize=None)
def small_map(d, level):
    return build_connecting_map(tables_from_cli("1/2", "1/3", d, 4), level)


def tamper(cmap, how, draw):
    arrows = list(cmap.arrows)
    lattice = [i for i, a in enumerate(arrows) if isinstance(a.slot, TorusSlot)]
    stars = [i for i, a in enumerate(arrows) if a.kind == KIND_STAR_EVAL]
    points = st.tuples(*[st.integers(0, 2 ** cmap.level - 1)] * cmap.d)
    if how == "moved label":
        i = draw(st.sampled_from(lattice))
        arrows[i] = dataclasses.replace(arrows[i], eval_point=draw(points))
    elif how == "moved slot":
        i = draw(st.sampled_from(lattice))
        arrows[i] = dataclasses.replace(arrows[i],
                                        slot=TorusSlot(draw(points)))
    elif how == "label on a star arrow":
        i = draw(st.sampled_from(stars))
        arrows[i] = dataclasses.replace(arrows[i], eval_point=draw(points))
    elif how == "point outside the lattice":
        i = draw(st.sampled_from(lattice))
        point = (2 ** cmap.level + 1,) + arrows[i].slot.point[1:]
        field = draw(st.sampled_from(["slot", "eval_point", "both"]))
        changes = {}
        if field in ("slot", "both"):
            changes["slot"] = TorusSlot(point)
        if field in ("eval_point", "both"):
            changes["eval_point"] = point
        arrows[i] = dataclasses.replace(arrows[i], **changes)
    elif how == "dropped arrow":
        del arrows[draw(st.integers(0, len(arrows) - 1))]
    elif how == "duplicated arrow":
        arrows.append(arrows[draw(st.integers(0, len(arrows) - 1))])
    elif how == "swapped kinds":
        i = draw(st.integers(0, len(arrows) - 1))
        j = draw(st.integers(0, len(arrows) - 1))
        arrows[i], arrows[j] = (dataclasses.replace(arrows[i],
                                                    kind=arrows[j].kind),
                                dataclasses.replace(arrows[j],
                                                    kind=arrows[i].kind))
    return dataclasses.replace(cmap, arrows=tuple(arrows))


TAMPERINGS = ["none", "moved label", "moved slot", "label on a star arrow",
              "point outside the lattice", "dropped arrow",
              "duplicated arrow", "swapped kinds"]

COORDINATES = st.one_of(st.integers(-20, 20),
                        st.integers(-2 ** 70, 2 ** 70))


@given(st.integers(1, 3), st.integers(0, 3), st.sampled_from(TAMPERINGS),
       st.data())
@settings(max_examples=300, deadline=None)
def test_replay_matches_per_arrow_reference(d, level, how, data):
    # the replay of the spelled-out map agrees with the lemma on the built
    # map; any edit, even one the replay cannot see (a shift by a multiple
    # of 2^level, or a label moved onto itself), fails the lemma entry
    cmap = small_map(d, level)
    spelled = dataclasses.replace(cmap, arrows=tuple(cmap.arrows))
    if how != "none":
        spelled = tamper(spelled, how, data.draw)
    g = data.draw(st.tuples(*[COORDINATES] * d))
    report = check_equivariance(cmap, g)
    if how == "none":
        assert report.ok
        assert reference_check_equivariance(spelled, g).ok
    report = check_equivariance(spelled, g)
    assert [e.name for e in report.entries if not e.ok] == \
        EQUIVARIANCE_ENTRIES
    assert {e.detail for e in report.entries if not e.ok} == \
        {f"arrows are not LatticeArrows(d={d}, level={level})"}


def test_reference_sees_each_tampering():
    # the tamperings below fail the replay, so the oracle of the lemma
    # tests is one that can fail; check_equivariance refuses each of them
    cmap = small_map(1, 2)
    spelled = tuple(cmap.arrows)
    lattice = [i for i, a in enumerate(spelled)
               if isinstance(a.slot, TorusSlot)]
    star = next(i for i, a in enumerate(spelled)
                if a.kind == KIND_STAR_EVAL)
    i = lattice[1]
    cases = {
        "moved label": [(i, dict(eval_point=(3,)))],
        "moved slot": [(i, dict(slot=TorusSlot((3,))))],
        "point outside the lattice": [(i, dict(slot=TorusSlot((5,))))],
        "swapped kinds": [(i, dict(kind=KIND_STAR_EVAL)),
                          (star, dict(kind=KIND_POINT_EVAL_X,
                                      eval_point=(0,)))],
    }
    tampered = []
    for how, edits in cases.items():
        arrows = list(spelled)
        for j, change in edits:
            arrows[j] = dataclasses.replace(arrows[j], **change)
        tampered.append((how, tuple(arrows)))
    tampered += [("dropped arrow", spelled[:i] + spelled[i + 1:]),
                 ("duplicated arrow", spelled + spelled[i:i + 1])]
    clean = dataclasses.replace(cmap, arrows=spelled)
    assert reference_check_equivariance(clean, (1,)).ok
    for how, arrows in tampered:
        edited = dataclasses.replace(cmap, arrows=arrows)
        assert not reference_check_equivariance(edited, (1,)).ok, how
        assert not check_equivariance(edited, (1,)).ok, how
