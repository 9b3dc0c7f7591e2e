import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahtower.action import (check_equivariance, level_permutation,
                            outerness_witness, two_adic_valuation)
from ahtower.rational import ExtendedRational
from ahtower.sequences import TargetParams, build_tables
from ahtower.tower import TorusSlot, build_connecting_map


def tables_for(r, rp, d=1, depth=4):
    return build_tables(
        TargetParams(ExtendedRational.parse(r), ExtendedRational.parse(rp), d),
        depth)


def test_level_zero_is_identity():
    perm = level_permutation((5,), 0)
    assert not any(perm.shift)
    assert perm.apply_point((0,)) == (0,)


def test_permutation_moves_lattice_only():
    perm = level_permutation((1, 6), 2)       # modulus 4
    assert perm.shift == (1, 2)
    assert perm.apply_point((3, 3)) == (0, 1)
    # the star and projection slots of a map stay put under the shift
    cmap = build_connecting_map(tables_for("3/4", "1/4", d=2, depth=3), 2)
    rep = check_equivariance(cmap, (1, 6))
    assert [(e.name, e.ok) for e in rep.entries] \
        == [("census invariant under shift (lemma)", True)]


def test_tower_permutations_shape():
    perms = [level_permutation((3,), level) for level in range(4)]
    assert [p.level for p in perms] == [0, 1, 2, 3]
    assert [p.modulus for p in perms] == [1, 2, 4, 8]
    assert perms[2].shift == (3,)


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(0, 5),
       st.integers(-40, 40))
@settings(max_examples=60)
def test_action_law(a, b, level, z):
    one = level_permutation((a,), level)
    other = level_permutation((b,), level)
    both = level_permutation((a + b,), level)
    point = (z % 2 ** level,)
    assert other.apply_point(one.apply_point(point)) == both.apply_point(point)


def test_equivariance_green_small():
    t = tables_for("1/2", "1/3", depth=4)
    for n in range(4):
        cmap = build_connecting_map(t, n)
        for g in [(1,), (2,), (1 - 2 ** n,), (0,)]:
            rep = check_equivariance(cmap, g)
            assert rep.ok, rep.first_failure


def test_equivariance_green_rank_two():
    t = tables_for("3/4", "1/4", d=2, depth=3)
    for n in range(3):
        cmap = build_connecting_map(t, n)
        for g in [(1, 0), (0, 1), (1, 1), (3, -2)]:
            assert check_equivariance(cmap, g).ok


def test_equivariance_negative_control():
    # crossing the evaluation labels of two arrows makes the map an
    # edited one, which is not its own description
    t = tables_for("1/2", "1/3", depth=3)
    cmap = build_connecting_map(t, 2)
    z1, z2 = (0,), (1,)

    def tamper(a):
        if a.target == "C" and a.kind == "pointEvalX":
            if a.slot == TorusSlot(z1):
                return dataclasses.replace(a, eval_point=z2)
            if a.slot == TorusSlot(z2):
                return dataclasses.replace(a, eval_point=z1)
        return a

    mutated = dataclasses.replace(cmap, arrows=tuple(map(tamper, cmap.arrows)))
    rep = check_equivariance(mutated, (1,))
    assert not rep.ok
    bad = rep.first_failure
    assert bad.name == "census invariant under shift (lemma)"
    assert bad.detail == "arrows are not LatticeArrows(d=1, level=2)"


def test_equivariance_rejects_wrong_rank():
    t = tables_for("1/2", "1/2", depth=2)
    cmap = build_connecting_map(t, 1)
    with pytest.raises(ValueError):
        check_equivariance(cmap, (1, 0))


def test_two_adic_valuation():
    assert [two_adic_valuation(x) for x in (1, 2, 3, 4, 12, -8)] == [0, 1, 0, 2, 2, 3]
    with pytest.raises(ValueError):
        two_adic_valuation(0)


def test_outerness_examples():
    assert outerness_witness((1,)).level == 1
    assert outerness_witness((2,)).level == 2
    assert outerness_witness((-4,)).level == 3
    assert outerness_witness((0, 2)).level == 2
    assert outerness_witness((3, 8)).level == 1
    w = outerness_witness((2, 4))
    assert w.level == 2 and w.moved_slot == (2, 0) and w.separated


def test_outerness_level_moves_the_map_slots():
    # the witness level names a stage: the permutation there moves the
    # origin slot of the map out of that stage, and every lower level is
    # the identity
    line = tables_for("1/2", "1/3", depth=4)
    plane = tables_for("3/4", "1/4", d=2, depth=3)
    for g in [(1,), (2,), (3,), (4,), (6,), (1, 2), (2, 4)]:
        w = outerness_witness(g)
        cmap = build_connecting_map(line if len(g) == 1 else plane, w.level)
        slots = {a.slot for a in cmap.arrows if isinstance(a.slot, TorusSlot)}
        perm = level_permutation(g, cmap.level)
        assert perm.apply_point(w.base_slot) == w.moved_slot
        assert TorusSlot(w.moved_slot) in slots and w.separated
        for level in range(w.level):
            assert not any(level_permutation(g, level).shift)


def test_outerness_rejects_zero():
    with pytest.raises(ValueError):
        outerness_witness((0, 0))


def test_outerness_matches_direct_definition():
    for d in (1, 2):
        for g in itertools.product(range(-4, 5), repeat=d):
            if all(x == 0 for x in g):
                continue
            w = outerness_witness(g)
            direct = next(n for n in range(1, 64)
                          if any(x % 2 ** n != 0 for x in g))
            assert w.level == direct
            assert all(x % 2 ** (w.level - 1) == 0 for x in g)
            assert w.separated
