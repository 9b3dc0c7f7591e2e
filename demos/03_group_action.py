"""
Shift action on the lattice row
===============================

Each level n carries a copy of Z_{2^n}^d indexing the C-row summands, and
the group acts by translating that index.  The B row is a single merged
summand and never moves.
"""

from ahtower import (
    build_connecting_map,
    check_equivariance,
    level_permutation,
    outerness_witness,
    tables_from_cli,
)

t = tables_from_cli("1/2", "1/3", d=1, depth=4)

# orbit of the origin at stage 3 under the generator
perm = level_permutation((1,), 3)
point, orbit = (0,), []
while point not in orbit:
    orbit.append(point)
    point = perm.apply_point(point)
print("orbit of (0,) at stage 3 under +1:", orbit)

# doubling the shift halves the orbit
perm2 = level_permutation((2,), 3)
point, orbit = (0,), []
while point not in orbit:
    orbit.append(point)
    point = perm2.apply_point(point)
print("orbit of (0,) at stage 3 under +2:", orbit)
print()

# every connecting map commutes with the shift, which is the exact
# statement making the action well defined on the limit
for n in range(4):
    report = check_equivariance(build_connecting_map(t, n), (1,))
    print(f"map {n} equivariant under +1: {report.ok} "
          f"({len(report.entries)} checks)")
print()

# the witness level for outerness is decided by 2-adic valuations: the
# first stage whose lattice is fine enough to separate g from 0
print(f"{'g':>10} {'witness level':>14} {'separated pair'}")
for g in [(1,), (2,), (4,), (6,), (8,), (2, 4), (0, 3)]:
    w = outerness_witness(g)
    print(f"{str(g):>10} {w.level:>14} {w.base_slot} vs {w.moved_slot}")

# rank-2 sanity: the generators and the diagonal all commute with the maps
t2 = tables_from_cli("1/2", "1/3", d=2, depth=2)
for g in [(1, 0), (0, 1), (1, 1)]:
    assert check_equivariance(build_connecting_map(t2, 1), g).ok
print()
print("rank-2 generators pass on the depth-2 tower")
