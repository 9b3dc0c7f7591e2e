"""Seeded inputs for the three workloads: one pass as a list of CLI calls.

Every pass of a run repeats the same calls.  A call is one operation; it
fails when `ahtower.cli.main` returns anything but 0.  Emitting calls
(`plan`, `witness`, `export`, `chern`) and checking calls (`verify`,
`verify FILE`) are timed separately.  Each call names the check that the
benchmark runs on its output after the pass, outside the timed region.

Inputs are drawn with `oracle` alone, so generating them never calls the
program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle

EMIT, CHECK = "emit", "check"

# The int->str limit of CPython (4300 decimal digits) is about 14284 bits;
# every integer a sweep document serializes stays below this many bits.
SERIAL_BITS = 14000


@dataclass
class Op:
    """One CLI call: argv, where its output goes, and how to check it."""

    kind: str                     # EMIT or CHECK
    argv: list[str]
    out: str                      # file name inside the pass directory
    check: str                    # key into bench.CHECKS
    reads: str | None = None      # file this call verifies (must exist)
    context: dict = field(default_factory=dict)
    cliff: bool = False           # expected to fail until the cliff is mended


@dataclass
class Workload:
    ops: list[Op]
    notes: dict                   # the drawn inputs, kept with the results


def target_flags(con_args: dict, d: int, depth: int) -> list[str]:
    flags = ["--r", con_args["r"], "--r-prime", con_args["r_prime"],
             "--d", str(d), "--depth", str(depth)]
    if con_args.get("c") is not None:
        flags += ["--c", con_args["c"]]
    return flags


# ----------------------------------------------------------------------
# certify-sweep
# ----------------------------------------------------------------------

REGIMES = ("finite-finite", "infinite-finite", "infinite-infinite")


def draw_targets(rng: random.Random, regime: str) -> dict:
    """Radii as the CLI spells them: r = a/b with a <= 27 and b <= 9 and
    r' = r*j/8 with j <= 8 (or r' alone), or c in (0, 1) with denominator
    at most 16."""
    if regime == "finite-finite":
        r = Fraction(rng.randint(1, 27), rng.randint(2, 9))
        rp = r * Fraction(rng.randint(1, 8), 8)
        return {"r": str(r), "r_prime": str(rp), "c": None}
    if regime == "infinite-finite":
        rp = Fraction(rng.randint(1, 27), rng.randint(2, 9))
        return {"r": "inf", "r_prime": str(rp), "c": None}
    b = rng.randint(2, 16)
    c = Fraction(rng.randint(1, b - 1), b)
    return {"r": "inf", "r_prime": "inf", "c": str(c)}


def construction(targets: dict, d: int) -> oracle.Construction:
    return oracle.Construction.from_targets(
        oracle.parse_target(targets["r"]),
        oracle.parse_target(targets["r_prime"]), d,
        Fraction(targets["c"]) if targets["c"] else Fraction(1, 2))


def draw_rhos(rng: random.Random, con: oracle.Construction,
              seq: oracle.Sequences, depth: int, crossed: bool,
              count: int) -> list[Fraction] | None:
    """``count`` rho values, stratified over (0, bound), each with a witness.

    A finite radius bounds rho by the radius itself; an infinite one by
    4*kappa, which keeps the witness level n at 3 or below so the ledger's
    h(n)s(n)r(m) operands stay serializable.  None when a draw fails.
    """
    radius, kap, _, _ = oracle.witness_side(con, crossed)
    bound = radius if radius is not None else 4 * kap
    rhos = []
    for i in range(count):
        a = rng.randint(64 * i + 1, 64 * (i + 1) - 1)
        rho = bound * Fraction(a, 64 * count)
        n = next((k for k in range(1, depth + 1)
                  if oracle.admissible(con, seq, crossed, rho, k)), None)
        if n is None or seq.r[depth].bit_length() \
                + 2 * seq.r[n].bit_length() + con.d * depth + 64 > SERIAL_BITS:
            return None
        rhos.append(rho)
    return rhos


def sweep_point(rng: random.Random, regime: str, d: int, depths: range,
                bits: tuple[int, int], rho_count: int):
    """Targets, depth and rhos for one point, redrawn until they fit.

    The depth is the deepest in ``depths`` whose r(depth) stays at or below
    ``bits[1]`` bits, and the draw is kept only if r(depth) has at least
    ``bits[0]`` bits, so every point costs about the same.
    """
    while True:
        targets = draw_targets(rng, regime)
        con = construction(targets, d)
        seq = oracle.sequences(con, depths[-1])
        depth = next((k for k in reversed(depths)
                      if seq.r[k].bit_length() <= bits[1]), None)
        if depth is None or seq.r[depth].bit_length() < bits[0]:
            continue
        plain = draw_rhos(rng, con, seq, depth, False, rho_count)
        crossed = draw_rhos(rng, con, seq, depth, True, rho_count)
        if plain and crossed:
            return targets, depth, plain, crossed, seq.r[depth].bit_length()


def certify_ops(tag: str, targets: dict, d: int, depth: int,
                plain: list[Fraction], crossed: list[Fraction],
                cliff: bool = False) -> list[Op]:
    flags = target_flags(targets, d, depth)
    ops = [Op(EMIT, ["plan", *flags], f"{tag}.tables.json", "tables",
              cliff=cliff),
           Op(CHECK, ["verify"], f"{tag}.tables.out", "verify_tables",
              reads=f"{tag}.tables.json")]
    for flavour, rhos in (("plain", plain), ("crossed", crossed)):
        extra = ["--crossed"] if flavour == "crossed" else []
        for i, rho in enumerate(rhos):
            name = f"{tag}.{flavour}{i}"
            ops.append(Op(EMIT, ["witness", *extra, *flags, "--rho", str(rho)],
                          f"{name}.json", "witness", cliff=cliff,
                          context={"rho": str(rho),
                                   "crossed": flavour == "crossed"}))
            ops.append(Op(CHECK, ["verify"], f"{name}.out", "verify_witness",
                          reads=f"{name}.json"))
    return ops


def certify_sweep(seed: int, small: bool) -> Workload:
    """Big exact integers and documents, no lattice enumeration.

    For each of the three regimes and each d in {1, 2, 3}: two points at
    the top of what the program serializes today (d=1 at depth 11-12, d=2 at
    11-12, d=3 at 10-11, with r(depth) between 12500 and 13500 bits), each
    with `plan`, `verify FILE`, and three values of rho for `witness` and
    `witness --crossed`, each followed by `verify FILE`.  Then the one cliff
    case: d=1, r=1/2, r'=1/3 at depth 13, fixed and independent of the seed.
    """
    rng = random.Random(seed)
    points, rhos = (1, 1) if small else (2, 3)
    depth_ranges = {1: range(11, 13), 2: range(11, 13), 3: range(10, 12)}
    bits = (12500, 13500)
    if small:
        depth_ranges = {1: range(4, 6), 2: range(3, 5), 3: range(2, 4)}
        bits = (1, 400)
    ops, notes = [], {"points": []}
    for regime in REGIMES:
        for d in (1, 2, 3):
            for k in range(points):
                targets, depth, plain, crossed, r_bits = sweep_point(
                    rng, regime, d, depth_ranges[d], bits, rhos)
                tag = f"{regime}.d{d}.{k}"
                ops += certify_ops(tag, targets, d, depth, plain, crossed)
                notes["points"].append({"regime": regime, "d": d,
                                        "depth": depth, "rBits": r_bits,
                                        **targets})
    cliff_targets = {"r": "1/2", "r_prime": "1/3", "c": None}
    ops += certify_ops("cliff", cliff_targets, 1, 13, [Fraction(1, 4)], [],
                       cliff=True)
    return Workload(ops, notes)


# ----------------------------------------------------------------------
# lattice-enum
# ----------------------------------------------------------------------

def lattice_enum(seed: int, small: bool) -> Workload:
    """Small integers, large lattices: `verify` at d=3 depth 7 and d=2 depth
    8 (r=1/2, r'=1/3), and `chern --k 12` before, between and after them.
    A run times only two of these 16-second passes, so the one-second
    `chern` call is made at three points of each pass, where the host may
    run at three different speeds.  The inputs are fixed: the seed does not change them."""
    targets = {"r": "1/2", "r_prime": "1/3", "c": None}
    settings = [(3, 3), (2, 4)] if small else [(3, 7), (2, 8)]
    k = 4 if small else 12
    ops = []
    for i, (d, depth) in enumerate(settings):
        ops.append(Op(EMIT, ["chern", "--k", str(k)], f"chern.k{k}.{i}.json",
                      "chern"))
        ops.append(Op(CHECK, ["verify", *target_flags(targets, d, depth)],
                      f"verify.d{d}.depth{depth}.out", "verify_suite"))
    ops.append(Op(EMIT, ["chern", "--k", str(k)], f"chern.k{k}.json", "chern"))
    return Workload(ops, {"settings": settings, "k": k})


# ----------------------------------------------------------------------
# diagram-roundtrip
# ----------------------------------------------------------------------

def banded_targets(rng: random.Random, d: int, depth: int) -> dict:
    """Radii in a seeded regime whose r(depth) is within 5% of the bit
    length that r = 1/2, r' = 1/3 gives, so every seed renders numbers of
    about the same size."""
    reference = oracle.sequences(oracle.Construction.from_targets(
        Fraction(1, 2), Fraction(1, 3), d), depth).r[depth].bit_length()
    regime = rng.choice(REGIMES)
    while True:
        targets = draw_targets(rng, regime)
        bits = oracle.sequences(construction(targets, d),
                                depth).r[depth].bit_length()
        if abs(bits - reference) <= 0.05 * reference:
            return targets


def diagram_roundtrip(seed: int, small: bool) -> Workload:
    """`export --format json` and `--format dot`, then `verify FILE` on the
    JSON, at (d=1, depth 10), (d=2, depth 5) and (d=3, depth 3); each
    setting draws its radii from the seed (see `banded_targets`)."""
    rng = random.Random(seed)
    settings = [(1, 4), (2, 2), (3, 1)] if small else [(1, 10), (2, 5), (3, 3)]
    ops, notes = [], {"settings": []}
    for d, depth in settings:
        targets = banded_targets(rng, d, depth)
        flags = target_flags(targets, d, depth)
        tag = f"diagram.d{d}.depth{depth}"
        ops.append(Op(EMIT, ["export", "--format", "json", *flags],
                      f"{tag}.json", "diagram_json"))
        ops.append(Op(EMIT, ["export", "--format", "dot", *flags],
                      f"{tag}.dot", "diagram_dot",
                      context={"json": f"{tag}.json"}))
        ops.append(Op(CHECK, ["verify"], f"{tag}.out", "verify_diagram",
                      reads=f"{tag}.json"))
        notes["settings"].append({"d": d, "depth": depth, **targets})
    return Workload(ops, notes)


WORKLOADS = {
    "certify-sweep": certify_sweep,
    "lattice-enum": lattice_enum,
    "diagram-roundtrip": diagram_roundtrip,
}
