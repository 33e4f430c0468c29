"""Seeded input generators for the three workloads.

Everything here is plain integers and floats drawn from `random.Random`;
nothing imports dyadiff, so the library under test receives only the
generated inputs.  Each workload is cut into blocks with a fixed
composition, and block `b` of seed `n` is drawn from its own generator
(`seeded_rng(workload, seed, b)`), so any block can be regenerated on its
own and two calls with the same arguments return equal values.
"""

from __future__ import annotations

import math
import random

# metric_queries: every (s, t) cell appears twice in a block, plus EDGE_ROWS
# rows at s = 0.01, where the spectral route and the ball search currently
# stop with CapExceeded at max_depth 200.
S_GRID = (0.1, 0.5, 1.0, 2.0)
T_GRID = (1e-3, 1.0, 1e3)
CELLS = tuple((s, t) for s in S_GRID for t in T_GRID)
EDGE_CELL = (0.01, 1.0)
ROWS_PER_CELL = 2
EDGE_ROWS = 1
ROW_WIDTH = 64
MAX_EXPONENT = 48
MAX_MAGNITUDE_BITS = 24
SPECTRAL_PAIRS = 4
BALLS_PER_ROW = 3

# heat_evolve: one job per level spread 0..10 in every block, so a tenth of
# jobs (three of eleven) have spread >= 8 and every block costs the same.
SPREADS = tuple(range(11))
MIN_COEFFS, MAX_COEFFS = 4, 16
QUERIES = 4

# cli_cold: one call of each subcommand per block, in this order, on the
# (s, t) grid of `dyadiff verify`.  At s = 0.1 `profile` stops with an
# uncaught QuadratureError from c_t_s (see README), so that order is left to
# metric_queries, which does not call c_t_s.
CLI_S_GRID = (0.25, 0.5, 1.0, 2.0)
CLI_T_GRID = (0.1, 1.0, 10.0)
CLI_COMMANDS = ("delta", "distance", "ball", "profile", "evolve", "verify")
CLI_MAX_SPREAD = 4
CLI_QUERIES = 2


def seeded_rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _point_near(rng, anchor, exponent):
    """A point at `exponent` sharing the anchor's dyadic interval at a
    random level, so delta(anchor, point) spans many scales."""
    m, e = anchor
    level = rng.randint(-MAX_MAGNITUDE_BITS, min(exponent, e))
    prefix = m >> (e - level)
    width = exponent - level
    return ((prefix << width) + rng.randrange(1 << width), exponent)


def fits_62_bits(x, y) -> bool:
    """Both mantissas scaled to the pair's common exponent fit in 62 bits."""
    e = max(x[1], y[1])
    return max((x[0] << (e - x[1])).bit_length(), (y[0] << (e - y[1])).bit_length()) <= 62


def metric_row(rng: random.Random, cell, width: int = ROW_WIDTH) -> dict:
    e = rng.randint(0, MAX_EXPONENT)
    bits = rng.randint(0, MAX_MAGNITUDE_BITS)
    anchor = (rng.randrange(1 << (e + bits)), e)
    points = [_point_near(rng, anchor, rng.randint(0, MAX_EXPONENT)) for _ in range(width)]
    return {
        "s": cell[0],
        "t": cell[1],
        "edge": cell == EDGE_CELL,
        "anchor": anchor,
        "points": points,
        # ball radii as fractions of psi_infinity, drawn log-uniformly
        "radius_fracs": [_loguniform(rng, 1e-3, 0.95) for _ in range(BALLS_PER_ROW)],
        "spectral_idx": rng.sample(range(width), SPECTRAL_PAIRS),
        # a second time within a factor of 4: far apart times put the
        # t2 window (psi_t2(|I|), psi_t2(2|I|)] below one ulp, see README
        "transfer_t": cell[1] * 2.0 ** rng.uniform(-2.0, 2.0),
        "transfer_frac": rng.uniform(0.05, 0.95),
    }


def metric_block(seed: int, block: int) -> list[dict]:
    rng = seeded_rng("metric_queries", seed, block)
    cells = [c for c in CELLS for _ in range(ROWS_PER_CELL)] + [EDGE_CELL] * EDGE_ROWS
    rng.shuffle(cells)
    return [metric_row(rng, cell) for cell in cells]


def expansion_job(rng: random.Random, spread: int, max_coeffs: int = MAX_COEFFS) -> dict:
    """A sparse Haar expansion whose levels span exactly `spread`.

    Every root interval carries a coefficient, so synthesis produces
    roots * 2^(spread + 1) pieces; one root is used whenever its subtree has
    room for all coefficients, which keeps the piece count a function of
    the spread alone from spread 4 on.
    """
    n = rng.randint(MIN_COEFFS, max_coeffs)
    capacity = (1 << (spread + 1)) - 1
    roots = -(-n // capacity)
    # a narrow base level keeps the evolve_pointwise level count, and with it
    # the cost of jobs of one spread, within a few per cent
    j0 = rng.randint(-1, 1)
    root_index = rng.sample(range(64), roots)
    chosen = {(j0, k) for k in root_index}
    if spread > 0:
        k = rng.choice(root_index)
        chosen.add((j0 + spread, (k << spread) + rng.randrange(1 << spread)))
    while len(chosen) < n:
        d = rng.randint(1, spread)
        k = rng.choice(root_index)
        chosen.add((j0 + d, (k << d) + rng.randrange(1 << d)))
    coeffs = []
    for level, index in sorted(chosen):
        c = rng.uniform(0.1, 2.0) * rng.choice((-1.0, 1.0))
        coeffs.append((level, index, c))
    # query points: dyadic rationals inside a random root, below the finest level
    qexp = max(0, j0 + spread + 3)
    queries = []
    for _ in range(QUERIES):
        k = rng.choice(root_index)
        lo = k << (qexp - j0) if qexp >= j0 else k >> (j0 - qexp)
        queries.append((lo + rng.randrange(1 << (qexp - j0)), qexp))
    return {
        "spread": spread,
        "s": rng.uniform(0.05, 0.95),
        "t": _loguniform(rng, 1e-3, 1e2),
        "coeffs": coeffs,
        "queries": queries,
        "eigen_interval": rng.choice(sorted(chosen)),
    }


def heat_block(seed: int, block: int) -> list[dict]:
    rng = seeded_rng("heat_evolve", seed, block)
    spreads = list(SPREADS)
    rng.shuffle(spreads)
    return [expansion_job(rng, spread) for spread in spreads]


def _decimal(rng: random.Random) -> str:
    """A decimal in [0, 4) with up to 12 digits; the CLI rounds it to binary."""
    return f"{rng.randrange(4 * 10**12) / 10**12:.12f}"


def cli_block(seed: int, block: int) -> list[dict]:
    rng = seeded_rng("cli_cold", seed, block)
    calls = []
    for cmd in CLI_COMMANDS:
        s = rng.choice(CLI_S_GRID)
        t = rng.choice(CLI_T_GRID)
        if cmd == "delta":
            args = [_decimal(rng), _decimal(rng)]
        elif cmd == "distance":
            args = [_decimal(rng), _decimal(rng), "--s", repr(s), "--t", repr(t),
                    "--method", "both"]
        elif cmd == "ball":
            args = [_decimal(rng), repr(rng.uniform(0.05, 0.95)), "--s", repr(s),
                    "--t", repr(t)]
        elif cmd == "profile":
            lo = rng.randint(-30, 0)
            args = ["--s", repr(s), "--t", repr(t), "--i-min", str(lo),
                    "--i-max", str(lo + rng.randint(5, 30))]
        elif cmd == "evolve":
            job = expansion_job(rng, rng.randint(0, CLI_MAX_SPREAD), max_coeffs=8)
            args = ["--s", repr(job["s"]), "--t", repr(job["t"]), "--query"]
            args += [f"{m / (1 << e)!r}" for m, e in job["queries"][:CLI_QUERIES]]
            calls.append({"cmd": cmd, "args": args, "job": job})
            continue
        else:
            # the same suite seed in every block, so its expected output is
            # computed once per run
            args = ["all", "--seed", str(seed)]
        calls.append({"cmd": cmd, "args": args})
    return calls


BLOCKS = {"metric_queries": metric_block, "heat_evolve": heat_block, "cli_cold": cli_block}
