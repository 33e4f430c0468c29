"""End-to-end acceptance gate.

Each test covers one release criterion and records a single PASS/FAIL line,
echoed after the run summary; the assertions make pytest report the same
verdict.  Criteria 1 and 3-9 draw their own inputs and call the property
functions of `dyadiff.verify`, the same ones `dyadiff verify` runs, with
their own bounds.
"""

import io
import math
import random
import time
from fractions import Fraction

import conftest
from scipy.integrate import quad

from dyadiff import verify
from dyadiff.cli import main as cli_main
from dyadiff.dyadic import DyadicInterval, DyadicPoint
from dyadiff.gaussian import GaussianParams
from dyadiff.laplacian import HaarExpansion
from dyadiff.spectral import DiffusionParams, log_psi_sq_increment, psi, psi_infinity

S_GRID = (0.25, 0.5, 1.0, 2.0)
T_GRID = (0.1, 1.0, 10.0)


def report(number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    conftest.acceptance_lines.append((number, line))


def random_point(rng: random.Random) -> DyadicPoint:
    return DyadicPoint(rng.randrange(0, 1 << 20), rng.randrange(0, 16))


def random_pair(rng: random.Random) -> tuple[DyadicPoint, DyadicPoint]:
    while True:
        x, y = random_point(rng), random_point(rng)
        if x != y:
            return x, y


def test_criterion_01_theorem_equivalence():
    rng = random.Random(1)
    pairs = [random_pair(rng) for _ in range(200)]
    grid = [DiffusionParams(s, t) for s in S_GRID for t in T_GRID]
    start = time.monotonic()
    worst = verify.route_gap(pairs, grid)
    elapsed = time.monotonic() - start
    ok = worst <= 2e-10 and elapsed < 30.0
    report(1, ok, f"max |spectral − closed| = {worst:.3e} over 2400 cases, {elapsed:.1f}s")
    assert worst <= 2e-10
    assert elapsed < 30.0


def test_criterion_02_psi_strictly_increasing():
    violations = 0
    for s in S_GRID:
        for t in T_GRID:
            params = DiffusionParams(s, t)
            for i in range(-40, 40):
                # the closed-form log increment is finite iff the exact
                # increment psi(2^(i+1))^2 − psi(2^i)^2 is strictly positive
                try:
                    if not math.isfinite(log_psi_sq_increment(params, i)):
                        violations += 1
                except ValueError:
                    violations += 1
    report(2, violations == 0, f"{violations} monotonicity violations on i ∈ [−40, 40]")
    assert violations == 0


def test_criterion_03_psi_limits_and_sandwich():
    small = psi(DiffusionParams(1.0, 1.0), Fraction(1, 2**60))
    # c_t(s) is computed in closed form; the oracle is its quadrature route
    integrals = {
        s: quad(lambda x: math.exp(-2.0 * x**s), 0.0, math.inf, epsabs=1e-13, limit=400)
        for s in S_GRID
    }
    quad_gap = verify.c_quadrature_gap(integrals, T_GRID)
    ok = small < 1e-8 and quad_gap <= 1e-8
    report(
        3,
        ok,
        f"psi(2^-60) = {small:.3e}, max |c_Γ − quadrature oracle| = {quad_gap:.3e} "
        "(inf if a sandwich is not strict)",
    )
    assert small < 1e-8
    assert quad_gap <= 1e-8


def test_criterion_04_kernel_bound():
    rng = random.Random(4)
    cases = []
    for _ in range(1000):
        x, y = random_pair(rng)
        cases.append((x, y, DiffusionParams(rng.choice(S_GRID), rng.choice(T_GRID))))
    excess = verify.kernel_bound_excess(cases)
    report(4, excess <= 0, f"max |K|·δ/2 − 1 = {excess:.3e} on 10^3 pairs (bound 0)")
    assert excess <= 0


def test_criterion_05_time_ratio_bound_and_witness():
    rng = random.Random(5)
    cases = []
    for _ in range(1000):
        x, y = random_pair(rng)
        s = rng.choice(S_GRID)
        t1 = rng.uniform(0.1, 5.0)
        cases.append((x, y, s, t1, t1 + rng.uniform(0.1, 5.0)))
    # d_t2^2 / d_t1^2 <= exp(-2 (t2 - t1) delta^-s) (1 + 1e-12), in logs
    excess = verify.squared_ratio_excess(cases)
    # witness: nearby points at s = 1, where large time crushes the distance
    witness = verify.witness_ratio(DyadicPoint(1, 5), DyadicPoint(3, 5), 1.0, 0.1, 10.0)
    ok = excess <= math.log1p(1e-12) and witness <= 1e-6
    report(
        5,
        ok,
        f"max log ratio − log bound = {excess:.3e} (bound log1p(1e-12)); "
        f"witness d_t2/d_t1 = {witness:.3e} ≤ 10^-6",
    )
    assert excess <= math.log1p(1e-12)
    assert witness <= 1e-6


def test_criterion_06_ball_identity_and_transfer():
    rng = random.Random(6)
    balls, transfers = [], []
    for _ in range(100):
        x, s, t1 = random_point(rng), rng.choice(S_GRID), rng.choice(T_GRID)
        params = DiffusionParams(s, t1)
        r = rng.uniform(0.05, 0.999) * psi_infinity(params)
        balls.append((x, r, params, [random_point(rng) for _ in range(1000)]))
        transfers.append((x, r, s, t1, rng.choice([t for t in T_GRID if t != t1])))
    mismatches = verify.ball_membership_mismatches(balls)
    transfer_mismatches = verify.ball_transfer_mismatches(transfers)
    ok = mismatches == 0 and transfer_mismatches == 0
    report(
        6,
        ok,
        f"{mismatches} membership mismatches, {transfer_mismatches} transfer "
        f"mismatches over 100 balls × 10^3 samples",
    )
    assert mismatches == 0
    assert transfer_mismatches == 0


def test_criterion_07_laplacian_eigenstructure():
    intervals = [DyadicInterval(j, 1 if j >= 0 else 0) for j in range(-5, 6)]
    # haar_eigenvalue enforces pointwise residual < 1e-10 at 16 interior
    # points; a larger residual reads as inf
    worst_rel = verify.eigen_scaling_spread([(s, intervals) for s in (0.25, 0.5, 0.75)])
    ok = worst_rel <= 1e-10
    report(7, ok, f"max relative spread of λ_I·|I|^s across j ∈ [−5, 5]: {worst_rel:.3e}")
    assert worst_rel <= 1e-10


def test_criterion_08_evolution_route_equivalence():
    rng = random.Random(8)
    cases = []
    for _ in range(50):
        pairs = []
        used = set()
        while len(pairs) < rng.randrange(1, 6):
            interval = DyadicInterval(rng.randrange(-3, 6), rng.randrange(0, 12))
            if interval not in used:
                used.add(interval)
                pairs.append((interval, rng.uniform(-3, 3)))
        params = DiffusionParams(rng.choice(S_GRID), rng.choice(T_GRID))
        points = [DyadicPoint(rng.randrange(0, 1 << 10), rng.randrange(0, 8)) for _ in range(5)]
        cases.append((HaarExpansion.from_pairs(pairs), params, points))
    worst = verify.evolution_route_gap(cases)
    # semigroup law: e^(-t1 λ) e^(-t2 λ) = e^(-(t1+t2) λ) coefficientwise
    expansion = HaarExpansion.from_pairs(
        [(DyadicInterval(j, k), 1.0) for j, k in [(-2, 0), (0, 1), (3, 5)]]
    )
    semigroup_gap = verify.semigroup_gap([(expansion, 0.5, 0.4, 0.6)], floor=0.0)
    ok = worst <= 1e-10 and semigroup_gap <= 1e-13
    report(
        8,
        ok,
        f"max route gap {worst:.3e} over 50 expansions; semigroup rel gap "
        f"{semigroup_gap:.3e}",
    )
    assert worst <= 1e-10
    assert semigroup_gap <= 1e-13


def test_criterion_09_euclidean_baseline():
    start = time.monotonic()
    quad_gap = verify.profile_quadrature_gap(
        [(r, GaussianParams(t, n)) for n in (1, 2) for t in (0.5, 1.0, 2.0) for r in (0.1, 1.0, 3.0)]
    )
    fd_gap = verify.profile_derivative_gap(
        [(r, GaussianParams(0.8, n)) for n in (1, 2) for r in (0.25, 1.0, 2.5)]
    )
    radii = [1e-2, 1e-3, 1e-4]
    ratio_gap = verify.ratio_limit_gap([(1.0, 2.0, 1, radii), (1.0, 4.0, 2, radii)])
    inv_worst = max(
        verify.invariance_gap(GaussianParams(1.0, n), verify.invariance_configs(random.Random(9), n, 20))
        for n in (1, 2)
    )
    elapsed = time.monotonic() - start
    ok = (
        quad_gap <= 1e-8
        and fd_gap <= 1e-6
        and ratio_gap <= 1e-3
        and inv_worst <= 1e-6
        and elapsed < 60.0
    )
    report(
        9,
        ok,
        f"quad gap {quad_gap:.3e}, FD gap {fd_gap:.3e}, ratio gap {ratio_gap:.3e}, "
        f"invariance {inv_worst:.3e}, {elapsed:.1f}s",
    )
    assert quad_gap <= 1e-8
    assert fd_gap <= 1e-6
    assert ratio_gap <= 1e-3
    assert inv_worst <= 1e-6
    assert elapsed < 60.0


def test_criterion_10_verify_all_clean_exit():
    out = io.StringIO()
    start = time.monotonic()
    code = cli_main(["verify", "all"], out=out)
    elapsed = time.monotonic() - start
    ok = code == 0 and elapsed < 180.0
    report(10, ok, f"`verify all` exit {code} in {elapsed:.1f}s")
    assert code == 0
    assert elapsed < 180.0
