"""End-to-end acceptance gate.

Each test covers one release criterion and records a single PASS/FAIL line,
echoed after the run summary; the assertions make pytest report the same
verdict.
"""

import io
import math
import random
import time
from fractions import Fraction

import conftest
import pytest
from scipy.integrate import quad

from dyadiff.cli import main as cli_main
from dyadiff.dyadic import DyadicInterval, DyadicPoint, dyadic_distance
from dyadiff.gaussian import (
    GaussianParams,
    ratio_limit_check,
    rho_sq_closed,
    rho_sq_derivative,
    rho_sq_quadrature,
    squared_ratio_limit,
    translation_rotation_invariance_check,
)
from dyadiff.laplacian import (
    HaarExpansion,
    evolve_pointwise,
    evolve_spectral,
    haar_eigenvalue,
)
from dyadiff.spectral import (
    DiffusionParams,
    ball,
    ball_radius_transfer,
    c_t_s,
    distance_closed,
    distance_spectral,
    kernel_K,
    log_psi_sq_increment,
    psi,
    psi_infinity,
    sandwich,
)

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
    start = time.monotonic()
    worst = 0.0
    for s in S_GRID:
        for t in T_GRID:
            params = DiffusionParams(s, t)
            for x, y in pairs:
                gap = abs(
                    distance_spectral(x, y, params) - distance_closed(x, y, params)
                )
                worst = max(worst, gap)
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
    sandwich_ok = True
    quad_gap = 0.0
    for s in S_GRID:
        # c_t(s) is computed in closed form; the oracle is its quadrature route
        integral, _ = quad(lambda x: math.exp(-2.0 * x**s), 0.0, math.inf,
                           epsabs=1e-13, limit=400)
        for t in T_GRID:
            params = DiffusionParams(s, t)
            lo, limit, hi = sandwich(params)
            if not (lo < limit < hi):
                sandwich_ok = False
            oracle = t ** (-1.0 / (2.0 * s)) * math.sqrt(integral)
            quad_gap = max(quad_gap, abs(c_t_s(params) - oracle))
    ok = small < 1e-8 and sandwich_ok and quad_gap <= 1e-8
    report(
        3,
        ok,
        f"psi(2^-60) = {small:.3e}, sandwich strict = {sandwich_ok}, "
        f"max |c_Γ − quadrature oracle| = {quad_gap:.3e}",
    )
    assert small < 1e-8
    assert sandwich_ok
    assert quad_gap <= 1e-8


def test_criterion_04_kernel_bound():
    rng = random.Random(4)
    violations = 0
    worst_margin = math.inf
    for _ in range(1000):
        x, y = random_pair(rng)
        s = rng.choice(S_GRID)
        t = rng.choice(T_GRID)
        bound = 2.0 / float(dyadic_distance(x, y))
        value = abs(kernel_K(x, y, DiffusionParams(s, t)))
        worst_margin = min(worst_margin, bound - value)
        if value > bound:
            violations += 1
    report(
        4,
        violations == 0,
        f"{violations} bound violations on 10^3 pairs, tightest slack {worst_margin:.3e}",
    )
    assert violations == 0


def test_criterion_05_time_ratio_bound_and_witness():
    rng = random.Random(5)
    violations = 0
    for _ in range(1000):
        x, y = random_pair(rng)
        s = rng.choice(S_GRID)
        t1 = rng.uniform(0.1, 5.0)
        t2 = t1 + rng.uniform(0.1, 5.0)
        delta = float(dyadic_distance(x, y))
        d1 = distance_closed(x, y, DiffusionParams(s, t1))
        d2 = distance_closed(x, y, DiffusionParams(s, t2))
        bound = math.exp(-2.0 * (t2 - t1) * delta**-s)
        # tiny additive slack for roundoff in the two square roots
        if d1 > 0 and (d2 / d1) ** 2 > bound * (1.0 + 1e-12):
            violations += 1
    # witness: nearby points at s = 1, where large time crushes the distance
    wx, wy = DyadicPoint(1, 5), DyadicPoint(3, 5)
    d_small_t = distance_closed(wx, wy, DiffusionParams(1.0, 0.1))
    d_large_t = distance_closed(wx, wy, DiffusionParams(1.0, 10.0))
    witness = d_small_t > 1e6 * d_large_t
    report(
        5,
        violations == 0 and witness,
        f"{violations} ratio-bound violations; witness ratio "
        f"{d_small_t / max(d_large_t, 5e-324):.3e} > 10^6",
    )
    assert violations == 0
    assert witness


def test_criterion_06_ball_identity_and_transfer():
    rng = random.Random(6)
    mismatches = 0
    transfer_mismatches = 0
    checked = 0
    while checked < 100:
        x = random_point(rng)
        s = rng.choice(S_GRID)
        t1 = rng.choice(T_GRID)
        params = DiffusionParams(s, t1)
        limit = psi_infinity(params)
        r = rng.uniform(0.05, 0.999) * limit
        result = ball(x, r, params)
        if result.is_whole_space:
            mismatches += 1  # r < psi_infinity must yield a bounded interval
            checked += 1
            continue
        interval = result.interval
        for _ in range(1000):
            y = random_point(rng)
            inside = distance_closed(x, y, params) < r
            if inside != interval.contains(y):
                mismatches += 1
                break
        t2 = rng.choice([t for t in T_GRID if t != t1])
        r2 = ball_radius_transfer(x, r, t1, t2, s)
        transferred = ball(x, r2, DiffusionParams(s, t2))
        if transferred.is_whole_space or transferred.interval != interval:
            transfer_mismatches += 1
        checked += 1
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
    worst_rel = 0.0
    for s in (0.25, 0.5, 0.75):
        constants = []
        for j in range(-5, 6):
            interval = DyadicInterval(j, 1 if j >= 0 else 0)
            # haar_eigenvalue enforces pointwise residual < 1e-10 at 16
            # interior points and raises otherwise
            lam = haar_eigenvalue(interval, s, residual_tol=1e-10)
            constants.append(lam * float(interval.length) ** s)
        spread = (max(constants) - min(constants)) / min(constants)
        worst_rel = max(worst_rel, spread)
    ok = worst_rel <= 1e-10
    report(7, ok, f"max relative spread of λ_I·|I|^s across j ∈ [−5, 5]: {worst_rel:.3e}")
    assert worst_rel <= 1e-10


def test_criterion_08_evolution_route_equivalence():
    rng = random.Random(8)
    worst = 0.0
    for _ in range(50):
        pairs = []
        used = set()
        while len(pairs) < rng.randrange(1, 6):
            interval = DyadicInterval(rng.randrange(-3, 6), rng.randrange(0, 12))
            if interval not in used:
                used.add(interval)
                pairs.append((interval, rng.uniform(-3, 3)))
        expansion = HaarExpansion.from_pairs(pairs)
        params = DiffusionParams(rng.choice(S_GRID), rng.choice(T_GRID))
        f = expansion.to_piecewise()
        evolved = evolve_spectral(expansion, params)
        for _ in range(5):
            x = DyadicPoint(rng.randrange(0, 1 << 10), rng.randrange(0, 8))
            gap = abs(evolve_pointwise(f, x, params) - evolved.evaluate(x))
            worst = max(worst, gap)
    # semigroup law: e^(-t1 λ) e^(-t2 λ) = e^(-(t1+t2) λ) coefficientwise
    expansion = HaarExpansion.from_pairs(
        [(DyadicInterval(j, k), 1.0) for j, k in [(-2, 0), (0, 1), (3, 5)]]
    )
    s = 0.5
    stepped = evolve_spectral(
        evolve_spectral(expansion, DiffusionParams(s, 0.4)), DiffusionParams(s, 0.6)
    )
    direct = evolve_spectral(expansion, DiffusionParams(s, 1.0))
    semigroup_gap = max(
        abs(c1 - c2) / abs(c2)
        for (_, c1), (_, c2) in zip(stepped.coefficients, direct.coefficients)
    )
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
    quad_gap = 0.0
    for n in (1, 2):
        for t in (0.5, 1.0, 2.0):
            p = GaussianParams(t, n)
            for r in (0.1, 1.0, 3.0):
                quad_gap = max(
                    quad_gap, abs(rho_sq_quadrature(r, p) - rho_sq_closed(r, p))
                )
    fd_gap = 0.0
    h = 1e-6
    for n in (1, 2):
        p = GaussianParams(0.8, n)
        for r in (0.25, 1.0, 2.5):
            fd = (rho_sq_closed(r + h, p) - rho_sq_closed(r - h, p)) / (2 * h)
            fd_gap = max(fd_gap, abs(fd - rho_sq_derivative(r, p)) / abs(fd))
    ratio_gap = 0.0
    for (t1, t2), n in (((1.0, 2.0), 1), ((1.0, 4.0), 2)):
        got = ratio_limit_check(t1, t2, n, r_grid=[1e-2, 1e-3, 1e-4])
        want = squared_ratio_limit(t1, t2, n)
        ratio_gap = max(ratio_gap, abs(got - want) / want)
    inv_worst = 0.0
    inv_ok = True
    for n in (1, 2):
        rep = translation_rotation_invariance_check(
            GaussianParams(1.0, n), trials=20, seed=9, tol=1e-6
        )
        inv_worst = max(inv_worst, rep.max_discrepancy)
        inv_ok = inv_ok and rep.passed
    elapsed = time.monotonic() - start
    ok = (
        quad_gap <= 1e-8
        and fd_gap <= 1e-6
        and ratio_gap <= 1e-3
        and inv_ok
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
    assert inv_ok
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
