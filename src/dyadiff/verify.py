"""Seeded property suites behind the `verify` command.

Each suite exercises the invariants of one module on randomized inputs with
a fixed seed and reports one pass/fail line per property, with the measured
worst discrepancy.  The test suite runs the same properties (and more) under
pytest; this module exists so a deployed build can re-verify itself from the
command line.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import gaussian, laplacian, spectral
from .dyadic import (
    DyadicInterval,
    DyadicPoint,
    dyadic_distance,
    haar_eval,
    log2_distance,
    smallest_common_interval,
)
from .spectral import DEFAULT_TRUNC, DiffusionParams

SUITES = ("dyadic", "spectral", "laplacian", "euclidean")

_S_GRID = (0.25, 0.5, 1.0, 2.0)
_T_GRID = (0.1, 1.0, 10.0)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def random_point(
    rng: random.Random, max_exponent: int = 12, span: int = 16
) -> DyadicPoint:
    e = rng.randrange(0, max_exponent + 1)
    return DyadicPoint(rng.randrange(0, span << e), e)


def random_interval(rng: random.Random) -> DyadicInterval:
    j = rng.randrange(-6, 13)
    k = rng.randrange(0, 64)
    return DyadicInterval(j, k)


def _result(suite, name, passed, detail="") -> CheckResult:
    return CheckResult(suite, name, bool(passed), detail)


def dyadic_suite(seed: int = 0, samples: int = 400) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []

    # the bound's tightest slack delta - |x - y|; it is 0 only for x == y
    pairs = [(random_point(rng), random_point(rng)) for _ in range(samples)]
    slack = min(dyadic_distance(x, y) - abs(x.value - y.value) for x, y in pairs if x != y)
    out.append(_result("dyadic", "euclidean lower bound |x-y| <= delta", slack >= 0,
                       f"min over x != y of delta - |x-y| = {float(slack):.3e}"))

    ok = True
    for _ in range(samples):
        x, y, z = (random_point(rng) for _ in range(3))
        if dyadic_distance(x, z) > max(dyadic_distance(x, y), dyadic_distance(y, z)):
            ok = False
    out.append(_result("dyadic", "ultrametric inequality", ok, ""))

    ok = True
    for _ in range(samples):
        x, y = random_point(rng), random_point(rng)
        if dyadic_distance(x, y) != dyadic_distance(y, x):
            ok = False
        if (dyadic_distance(x, y) == 0) != (x == y):
            ok = False
    out.append(_result("dyadic", "symmetry and identity of indiscernibles", ok, ""))

    ok = True
    for _ in range(samples):
        a, b = random_interval(rng), random_interval(rng)
        nested = a.contains_interval(b) or b.contains_interval(a)
        overlap = a.overlap_length(b)
        if nested == (overlap == 0):
            ok = False
    out.append(_result("dyadic", "nesting dichotomy: disjoint or nested", ok, ""))

    ok = True
    for _ in range(64):
        interval = random_interval(rng)
        left, right = interval.left_child(), interval.right_child()
        v = haar_eval(interval, DyadicPoint.from_fraction(left.midpoint))
        mean = v * float(left.length) + (-v) * float(right.length)
        norm = Fraction(2) ** interval.level * interval.length
        if mean != 0.0 or norm != 1:
            ok = False
    out.append(_result("dyadic", "haar zero mean and unit L2 norm", ok, ""))

    ok = True
    for _ in range(samples):
        x, y = random_point(rng), random_point(rng)
        d = dyadic_distance(x, y)
        if d != 0 and (d.numerator & (d.numerator - 1) or d.denominator & (d.denominator - 1)):
            ok = False
    out.append(_result("dyadic", "delta is 0 or an exact power of 2", ok, ""))
    return out


def spectral_suite(seed: int = 0, pairs: int = 60) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []
    trunc = DEFAULT_TRUNC

    worst = 0.0
    for _ in range(pairs):
        x, y = random_point(rng), random_point(rng)
        for s in _S_GRID:
            for t in _T_GRID:
                p = DiffusionParams(s, t)
                gap = abs(
                    spectral.distance_spectral(x, y, p, trunc)
                    - spectral.distance_closed(x, y, p, trunc)
                )
                worst = max(worst, gap)
    # 2e-10 is the acceptance tolerance; pure tail error would be 2*tail_tol
    # but double-precision roundoff dominates for large-magnitude distances.
    out.append(
        _result(
            "spectral",
            "theorem: spectral route equals psi(delta)",
            worst <= 2e-10,
            f"max |spectral - closed| = {worst:.3e}",
        )
    )

    ok = True
    for _ in range(pairs):
        x, y, z = (random_point(rng) for _ in range(3))
        p = DiffusionParams(rng.choice(_S_GRID), rng.choice(_T_GRID))
        dxz = spectral.distance_closed(x, z, p, trunc)
        dxy = spectral.distance_closed(x, y, p, trunc)
        dyz = spectral.distance_closed(y, z, p, trunc)
        if dxz > max(dxy, dyz) * (1 + 1e-14) + 1e-300:
            ok = False
        if dxy != spectral.distance_closed(y, x, p, trunc):
            ok = False
        if x == y and dxy != 0.0:
            ok = False
        # positivity for distinct points, away from double-precision underflow
        if x != y:
            delta = float(dyadic_distance(x, y))
            if 2.0 * p.t * delta ** (-p.s) < 700.0 and dxy <= 0.0:
                ok = False
    out.append(_result("spectral", "metric axioms (ultrametric form)", ok, ""))

    # the table that distances and balls read, against the series at each level
    monotone, worst = True, 0.0
    for s in _S_GRID:
        for t in _T_GRID:
            p = DiffusionParams(s, t)
            logs = spectral._psi_table(p, trunc)[1]
            monotone = monotone and all(a <= b for a, b in zip(logs, logs[1:]))
            for i in range(-40, 41):
                series = spectral.log_psi_sq(p, Fraction(2) ** i, trunc)
                gap = abs(spectral._log_psi_sq_at(p, i, trunc) - series)
                worst = max(worst, gap / max(1.0, abs(series)) if gap else 0.0)
    out.append(
        _result(
            "spectral",
            "psi table against the eta series",
            monotone and worst <= 1e-12,
            f"non-decreasing = {monotone}, "
            f"max |table - log_psi_sq| / max(1, |log psi^2|) = {worst:.3e} (bound 1e-12)",
        )
    )

    tail = spectral.psi(DiffusionParams(1.0, 1.0), Fraction(1, 2**60), trunc)
    out.append(
        _result(
            "spectral",
            "psi vanishes at fine scales",
            tail < 1e-8,
            f"psi_1(2^-60) = {tail:.3e}",
        )
    )

    # c_t(s) by its second route: quadrature of integral_0^inf exp(-2 x^s) dx
    failures, worst = [], 0.0
    for s in _S_GRID:
        integral, err = gaussian.quad(lambda x: math.exp(-2.0 * x**s), 0.0, math.inf, 1e-13)
        for t in _T_GRID:
            p = DiffusionParams(s, t)
            c_quad = t ** (-1.0 / (2.0 * s)) * math.sqrt(integral)
            gap = abs(spectral.c_t_s(p) - c_quad) / max(1.0, c_quad)
            worst = max(worst, gap)
            lo, mid, hi = spectral.sandwich(p, trunc)
            if not (lo < mid < hi) or err > 1e-6 or gap > 1e-8:
                failures.append(f"s={s}, t={t}: {lo} / {mid} / {hi}, quad err {err:.1e}")
    detail = [f"max |c - c_quad| / max(1, c_quad) = {worst:.3e}"] + failures
    out.append(
        _result("spectral", "sqrt(2)c < psi_inf < 2c sandwich", not failures, "; ".join(detail))
    )

    # d_t2^2 / d_t1^2 <= exp(-2 (t2 - t1) delta^-s), compared in logs: both
    # squares and the bound can underflow while d_t1 > 0
    ok, worst = True, -math.inf
    for _ in range(pairs):
        x, y = random_point(rng), random_point(rng)
        s = rng.choice(_S_GRID)
        t1, t2 = sorted(rng.sample(_T_GRID, 2))
        p1, p2 = DiffusionParams(s, t1), DiffusionParams(s, t2)
        d1 = spectral.distance_closed(x, y, p1, trunc)
        d2 = spectral.distance_closed(x, y, p2, trunc)
        if d2 > d1 * (1 + 1e-14):
            ok = False
        i = log2_distance(x, y)
        if i is not None:
            log1 = spectral._log_psi_sq_at(p1, i, trunc)
            log2 = spectral._log_psi_sq_at(p2, i, trunc)
            log_bound = -2.0 * (t2 - t1) * 2.0 ** (-i * s)
            margin = (log2 - log1) - log_bound
            worst = max(worst, margin)
            if margin > math.log1p(1e-12) + 4.0 * math.ulp(max(abs(log1), abs(log2), abs(log_bound))):
                ok = False
    out.append(_result("spectral", "time monotonicity and squared-ratio bound", ok,
                       f"max log(d_t2^2 / d_t1^2) - log bound = {worst:.3e} "
                       "(bound log1p(1e-12) + 4 ulps)"))

    x = DyadicPoint(1, 5)
    y = DyadicPoint(3, 5)  # delta = 2^-4
    d1 = spectral.distance_closed(x, y, DiffusionParams(1.0, 0.1), trunc)
    d2 = spectral.distance_closed(x, y, DiffusionParams(1.0, 10.0), trunc)
    out.append(
        _result(
            "spectral",
            "non-equivalence witness d_t1 > 1e6 d_t2",
            d1 > 1e6 * d2,
            f"ratio = {d1 / d2 if d2 else math.inf:.3e}",
        )
    )

    ok = True
    for _ in range(300):
        x, y = random_point(rng), random_point(rng)
        if x == y:
            continue
        p = DiffusionParams(rng.choice(_S_GRID), rng.choice(_T_GRID))
        bound = 2.0 / float(dyadic_distance(x, y))
        if abs(spectral.kernel_K(x, y, p, trunc)) > bound * (1 + 1e-12):
            ok = False
    out.append(_result("spectral", "kernel bound |K| <= 2/delta", ok, ""))

    ok = True
    for _ in range(20):
        x = random_point(rng, max_exponent=6)
        p = DiffusionParams(rng.choice(_S_GRID), rng.choice(_T_GRID))
        limit = spectral.psi_infinity(p, trunc)
        r = rng.uniform(0.2, 0.98) * limit
        b = spectral.ball(x, r, p, trunc)
        if b.interval is None:
            ok = False
            continue
        for _ in range(200):
            y = random_point(rng, max_exponent=6, span=32)
            inside = spectral.distance_closed(x, y, p, trunc) < r
            if inside != b.contains(y):
                ok = False
    out.append(_result("spectral", "balls are dyadic intervals (membership oracle)", ok, ""))

    ok = True
    for _ in range(10):
        x = random_point(rng, max_exponent=6)
        s = rng.choice(_S_GRID)
        t1, t2 = rng.choice(_T_GRID), rng.choice(_T_GRID)
        p1 = DiffusionParams(s, t1)
        r1 = rng.uniform(0.2, 0.95) * spectral.psi_infinity(p1, trunc)
        r2 = spectral.ball_radius_transfer(x, r1, t1, t2, s, trunc)
        if spectral.ball(x, r1, p1, trunc) != spectral.ball(
            x, r2, DiffusionParams(s, t2), trunc
        ):
            ok = False
    out.append(_result("spectral", "ball radius transfer across times", ok, ""))
    return out


def laplacian_suite(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []
    trunc = DEFAULT_TRUNC

    ok = True
    detail = []
    for s in (0.25, 0.5, 0.75):
        lams = []
        for j in (-3, 0, 3):
            interval = DyadicInterval(j, rng.randrange(0, 4))
            try:
                lam = laplacian.haar_eigenvalue(interval, s)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                ok = False
                detail.append(f"s={s}, j={j}: {exc}")
                continue
            lams.append(lam * float(interval.length) ** s)
        if lams and max(lams) - min(lams) > 1e-10 * max(lams):
            ok = False
            detail.append(f"s={s}: scaling spread {max(lams) - min(lams):.3e}")
    out.append(
        _result(
            "laplacian",
            "haar eigenrelation and |I|^-s scaling",
            ok,
            "; ".join(detail),
        )
    )

    worst = 0.0
    trials = 20
    for _ in range(trials):
        # f and g come from one pool of disjoint intervals, so a f + b g is
        # piecewise too
        used = []
        while len(used) < 10:
            interval = DyadicInterval(rng.randrange(0, 4), rng.randrange(0, 12))
            if all(interval.disjoint(u) for u in used):
                used.append(interval)
        pool = [(i, rng.uniform(-2, 2)) for i in used]
        f = laplacian.PiecewiseDyadicFunction.from_pairs(pool[:5])
        g = laplacian.PiecewiseDyadicFunction.from_pairs(pool[5:])
        x = random_point(rng, max_exponent=5, span=12)
        s = rng.uniform(0.1, 0.9)
        a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
        combined = laplacian.PiecewiseDyadicFunction.from_pairs(
            [(i, a * v) for i, v in f.pieces] + [(i, b * v) for i, v in g.pieces]
        )
        lhs = laplacian.apply_laplacian(combined, x, s)
        rhs = a * laplacian.apply_laplacian(f, x, s) + b * laplacian.apply_laplacian(g, x, s)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    out.append(
        _result(
            "laplacian",
            "linearity of the integral operator",
            worst <= 1e-9,
            f"max gap = {worst:.3e} over {trials} trials",
        )
    )

    # On data constant over an ever larger block, the operator at a fixed
    # interior point decays like the geometric boundary tail: the global
    # constant is in the kernel.
    x0 = DyadicPoint(1, 1)
    magnitudes = [
        abs(
            laplacian.apply_laplacian(
                laplacian.PiecewiseDyadicFunction.from_pairs(
                    [(DyadicInterval(-j, 0), 1.5)]
                ),
                x0,
                0.5,
            )
        )
        for j in (2, 6, 10)
    ]
    out.append(
        _result(
            "laplacian",
            "constants are annihilated in the large-block limit",
            magnitudes[0] > magnitudes[1] > magnitudes[2] and magnitudes[2] < 1e-1,
            f"magnitudes = {magnitudes}",
        )
    )

    ok = True
    worst = 0.0
    for _ in range(20):
        pairs = []
        used = []
        while len(pairs) < 4:
            interval = DyadicInterval(rng.randrange(-2, 5), rng.randrange(0, 8))
            if interval not in used:
                used.append(interval)
                pairs.append((interval, rng.uniform(-2, 2)))
        expansion = laplacian.HaarExpansion.from_pairs(pairs)
        p = DiffusionParams(rng.choice(_S_GRID), rng.choice(_T_GRID))
        evolved = laplacian.evolve_spectral(expansion, p)
        f = expansion.to_piecewise()
        x = random_point(rng, max_exponent=5, span=12)
        gap = abs(
            laplacian.evolve_pointwise(f, x, p, trunc) - evolved.evaluate(x)
        )
        worst = max(worst, gap)
        if gap > trunc.tail_tol:
            ok = False
    out.append(
        _result(
            "laplacian",
            "spectral vs kernel-integral evolution",
            ok,
            f"max route gap = {worst:.3e}",
        )
    )

    ok = True
    for _ in range(10):
        expansion = laplacian.HaarExpansion.from_pairs(
            [(DyadicInterval(rng.randrange(-2, 5), rng.randrange(0, 8)), rng.uniform(-1, 1))]
        )
        s = rng.choice(_S_GRID)
        t1, t2 = rng.uniform(0.1, 2), rng.uniform(0.1, 2)
        once = laplacian.evolve_spectral(
            laplacian.evolve_spectral(expansion, DiffusionParams(s, t1)),
            DiffusionParams(s, t2),
        )
        direct = laplacian.evolve_spectral(expansion, DiffusionParams(s, t1 + t2))
        for (i1, c1), (i2, c2) in zip(once.coefficients, direct.coefficients):
            if i1 != i2 or abs(c1 - c2) > 1e-15 * max(1.0, abs(c2)):
                ok = False
    out.append(_result("laplacian", "semigroup law of the multipliers", ok, ""))
    return out


def euclidean_suite(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []

    worst = 0.0
    for n in (1, 2):
        for t in (0.5, 1.0, 2.0):
            p = gaussian.GaussianParams(t, n)
            for r in (0.1, 1.0, 3.0):
                worst = max(
                    worst,
                    abs(gaussian.rho_sq_quadrature(r, p) - gaussian.rho_sq_closed(r, p)),
                )
    out.append(
        _result(
            "euclidean",
            "quadrature profile matches closed form",
            worst <= 1e-8,
            f"max gap = {worst:.3e}",
        )
    )

    ok = True
    p = gaussian.GaussianParams(1.0, 1)
    for r in (0.5, 1.0, 2.0):
        h = 1e-6
        fd = (gaussian.rho_sq_closed(r + h, p) - gaussian.rho_sq_closed(r - h, p)) / (
            2 * h
        )
        exact = gaussian.rho_sq_derivative(r, p)
        if abs(fd - exact) > 1e-6 * abs(exact):
            ok = False
    out.append(_result("euclidean", "profile derivative identity", ok, ""))

    ok = True
    detail = []
    for (t1, t2), n in (((1.0, 2.0), 1), ((1.0, 4.0), 2)):
        grid = [10.0 ** (-k) for k in range(1, 5)]
        limit = gaussian.ratio_limit_check(t1, t2, n, grid)
        expected = gaussian.squared_ratio_limit(t1, t2, n)
        rel = abs(limit - expected) / expected
        detail.append(f"t=({t1},{t2}), n={n}: rel err {rel:.2e}")
        if rel > 1e-3:
            ok = False
    out.append(_result("euclidean", "small-r squared ratio limit", ok, "; ".join(detail)))

    for n in (1, 2):
        report = gaussian.translation_rotation_invariance_check(
            gaussian.GaussianParams(1.0, n), trials=4, seed=seed
        )
        out.append(
            _result(
                "euclidean",
                f"translation/rotation invariance (n={n})",
                report.passed,
                f"max gap = {report.max_discrepancy:.3e}",
            )
        )

    p = gaussian.GaussianParams(1.0, 1)
    norm, _ = gaussian.quad(lambda z: gaussian.weierstrass(z, p), -math.inf, math.inf, 1e-13)
    conv_x = 0.7
    conv, _ = gaussian.quad(
        lambda z: gaussian.weierstrass(conv_x - z, p) * gaussian.weierstrass(z, p),
        -math.inf,
        math.inf,
        1e-13,
    )
    p2 = gaussian.GaussianParams(2.0, 1)
    semigroup_gap = abs(conv - gaussian.weierstrass(conv_x, p2))
    out.append(
        _result(
            "euclidean",
            "kernel normalization and semigroup identity",
            abs(norm - 1.0) <= 1e-8 and semigroup_gap <= 1e-8,
            f"norm gap = {abs(norm - 1.0):.3e}, semigroup gap = {semigroup_gap:.3e}",
        )
    )

    ok = True
    p1 = gaussian.GaussianParams(1.0, 1)
    p2 = gaussian.GaussianParams(3.0, 1)
    for _ in range(10):
        r1 = rng.uniform(0.05, 0.9) * math.sqrt(
            2.0 * (8.0 * math.pi * p1.t) ** (-0.5)
        )
        radius = gaussian.rho_inverse(r1, p1)
        r2 = gaussian.rho(radius, p2)
        for _ in range(50):
            y = rng.uniform(-4, 4)
            in1 = gaussian.rho(abs(y), p1) < r1
            in2 = gaussian.rho(abs(y), p2) < r2
            if in1 != in2 and abs(abs(y) - radius) > 1e-9:
                ok = False
    out.append(_result("euclidean", "ball family stability across times", ok, ""))
    return out


_SUITE_FUNCTIONS = {
    "dyadic": dyadic_suite,
    "spectral": spectral_suite,
    "laplacian": laplacian_suite,
    "euclidean": euclidean_suite,
}


def run_verify(suite: str = "all", seed: int = 0) -> list[CheckResult]:
    if suite == "all":
        names = SUITES
    elif suite in _SUITE_FUNCTIONS:
        names = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from all, {', '.join(SUITES)}")
    results = []
    for name in names:
        results.extend(_SUITE_FUNCTIONS[name](seed=seed))
    return results
