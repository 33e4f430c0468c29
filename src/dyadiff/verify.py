"""Seeded property suites behind the `verify` command.

Each property is written once here, as a function of its inputs that
returns the measured worst value; the property holds exactly when that
value is at most its bound.  Exact identities are counted (violations
against bound 0); inequalities report their worst margin.  A suite draws
its inputs from `random.Random(seed)`, calls the property functions and
reports one line per property with the measured value and the bound.  The
acceptance tests call the same functions on their own inputs and bounds,
so a deployed build re-verifies itself from the command line with exactly
the checks its release was accepted on.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial

from . import gaussian, laplacian, spectral
from .dyadic import (
    DyadicInterval,
    DyadicPoint,
    dyadic_distance,
    haar_eval,
    log2_distance,
    value_type,
)
from .exceptions import ResidualTooLarge
from .spectral import DEFAULT_TRUNC, DiffusionParams

SUITES = ("dyadic", "spectral", "laplacian", "euclidean")

_S_GRID = (0.25, 0.5, 1.0, 2.0)
_T_GRID = (0.1, 1.0, 10.0)


CheckResult = value_type("CheckResult", "suite name passed detail measured bound")


def random_point(
    rng: random.Random, max_exponent: int = 12, span: int = 16
) -> DyadicPoint:
    e = rng.randrange(0, max_exponent + 1)
    return DyadicPoint(rng.randrange(0, span << e), e)


def random_interval(rng: random.Random) -> DyadicInterval:
    j = rng.randrange(-6, 13)
    k = rng.randrange(0, 64)
    return DyadicInterval(j, k)


def _result(suite, name, label, measured, bound) -> CheckResult:
    shown = f"{measured:.3e}" if isinstance(measured, float) else str(measured)
    detail = f"{label} = {shown}, bound {bound:.3g}"
    return CheckResult(suite, name, measured <= bound, detail, measured, bound)


# -- dyadic ------------------------------------------------------------------

def lower_bound_excess(pairs) -> float:
    """max over pairs with x != y of |x - y| - delta(x, y)."""
    return max(
        (float(abs(x.value - y.value) - dyadic_distance(x, y)) for x, y in pairs if x != y),
        default=-math.inf,
    )


def ultrametric_excess(triples) -> float:
    """max of delta(x, z) - max(delta(x, y), delta(y, z)), exact until the float."""
    return max(
        float(dyadic_distance(x, z) - max(dyadic_distance(x, y), dyadic_distance(y, z)))
        for x, y, z in triples
    )


def symmetry_violations(pairs) -> int:
    """Pairs with delta(x, y) != delta(y, x), or delta(x, y) = 0 while x != y."""
    return sum(
        dyadic_distance(x, y) != dyadic_distance(y, x) or (dyadic_distance(x, y) == 0) != (x == y)
        for x, y in pairs
    )


def nesting_violations(interval_pairs) -> int:
    """Pairs of dyadic intervals that overlap without being nested."""
    return sum(
        (a.contains_interval(b) or b.contains_interval(a)) == (a.overlap_length(b) == 0)
        for a, b in interval_pairs
    )


def haar_moment_gap(intervals) -> float:
    """max of |mean of h_I| (from its values on the two children) and
    |2^j |I| - 1|, the squared L2 norm less 1."""
    worst = 0.0
    for interval in intervals:
        left, right = interval.left_child(), interval.right_child()
        v = haar_eval(interval, DyadicPoint.from_fraction(left.midpoint))
        mean = v * float(left.length) + (-v) * float(right.length)
        norm_sq = Fraction(2) ** interval.level * interval.length
        worst = max(worst, abs(mean), abs(float(norm_sq - 1)))
    return worst


def power_of_two_violations(pairs) -> int:
    """Pairs whose delta is neither 0 nor an exact power of 2."""
    count = 0
    for x, y in pairs:
        d = dyadic_distance(x, y)
        count += d != 0 and bool(d.numerator & (d.numerator - 1) or d.denominator & (d.denominator - 1))
    return count


def dyadic_suite(seed: int = 0, samples: int = 400) -> list[CheckResult]:
    rng = random.Random(seed)
    line = partial(_result, "dyadic")

    def draw(make, k):
        return [tuple(make(rng) for _ in range(k)) for _ in range(samples)]

    # a seed fixes the inputs through the order of these draws: each line
    # draws its inputs as it is built
    return [
        line("euclidean lower bound |x-y| <= delta", "max over x != y of |x-y| - delta",
             lower_bound_excess(draw(random_point, 2)), 0),
        line("ultrametric inequality", "max delta(x,z) - max(delta(x,y), delta(y,z))",
             ultrametric_excess(draw(random_point, 3)), 0),
        line("symmetry and identity of indiscernibles", "violations",
             symmetry_violations(draw(random_point, 2)), 0),
        line("nesting dichotomy: disjoint or nested", "violations",
             nesting_violations(draw(random_interval, 2)), 0),
        line("haar zero mean and unit L2 norm", "max(|mean|, |norm^2 - 1|)",
             haar_moment_gap([random_interval(rng) for _ in range(64)]), 0),
        line("delta is 0 or an exact power of 2", "violations",
             power_of_two_violations(draw(random_point, 2)), 0),
    ]


# -- spectral ----------------------------------------------------------------

def route_gap(pairs, grid) -> float:
    """max |distance_spectral - distance_closed| over the pairs at each params in grid."""
    return max(
        abs(spectral.distance_spectral(x, y, p) - spectral.distance_closed(x, y, p))
        for x, y in pairs
        for p in grid
    )


def metric_axiom_violations(cases) -> int:
    """Over cases (x, y, z, params): breaks of d(x, z) <= max(d(x, y), d(y, z))
    (to a relative 1e-14), of symmetry, of d(x, x) = 0, and of d(x, y) > 0
    for x != y away from underflow (2 t delta^-s < 700)."""
    count = 0
    for x, y, z, p in cases:
        dxz, dxy, dyz = (spectral.distance_closed(a, b, p) for a, b in ((x, z), (x, y), (y, z)))
        count += dxz > max(dxy, dyz) * (1 + 1e-14) + 1e-300
        count += dxy != spectral.distance_closed(y, x, p)
        count += x == y and dxy != 0.0
        count += x != y and 2.0 * p.t * float(dyadic_distance(x, y)) ** (-p.s) < 700.0 and dxy <= 0.0
    return count


def table_series_gap(grid, levels) -> float:
    """max |table - log_psi_sq| / max(1, |log psi^2|) at 2^i, i in levels, for
    each params in grid; inf where the table of log psi_t(2^i)^2 decreases."""
    worst = 0.0
    for p in grid:
        logs = spectral._psi_table(p, DEFAULT_TRUNC)[1]
        if any(a > b for a, b in zip(logs, logs[1:])):
            return math.inf
        for i in levels:
            series = spectral.log_psi_sq(p, Fraction(2) ** i)
            gap = abs(spectral._log_psi_sq_at(p, i, DEFAULT_TRUNC) - series)
            worst = max(worst, gap / max(1.0, abs(series)) if gap else 0.0)
    return worst


def c_quadrature_gap(integrals, times) -> float:
    """max |c_t(s) - t^(-1/2s) sqrt(I_s)| with integrals[s] = (I_s, error
    estimate) for I_s = int_0^inf exp(-2 x^s) dx, at each t in times; inf
    where an error estimate exceeds 1e-6 or sqrt(2) c < psi_inf < 2c fails."""
    worst = 0.0
    for s, (integral, err) in integrals.items():
        if err > 1e-6:
            return math.inf
        for t in times:
            p = DiffusionParams(s, t)
            lo, mid, hi = spectral.sandwich(p)
            if not lo < mid < hi:
                return math.inf
            worst = max(worst, abs(spectral.c_t_s(p) - t ** (-1.0 / (2.0 * s)) * math.sqrt(integral)))
    return worst


def squared_ratio_excess(cases) -> float:
    """Over cases (x, y, s, t1, t2), t1 < t2: max of
    log(d_t2^2 / d_t1^2) - (-2 (t2 - t1) delta^-s) less 4 ulps of the largest
    of the three logs; inf where d_t2 > d_t1 (1 + 1e-14).  The logs are the
    ones `distance_closed` reads, so the bound holds where both squares
    underflow while d_t1 > 0."""
    worst = -math.inf
    for x, y, s, t1, t2 in cases:
        p1, p2 = DiffusionParams(s, t1), DiffusionParams(s, t2)
        d1 = spectral.distance_closed(x, y, p1)
        if spectral.distance_closed(x, y, p2) > d1 * (1 + 1e-14):
            return math.inf
        i = log2_distance(x, y)
        if i is not None:
            log1 = spectral._log_psi_sq_at(p1, i, DEFAULT_TRUNC)
            log2 = spectral._log_psi_sq_at(p2, i, DEFAULT_TRUNC)
            log_bound = -2.0 * (t2 - t1) * 2.0 ** (-i * s)
            slack = 4.0 * math.ulp(max(abs(log1), abs(log2), abs(log_bound)))
            worst = max(worst, (log2 - log1) - log_bound - slack)
    return worst


def witness_ratio(x, y, s, t1, t2) -> float:
    """d_t2(x, y) / d_t1(x, y): far below 1 at t1 < t2 shows that the metrics
    at two times are not equivalent."""
    d1 = spectral.distance_closed(x, y, DiffusionParams(s, t1))
    return spectral.distance_closed(x, y, DiffusionParams(s, t2)) / d1 if d1 else math.inf


def kernel_bound_excess(cases) -> float:
    """max of |K(x, y)| delta / 2 - 1 over cases (x, y, params) with x != y."""
    return max(
        abs(spectral.kernel_K(x, y, p)) * float(dyadic_distance(x, y)) / 2.0 - 1.0
        for x, y, p in cases
    )


def ball_membership_mismatches(cases) -> int:
    """Over cases (x, r, params, ys) with r < psi_inf: balls that are the
    whole space, and points y whose d_t(x, y) < r disagrees with membership."""
    count = 0
    for x, r, p, ys in cases:
        b = spectral.ball(x, r, p)
        if b.is_whole_space:
            count += 1
            continue
        count += sum((spectral.distance_closed(x, y, p) < r) != b.interval.contains(y) for y in ys)
    return count


def ball_transfer_mismatches(cases) -> int:
    """Over cases (x, r1, s, t1, t2): balls at t1 that differ from the ball at
    t2 of the radius `ball_radius_transfer` gives."""
    return sum(
        spectral.ball(x, r1, DiffusionParams(s, t1))
        != spectral.ball(x, spectral.ball_radius_transfer(x, r1, t1, t2, s), DiffusionParams(s, t2))
        for x, r1, s, t1, t2 in cases
    )


def spectral_suite(seed: int = 0, pairs: int = 60) -> list[CheckResult]:
    rng = random.Random(seed)
    line = partial(_result, "spectral")
    grid = [DiffusionParams(s, t) for s in _S_GRID for t in _T_GRID]

    def random_params():
        return DiffusionParams(rng.choice(_S_GRID), rng.choice(_T_GRID))

    # a seed fixes the inputs through the order of these draws
    route_pairs = [(random_point(rng), random_point(rng)) for _ in range(pairs)]
    axiom_cases = [
        (random_point(rng), random_point(rng), random_point(rng), random_params())
        for _ in range(pairs)
    ]
    ratio_cases = []
    for _ in range(pairs):
        x, y, s = random_point(rng), random_point(rng), rng.choice(_S_GRID)
        ratio_cases.append((x, y, s, *sorted(rng.sample(_T_GRID, 2))))
    kernel_cases = []
    for _ in range(300):
        x, y = random_point(rng), random_point(rng)
        if x != y:
            kernel_cases.append((x, y, random_params()))
    ball_cases = []
    for _ in range(20):
        x, p = random_point(rng, max_exponent=6), random_params()
        r = rng.uniform(0.2, 0.98) * spectral.psi_infinity(p)
        ball_cases.append((x, r, p, [random_point(rng, max_exponent=6, span=32) for _ in range(200)]))
    transfer_cases = []
    for _ in range(10):
        x, s = random_point(rng, max_exponent=6), rng.choice(_S_GRID)
        t1, t2 = rng.choice(_T_GRID), rng.choice(_T_GRID)
        r1 = rng.uniform(0.2, 0.95) * spectral.psi_infinity(DiffusionParams(s, t1))
        transfer_cases.append((x, r1, s, t1, t2))
    # c_t(s) by its second route: quadrature of int_0^inf exp(-2 x^s) dx
    integrals = {
        s: gaussian.quad(lambda x: math.exp(-2.0 * x**s), 0.0, math.inf, 1e-13) for s in _S_GRID
    }

    return [
        # 2e-10 is the acceptance tolerance; pure tail error would be
        # 2 * tail_tol, but roundoff dominates for large distances
        line("theorem: spectral route equals psi(delta)", "max |spectral - closed|",
             route_gap(route_pairs, grid), 2e-10),
        line("metric axioms (ultrametric form)", "violations",
             metric_axiom_violations(axiom_cases), 0),
        line("psi table against the eta series",
             "max |table - log_psi_sq| / max(1, |log psi^2|), inf if the table decreases",
             table_series_gap(grid, range(-40, 41)), 1e-12),
        line("psi vanishes at fine scales", "psi_1(2^-60)",
             spectral.psi(DiffusionParams(1.0, 1.0), Fraction(1, 2**60)), 1e-8),
        line("sqrt(2)c < psi_inf < 2c sandwich",
             "max |c - c_quad|, inf if a sandwich or quadrature fails",
             c_quadrature_gap(integrals, _T_GRID), 1e-8),
        line("time monotonicity and squared-ratio bound",
             "max log(d_t2^2 / d_t1^2) - log bound - 4 ulps",
             squared_ratio_excess(ratio_cases), math.log1p(1e-12)),
        line("non-equivalence witness d_t1 > 1e6 d_t2", "d_t2 / d_t1",
             witness_ratio(DyadicPoint(1, 5), DyadicPoint(3, 5), 1.0, 0.1, 10.0), 1e-6),
        line("kernel bound |K| <= 2/delta", "max |K| delta / 2 - 1",
             kernel_bound_excess(kernel_cases), 1e-12),
        line("balls are dyadic intervals (membership oracle)", "mismatches",
             ball_membership_mismatches(ball_cases), 0),
        line("ball radius transfer across times", "mismatches",
             ball_transfer_mismatches(transfer_cases), 0),
    ]


# -- laplacian ---------------------------------------------------------------

def eigen_scaling_spread(cases) -> float:
    """Over cases (s, intervals): max (max - min) / min of lambda_I |I|^s across
    the intervals; inf where an eigenrelation residual exceeds 1e-10."""
    worst = 0.0
    for s, intervals in cases:
        try:
            scaled = [
                laplacian.haar_eigenvalue(I, s, residual_tol=1e-10) * float(I.length) ** s
                for I in intervals
            ]
        except ResidualTooLarge:
            return math.inf
        worst = max(worst, (max(scaled) - min(scaled)) / min(scaled))
    return worst


def linearity_gap(cases) -> float:
    """Over cases (f, g, x, s, a, b), f and g on disjoint pieces: max of
    |D^s(a f + b g)(x) - (a D^s f(x) + b D^s g(x))| / max(1, |rhs|)."""
    worst = 0.0
    for f, g, x, s, a, b in cases:
        combined = laplacian.PiecewiseDyadicFunction.from_pairs(
            [(i, a * v) for i, v in f.pieces] + [(i, b * v) for i, v in g.pieces]
        )
        lhs = laplacian.apply_laplacian(combined, x, s)
        rhs = a * laplacian.apply_laplacian(f, x, s) + b * laplacian.apply_laplacian(g, x, s)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst


def constant_block_decay(x, value, s, levels) -> float:
    """|D^s f(x)| for f = value on [0, 2^j), j over the increasing levels: the
    last one when they strictly decrease, else inf.  The global constant is
    in the kernel, so the operator decays like the geometric boundary tail."""
    magnitudes = [
        abs(laplacian.apply_laplacian(
            laplacian.PiecewiseDyadicFunction.from_pairs([(DyadicInterval(-j, 0), value)]), x, s
        ))
        for j in levels
    ]
    return magnitudes[-1] if all(a > b for a, b in zip(magnitudes, magnitudes[1:])) else math.inf


def evolution_route_gap(cases) -> float:
    """Over cases (expansion, params, points): max |evolve_pointwise -
    evolve_spectral| at the points."""
    worst = 0.0
    for expansion, p, points in cases:
        f = expansion.to_piecewise()
        evolved = laplacian.evolve_spectral(expansion, p)
        for x in points:
            worst = max(worst, abs(laplacian.evolve_pointwise(f, x, p) - evolved.evaluate(x)))
    return worst


def semigroup_gap(cases, floor: float) -> float:
    """Over cases (expansion, s, t1, t2): max |c1 - c2| / max(floor, |c2|)
    between the coefficients evolved by t1 then t2 and by t1 + t2; inf where
    the intervals differ.  floor = 0 is the relative gap; the rounding of
    t lambda leaves a relative error near t lambda ulps, which floor = 1
    admits for coefficients below 1."""
    worst = 0.0
    for expansion, s, t1, t2 in cases:
        stepped = laplacian.evolve_spectral(
            laplacian.evolve_spectral(expansion, DiffusionParams(s, t1)), DiffusionParams(s, t2)
        )
        direct = laplacian.evolve_spectral(expansion, DiffusionParams(s, t1 + t2))
        for (i1, c1), (i2, c2) in zip(stepped.coefficients, direct.coefficients):
            if i1 != i2:
                return math.inf
            if c1 != c2:
                scale = max(floor, abs(c2))
                worst = max(worst, abs(c1 - c2) / scale if scale else math.inf)
    return worst


def laplacian_suite(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    line = partial(_result, "laplacian")
    from_pairs = laplacian.PiecewiseDyadicFunction.from_pairs

    # a seed fixes the inputs through the order of these draws
    eigen_cases = [
        (s, [DyadicInterval(j, rng.randrange(0, 4)) for j in (-3, 0, 3)]) for s in (0.25, 0.5, 0.75)
    ]
    trials = 20
    linear_cases = []
    for _ in range(trials):
        # f and g come from one pool of disjoint intervals, so a f + b g is
        # piecewise too
        used = []
        while len(used) < 10:
            interval = DyadicInterval(rng.randrange(0, 4), rng.randrange(0, 12))
            if all(interval.disjoint(u) for u in used):
                used.append(interval)
        pool = [(i, rng.uniform(-2, 2)) for i in used]
        linear_cases.append((
            from_pairs(pool[:5]), from_pairs(pool[5:]), random_point(rng, max_exponent=5, span=12),
            rng.uniform(0.1, 0.9), rng.uniform(-1, 1), rng.uniform(-1, 1),
        ))
    route_cases = []
    for _ in range(20):
        coefficients = {}
        while len(coefficients) < 4:
            interval = DyadicInterval(rng.randrange(-2, 5), rng.randrange(0, 8))
            if interval not in coefficients:
                coefficients[interval] = rng.uniform(-2, 2)
        p = DiffusionParams(rng.choice(_S_GRID), rng.choice(_T_GRID))
        route_cases.append((laplacian.HaarExpansion.from_pairs(coefficients.items()), p,
                            [random_point(rng, max_exponent=5, span=12)]))
    semigroup_cases = [
        (laplacian.HaarExpansion.from_pairs(
            [(DyadicInterval(rng.randrange(-2, 5), rng.randrange(0, 8)), rng.uniform(-1, 1))]),
         rng.choice(_S_GRID), rng.uniform(0.1, 2), rng.uniform(0.1, 2))
        for _ in range(10)
    ]

    return [
        line("haar eigenrelation and |I|^-s scaling", "max (max - min) / min of lambda_I |I|^s",
             eigen_scaling_spread(eigen_cases), 1e-10),
        line("linearity of the integral operator", f"max gap over {trials} trials",
             linearity_gap(linear_cases), 1e-9),
        line("constants are annihilated in the large-block limit",
             "|D^s f(1/2)|, f = 1.5 on [0, 2^10); inf unless falling over 2^2, 2^6, 2^10",
             constant_block_decay(DyadicPoint(1, 1), 1.5, 0.5, (2, 6, 10)), 0.1),
        line("spectral vs kernel-integral evolution", "max route gap",
             evolution_route_gap(route_cases), DEFAULT_TRUNC.tail_tol),
        line("semigroup law of the multipliers", "max |c1 - c2| / max(1, |c2|)",
             semigroup_gap(semigroup_cases, floor=1.0), 1e-15),
    ]


# -- euclidean ---------------------------------------------------------------

def profile_quadrature_gap(cases) -> float:
    """max |rho_sq_quadrature - rho_sq_closed| over cases (r, GaussianParams)."""
    return max(abs(gaussian.rho_sq_quadrature(r, p) - gaussian.rho_sq_closed(r, p)) for r, p in cases)


def profile_derivative_gap(cases) -> float:
    """Over cases (r, GaussianParams): max |FD - exact| / min(|FD|, |exact|)
    for the central difference of rho^2 with step 1e-6 and `rho_sq_derivative`."""
    h, worst = 1e-6, 0.0
    for r, p in cases:
        fd = (gaussian.rho_sq_closed(r + h, p) - gaussian.rho_sq_closed(r - h, p)) / (2 * h)
        exact = gaussian.rho_sq_derivative(r, p)
        worst = max(worst, abs(fd - exact) / min(abs(fd), abs(exact)))
    return worst


def ratio_limit_gap(cases) -> float:
    """Over cases (t1, t2, n, radii): the relative error of rho_t1^2 / rho_t2^2
    at the smallest radius against its limit (t2/t1)^(n/2+1); inf where the
    ratios along the radii, largest first, do not settle (the last step
    exceeds the first)."""
    worst = 0.0
    for t1, t2, n, radii in cases:
        if not radii or min(radii) <= 0:
            raise ValueError("radii must be positive and decrease toward 0")
        p1, p2 = gaussian.GaussianParams(t1, n), gaussian.GaussianParams(t2, n)
        values = [gaussian.rho_sq_closed(r, p1) / gaussian.rho_sq_closed(r, p2)
                  for r in sorted(radii, reverse=True)]
        steps = [abs(b - a) for a, b in zip(values, values[1:])]
        if len(steps) >= 2 and steps[-1] > steps[0] + 1e-12:
            return math.inf
        limit = gaussian.squared_ratio_limit(t1, t2, n)
        worst = max(worst, abs(values[-1] - limit) / limit)
    return worst


def invariance_configs(rng: random.Random, n: int, trials: int) -> list[tuple]:
    """Random (x, y, v, theta) for `invariance_gap`: x, y in [-2, 2]^n, a shift
    v in [-3, 3]^n and, for n = 2, a rotation angle theta."""
    configs = []
    for _ in range(trials):
        x, y = ([rng.uniform(-2, 2) for _ in range(n)] for _ in range(2))
        v = [rng.uniform(-3, 3) for _ in range(n)]
        configs.append((x, y, v, rng.uniform(0, 2 * math.pi) if n == 2 else None))
    return configs


def invariance_gap(p: gaussian.GaussianParams, configs) -> float:
    """max |d_t(x, y) - d_t(x + v, y + v)| and, where theta is given,
    |d_t(x, y) - d_t(R x, R y)| for the rotation R by theta, by quadrature
    at tol 1e-9."""
    worst = 0.0
    for x, y, v, theta in configs:
        base = math.sqrt(gaussian.d_sq_quadrature(x, y, p, 1e-9))
        moved = [([a + b for a, b in zip(x, v)], [a + b for a, b in zip(y, v)])]
        if theta is not None:
            c, s = math.cos(theta), math.sin(theta)
            moved.append(tuple((c * z[0] - s * z[1], s * z[0] + c * z[1]) for z in (x, y)))
        for mx, my in moved:
            worst = max(worst, abs(base - math.sqrt(gaussian.d_sq_quadrature(mx, my, p, 1e-9))))
    return worst


def weierstrass_identity_gap(p: gaussian.GaussianParams, x: float) -> float:
    """max of |int W_t - 1| and |(W_t * W_t)(x) - W_2t(x)| in dimension 1, by
    quadrature at tol 1e-13."""
    w = partial(gaussian.weierstrass, p=p)
    norm, _ = gaussian.quad(w, -math.inf, math.inf, 1e-13)
    conv, _ = gaussian.quad(lambda z: w(x - z) * w(z), -math.inf, math.inf, 1e-13)
    return max(abs(norm - 1.0), abs(conv - gaussian.weierstrass(x, gaussian.GaussianParams(2 * p.t, 1))))


def ball_family_violations(cases) -> int:
    """Over cases (r1, p1, p2, ys) in dimension 1: points y more than 1e-9
    from the radius rho_t1^-1(r1) whose membership in the t1 ball of radius
    r1 and in the t2 ball of radius rho_t2(rho_t1^-1(r1)) differ."""
    count = 0
    for r1, p1, p2, ys in cases:
        radius = gaussian.rho_inverse(r1, p1)
        r2 = gaussian.rho(radius, p2)
        count += sum(
            (gaussian.rho(abs(y), p1) < r1) != (gaussian.rho(abs(y), p2) < r2)
            and abs(abs(y) - radius) > 1e-9
            for y in ys
        )
    return count


def euclidean_suite(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    line = partial(_result, "euclidean")
    G = gaussian.GaussianParams
    p1 = G(1.0, 1)
    family_cases = []
    for _ in range(10):
        r1 = rng.uniform(0.05, 0.9) * math.sqrt(2.0 * (8.0 * math.pi * p1.t) ** (-0.5))
        family_cases.append((r1, p1, G(3.0, 1), [rng.uniform(-4, 4) for _ in range(50)]))
    radii = [10.0 ** (-k) for k in range(1, 5)]

    return [
        line("quadrature profile matches closed form", "max |quadrature - closed|",
             profile_quadrature_gap(
                 [(r, G(t, n)) for n in (1, 2) for t in (0.5, 1.0, 2.0) for r in (0.1, 1.0, 3.0)]),
             1e-8),
        line("profile derivative identity", "max |FD - exact| / min(|FD|, |exact|)",
             profile_derivative_gap([(r, p1) for r in (0.5, 1.0, 2.0)]), 1e-6),
        line("small-r squared ratio limit", "max relative error at r = 1e-4",
             ratio_limit_gap([(1.0, 2.0, 1, radii), (1.0, 4.0, 2, radii)]), 1e-3),
        *(line(f"translation/rotation invariance (n={n})", "max gap",
               invariance_gap(G(1.0, n), invariance_configs(random.Random(seed), n, 4)), 1e-6)
          for n in (1, 2)),
        line("kernel normalization and semigroup identity", "max of norm and semigroup gaps",
             weierstrass_identity_gap(p1, 0.7), 1e-8),
        line("ball family stability across times", "violations",
             ball_family_violations(family_cases), 0),
    ]


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
