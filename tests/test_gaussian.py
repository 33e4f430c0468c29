import math
import random

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from dyadiff import gaussian, verify
from dyadiff.exceptions import QuadratureError
from dyadiff.gaussian import (
    GaussianParams,
    d_sq_quadrature,
    quad as de_quad,
    rho,
    rho_inverse,
    rho_sq_closed,
    rho_sq_derivative,
    rho_sq_quadrature,
    squared_ratio_limit,
    weierstrass,
)


class TestWeierstrass:
    def test_peak_value_example(self):
        # at t = 1/(4 pi) the n = 1 normalizer is exactly 1
        p = GaussianParams(1.0 / (4.0 * math.pi), 1)
        assert weierstrass(0.0, p) == pytest.approx(1.0, abs=0)

    def test_normalization(self):
        for t in (0.5, 1.0, 2.0):
            p = GaussianParams(t, 1)
            total, err = quad(lambda u: weierstrass(u, p), -np.inf, np.inf)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_semigroup_convolution(self):
        # W_t * W_t = W_2t, checked by quadrature at a few points
        t = 0.7
        p = GaussianParams(t, 1)
        p2 = GaussianParams(2 * t, 1)
        for x in (0.0, 0.5, 1.5):
            conv, _ = quad(
                lambda u: weierstrass(x - u, p) * weierstrass(u, p),
                -np.inf,
                np.inf,
            )
            assert conv == pytest.approx(weierstrass(x, p2), abs=1e-8)

    def test_vector_argument(self):
        p = GaussianParams(1.0, 2)
        assert weierstrass([0.0, 0.0], p) == pytest.approx(
            (4.0 * math.pi) ** -1.0, abs=0
        )

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            GaussianParams(0.0, 1)
        with pytest.raises(ValueError):
            GaussianParams(1.0, 0)


class TestQuadratureVsClosedForm:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("r", [0.1, 1.0, 3.0])
    def test_grid_agreement(self, n, t, r):
        p = GaussianParams(t, n)
        assert rho_sq_quadrature(r, p) == pytest.approx(
            rho_sq_closed(r, p), abs=1e-8
        )

    def test_general_points_match_radial_profile(self):
        p = GaussianParams(1.5, 2)
        x, y = np.array([0.3, -0.8]), np.array([-0.4, 1.1])
        r = float(np.linalg.norm(x - y))
        assert d_sq_quadrature(x, y, p) == pytest.approx(
            rho_sq_closed(r, p), abs=1e-8
        )

    def test_direct_dblquad_cross_check_n2(self):
        # one non-factorized 2d quadrature as an independent route
        p = GaussianParams(1.0, 2)
        r = 1.0
        lim = 10.0

        def integrand(z2, z1):
            dx = weierstrass([r - z1, -z2], p) - weierstrass([-z1, -z2], p)
            return dx * dx

        value, err = dblquad(integrand, -lim, lim + r, -lim, lim, epsabs=1e-10)
        assert value == pytest.approx(rho_sq_closed(r, p), abs=1e-7)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("t", [10.0**k for k in range(-6, 7)])
    def test_agreement_across_time_scales(self, n, t):
        # the pair integral reaches 1/sqrt(8 pi t) at small t, above the
        # absolute error gate unless quad's tolerance is scaled by it
        p = GaussianParams(t, n)
        for r in (1e-3, 1.0, 50.0):
            closed = rho_sq_closed(r, p)
            assert abs(rho_sq_quadrature(r, p) - closed) <= 1e-12 * max(1.0, closed)

    @pytest.mark.parametrize("n", [1, 2])
    def test_too_small_time_is_a_typed_error(self, n):
        with pytest.raises(QuadratureError):
            rho_sq_quadrature(50.0, GaussianParams(1e-8, n))

    def test_zero_distance(self):
        p = GaussianParams(1.0, 1)
        assert rho_sq_quadrature(0.0, p) == 0.0
        assert rho_sq_closed(0.0, p) == 0.0

    def test_rejects_unsupported_dimension(self):
        with pytest.raises(ValueError):
            d_sq_quadrature([0.0] * 3, [1.0] * 3, GaussianParams(1.0, 3))

    def test_rejects_negative_radius(self):
        p = GaussianParams(1.0, 1)
        with pytest.raises(ValueError):
            rho_sq_closed(-1.0, p)
        with pytest.raises(ValueError):
            rho_sq_quadrature(-1.0, p)


class TestDoubleExponentialQuad:
    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
    def test_exp_sinh_matches_lgamma_closed_form(self, s):
        # int_0^inf exp(-2 x^s) dx = Gamma(1 + 1/s) 2^(-1/s)
        value, err = de_quad(lambda x: math.exp(-2.0 * x**s), 0.0, math.inf, 1e-13)
        exact = math.exp(math.lgamma(1.0 + 1.0 / s) - math.log(2.0) / s)
        assert err <= 1e-13 * max(1.0, exact)
        assert abs(value - exact) <= 1e-14 * max(1.0, exact)

    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("a, b", [(0.0, 0.0), (0.1, 0.0), (1.0, 0.0), (0.7, -2.3)])
    def test_tanh_sinh_gaussian_pair_integral(self, t, a, b):
        # int W_t(a - u) W_t(b - u) du = exp(-(a - b)^2 / 8t) / sqrt(8 pi t)
        p = GaussianParams(t, 1)
        half = 12.0 * math.sqrt(2.0 * t)
        value, err = de_quad(
            lambda u: weierstrass(a - u, p) * weierstrass(b - u, p),
            min(a, b) - half, max(a, b) + half, 2.5e-11,
        )
        exact = math.exp(-((a - b) ** 2) / (8.0 * t)) / math.sqrt(8.0 * math.pi * t)
        assert err <= 2.5e-11 * max(1.0, exact)
        assert value == pytest.approx(exact, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_sinh_sinh_normalization_and_semigroup(self, t):
        p, p2 = GaussianParams(t, 1), GaussianParams(2.0 * t, 1)
        total, _ = de_quad(lambda u: weierstrass(u, p), -math.inf, math.inf, 1e-13)
        assert total == pytest.approx(1.0, abs=1e-15)
        for x in (0.0, 0.7, 3.0):
            conv, _ = de_quad(
                lambda u: weierstrass(x - u, p) * weierstrass(u, p), -math.inf, math.inf, 1e-13
            )
            assert conv == pytest.approx(weierstrass(x, p2), abs=1e-15)

    def test_jump_does_not_converge_within_level_cap(self):
        with pytest.raises(QuadratureError):
            de_quad(lambda x: 1.0 if x < 2**-0.5 else 0.0, 0.0, 1.0, 1e-14)

    def test_window_ends_must_be_negligible(self):
        # exp(-x / 1e40) has not decayed by the exp-sinh window's far end
        with pytest.raises(QuadratureError):
            de_quad(lambda x: math.exp(-x / 1e40), 0.0, math.inf, 1e-10)


def uncached_quad(f, a, b, tol):
    """`quad` as it was before its nodes were cached: every call evaluates
    sinh, tanh, cosh and exp at every node.  The oracle for bit-identity."""
    hp = 0.5 * math.pi
    if b < math.inf:
        c, r = 0.5 * (a + b), 0.5 * (b - a)

        def g(u):
            v = hp * math.sinh(u)
            return f(c + r * math.tanh(v)) * r * hp * math.cosh(u) / math.cosh(v) ** 2
    elif a > -math.inf:

        def g(u):
            x = math.exp(hp * math.sinh(u))
            return f(a + x) * hp * math.cosh(u) * x
    else:

        def g(u):
            v = hp * math.sinh(u)
            return f(math.sinh(v)) * hp * math.cosh(u) * math.cosh(v)

    h, n = 0.5, 9
    terms = [g(j * h) for j in range(-n, n + 1)]
    total = math.fsum(terms)
    value = total * h
    if (abs(terms[0]) + abs(terms[-1])) * h > tol * max(1.0, abs(value)):
        raise QuadratureError(f"quadrature window ends are not negligible at tol {tol}")
    for level in range(1, 11):
        h, n = 0.5 * h, 2 * n
        total += math.fsum(g(j * h) for j in range(1 - n, n, 2))
        prev, value = value, total * h
        if level >= 3 and abs(value - prev) <= tol * max(1.0, abs(value)):
            return value, abs(value - prev)
    raise QuadratureError(f"quadrature levels 9 and 10 differ by {abs(value - prev):.3e}, tol {tol}")


def _outcome(rule, f, a, b, tol):
    try:
        return rule(f, a, b, tol)
    except QuadratureError as exc:
        return str(exc)


_W = GaussianParams(0.7, 1)
# (integrand, a, b) on each of the three rules, from smooth to a jump
QUAD_CASES = [
    (lambda x: math.exp(-2.0 * x**0.5), 0.0, math.inf),
    (lambda x: math.exp(-x * x), 1.5, math.inf),
    (lambda x: math.exp(-x / 1e40), 0.0, math.inf),  # window ends not negligible
    (lambda x: 1.0 / (1.0 + x * x), -3.0, 2.0),
    (lambda x: math.sqrt(x), 0.0, 1.0),
    (lambda x: 1.0 if x < 2**-0.5 else 0.0, 0.0, 1.0),  # levels 9 and 10 disagree
    (lambda u: weierstrass(0.3 - u, _W) * weierstrass(-1.1 - u, _W), -12.0, 12.0),
    (lambda u: weierstrass(u, _W), -math.inf, math.inf),
    (lambda u: math.exp(-abs(u)) * math.cos(u), -math.inf, math.inf),
]


class TestQuadNodeCache:
    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13, 1e-15])
    @pytest.mark.parametrize("case", range(len(QUAD_CASES)))
    def test_bit_identical_to_uncached_rule(self, case, tol):
        f, a, b = QUAD_CASES[case]
        expected = _outcome(uncached_quad, f, a, b, tol)
        assert _outcome(de_quad, f, a, b, tol) == expected
        assert repr(_outcome(de_quad, f, a, b, tol)) == repr(expected)

    def test_both_errors_reached(self):
        outcomes = [_outcome(de_quad, f, a, b, 1e-13) for f, a, b in QUAD_CASES]
        assert any("window ends" in str(o) for o in outcomes)
        assert any("levels 9 and 10" in str(o) for o in outcomes)

    def test_second_call_adds_no_entries_and_levels_are_capped(self):
        for f, a, b in QUAD_CASES:
            _outcome(de_quad, f, a, b, 1e-15)
        info = gaussian._nodes.cache_info()
        for f, a, b in QUAD_CASES:
            _outcome(de_quad, f, a, b, 1e-15)
        after = gaussian._nodes.cache_info()
        assert (after.currsize, after.misses) == (info.currsize, info.misses)
        # with every level of every rule built, the table holds 11 levels per
        # rule and nothing else: 18,433 nodes a rule, 8 bytes a column entry
        for rule in ("finite", "half", "whole"):
            assert all(gaussian._nodes(rule, level) for level in range(11))
        assert gaussian._nodes.cache_info().currsize == 33
        columns = {"finite": 3, "half": 2, "whole": 3}
        nbytes = {rule: sum(col.nbytes for level in range(11) for col in gaussian._nodes(rule, level))
                  for rule in columns}
        assert nbytes == {rule: 8 * 18_433 * k for rule, k in columns.items()}
        assert sum(nbytes.values()) == 1_179_712


class TestProfileShape:
    def test_monotone_increasing_and_bounded(self):
        p = GaussianParams(1.0, 1)
        sup = 2.0 * (8.0 * math.pi) ** -0.5
        prev = 0.0
        for r in np.linspace(0.1, 8.0, 40):
            value = rho_sq_closed(float(r), p)
            assert value > prev
            assert value < sup
            prev = value

    @pytest.mark.parametrize("n", [1, 2])
    def test_derivative_matches_finite_differences(self, n):
        p = GaussianParams(0.8, n)
        h = 1e-6
        for r in (0.25, 1.0, 2.5):
            fd = (rho_sq_closed(r + h, p) - rho_sq_closed(r - h, p)) / (2 * h)
            assert rho_sq_derivative(r, p) == pytest.approx(fd, rel=1e-6)

    def test_rho_inverse_round_trip(self):
        p = GaussianParams(2.0, 1)
        for r in (0.05, 0.7, 4.0):
            assert rho_inverse(rho(r, p), p) == pytest.approx(r, abs=1e-9)

    def test_rho_inverse_relative_round_trip_at_tiny_radius(self):
        for n in (1, 2):
            for t in (0.1, 1.0, 7.0):
                p = GaussianParams(t, n)
                back = rho_inverse(rho(1e-14, p), p)
                assert back == pytest.approx(1e-14, rel=1e-12, abs=0)

    def test_rho_inverse_rejects_out_of_range(self):
        p = GaussianParams(1.0, 1)
        sup = math.sqrt(2.0 * (8.0 * math.pi) ** -0.5)
        with pytest.raises(ValueError):
            rho_inverse(sup, p)
        with pytest.raises(ValueError):
            rho_inverse(-0.1, p)

    def test_ball_family_stability_across_time(self):
        # a rho_{t1}-ball of radius eps equals a rho_{t2}-ball whose radius is
        # rho_{t2}(rho_{t1}^{-1}(eps)): same Euclidean ball either way
        p1, p2 = GaussianParams(1.0, 1), GaussianParams(3.0, 1)
        for eps_r in (0.2, 1.0, 2.0):
            eps = rho(eps_r, p1)
            euclid = rho_inverse(eps, p1)
            transferred = rho(euclid, p2)
            assert rho_inverse(transferred, p2) == pytest.approx(euclid, abs=1e-9)


class TestRatioLimits:
    def test_n1_example(self):
        # (t1, t2) = (1, 2), n = 1: limit 2^(3/2)
        assert verify.ratio_limit_gap([(1.0, 2.0, 1, [1e-2, 1e-3, 1e-4])]) <= 1e-3
        assert squared_ratio_limit(1.0, 2.0, 1) == pytest.approx(2.0**1.5, abs=0)

    def test_n2_example(self):
        # (t1, t2) = (1, 4), n = 2: limit 4^2 = 16
        assert verify.ratio_limit_gap([(1.0, 4.0, 2, [1e-2, 1e-3, 1e-4])]) <= 1e-3
        assert squared_ratio_limit(1.0, 4.0, 2) == pytest.approx(16.0, abs=0)

    def test_ratio_approaches_limit_from_quadrature(self):
        t1, t2, n = 1.0, 2.0, 1
        r = 1e-2
        p1, p2 = GaussianParams(t1, n), GaussianParams(t2, n)
        ratio = rho_sq_quadrature(r, p1) / rho_sq_quadrature(r, p2)
        assert ratio == pytest.approx(squared_ratio_limit(t1, t2, n), rel=1e-3)

    def test_non_convergent_grid_rejected(self):
        # an empty grid has no radius to extrapolate from
        with pytest.raises(ValueError):
            verify.ratio_limit_gap([(2.0, 1.0, 1, [])])


class TestInvariance:
    @pytest.mark.parametrize("n", [1, 2])
    def test_translation_and_rotation(self, n):
        configs = verify.invariance_configs(random.Random(7), n, trials=5)
        assert verify.invariance_gap(GaussianParams(1.0, n), configs) < 1e-6

    def test_rejects_unsupported_dimension(self):
        configs = verify.invariance_configs(random.Random(0), 3, trials=1)
        with pytest.raises(ValueError):
            verify.invariance_gap(GaussianParams(1.0, 3), configs)
