import math
import random
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadiff import spectral
from dyadiff.dyadic import DyadicPoint, dyadic_distance, haar_eval, interval_containing
from dyadiff.exceptions import CapExceeded
from dyadiff.spectral import (
    Ball,
    DEFAULT_TRUNC,
    DiffusionParams,
    TruncationPolicy,
    ball,
    ball_radius_transfer,
    c_t_s,
    distance_closed,
    distance_spectral,
    kernel_K,
    log_psi_sq,
    log_psi_sq_increment,
    psi,
    psi_infinity,
)

from conftest import points


def pt(x) -> DyadicPoint:
    return DyadicPoint.from_fraction(Fraction(x))


# ---------------------------------------------------------------------------
# brute-force oracles, written against the raw series in extended precision
# ---------------------------------------------------------------------------

def eta_oracle(s, t, sigma, terms=200):
    with mp.workdps(60):
        total = 2 * mp.e ** (-2 * t * sigma)
        for ell in range(1, terms + 1):
            total += mp.mpf(2) ** ell * mp.e ** (-2 * t * mp.mpf(2) ** (s * ell) * sigma)
        return float(total)


def bilateral_oracle(s, t, lo=-120, hi=40):
    with mp.workdps(60):
        total = mp.mpf(0)
        for k in range(lo, hi + 1):
            total += mp.mpf(2) ** k * mp.e ** (-2 * t * mp.mpf(2) ** (k * s))
        return float(mp.sqrt(2 * total))


def kernel_oracle(x: Fraction, y: Fraction, s, t, level_range=40):
    """Sum e^(-t|I|^-s) h_I(x) h_I(y) over every wavelet of levels
    [-level_range, level_range], locating supports by plain floor division."""
    with mp.workdps(60):
        total = mp.mpf(0)
        for j in range(-level_range, level_range + 1):
            scale = Fraction(2) ** j
            kx = math.floor(x * scale)
            ky = math.floor(y * scale)
            if kx != ky:
                continue
            mag = mp.sqrt(mp.mpf(2) ** j)
            mid = Fraction(2 * kx + 1, 2) / scale
            hx = mag if x < mid else -mag
            hy = mag if y < mid else -mag
            total += mp.e ** (-t * mp.mpf(2) ** (j * s)) * hx * hy
        return float(total)


def log_limit_sq_oracle(s, t, lo, hi):
    """log psi_t(+inf)^2 = log(2 sum_k 2^k exp(-2t 2^(k s))) over levels [lo, hi]
    at 50 digits."""
    with mp.workdps(50):
        total = mp.fsum(
            mp.mpf(2) ** k * mp.e ** (-2 * mp.mpf(t) * mp.mpf(2) ** (mp.mpf(s) * k))
            for k in range(lo, hi + 1)
        )
        return float(mp.log(2 * total))


def log_band_oracle(c, s, shift=0, lo=-math.inf):
    """log sum_{l >= lo} 2^l exp(-c 2^(s (l - shift))) at 50 digits, over the
    band of levels whose terms are within e^-60 of the largest.  The log of
    a term is concave in l, so the terms fall on both sides of the peak, at
    least as fast as where they crossed e^-60: the rest is below 1e-24 of
    the sum."""
    with mp.workdps(50):
        c, q, ln2 = mp.mpf(c), mp.mpf(2) ** s, mp.log(2)
        peak = max(int(mp.floor(shift - mp.log(c * s, 2) / s)), lo)

        def log_terms(ell, step):  # from ell outwards, by 2^(s (l - shift)) *= q^step
            power = mp.mpf(2) ** (s * (ell - shift))
            while ell >= lo:
                yield ell * ln2 - c * power
                ell, power = ell + step, power * q ** step

        top = max(next(log_terms(peak, 1)), next(log_terms(peak + 1, 1)))
        logs = []
        for ell, step in ((peak, -1), (peak + 1, 1)):
            for x in log_terms(ell, step):
                if x < top - 60:
                    break
                logs.append(x)
        return top + mp.log(mp.fsum(mp.exp(x - top) for x in logs))


def eta_via_psi(p, sigma, trunc=DEFAULT_TRUNC):
    """eta_t(sigma) = (lam / 2) psi_t(lam)^2 at lam = sigma^(-1/s)."""
    lam = sigma ** (-1.0 / p.s)
    return 0.5 * lam * math.exp(log_psi_sq(p, lam, trunc))


class TestEta:
    """The series eta_t behind psi_t(lam)^2 = (2/lam) eta_t(lam^-s), read back
    through log_psi_sq and checked against the raw series."""

    def test_against_partial_sum_oracle(self):
        # the certified discarded tail may be up to tail_tol in absolute size
        p = DiffusionParams(1.0, 1.0)
        assert eta_via_psi(p, 1.0) == pytest.approx(
            eta_oracle(1.0, 1.0, 1.0), abs=DEFAULT_TRUNC.tail_tol
        )

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_general_grid_against_oracle(self, s, t):
        p = DiffusionParams(s, t)
        for sigma in (0.25, 1.0, 7.0):
            expected = eta_oracle(s, t, sigma)
            assert eta_via_psi(p, sigma) == pytest.approx(
                expected, abs=DEFAULT_TRUNC.tail_tol, rel=1e-9
            )

    def test_vanishes_for_large_sigma(self):
        p = DiffusionParams(1.0, 1.0)
        assert eta_via_psi(p, 1e6) < 1e-30

    def test_decreasing_in_sigma(self):
        # at sigma = 2^9 the true value (~1e-445) underflows double precision,
        # so the named comparison is delegated to the extended-precision oracle
        with mp.workdps(200):
            big = 2 * mp.e ** (-2 * mp.mpf(2) ** 10)
            small = 2 * mp.e ** (-2 * mp.mpf(2) ** 9)
            for ell in range(1, 50):
                big += mp.mpf(2) ** ell * mp.e ** (-2 * mp.mpf(2) ** ell * mp.mpf(2) ** 10)
                small += mp.mpf(2) ** ell * mp.e ** (-2 * mp.mpf(2) ** ell * mp.mpf(2) ** 9)
            assert big < small
        # the implementation resolves the same monotonicity where doubles can
        p = DiffusionParams(1.0, 1.0)
        assert eta_via_psi(p, 2.0**5) < eta_via_psi(p, 2.0**4)

    def test_rejects_nonpositive_sigma(self):
        # sigma = lam^-s is positive for every lam > 0; other lam are rejected
        p = DiffusionParams(1.0, 1.0)
        for lam in (0.0, -1.0):
            with pytest.raises(ValueError):
                log_psi_sq(p, lam)
        with pytest.raises(ValueError):
            psi(p, -1.0)

    def test_cap_exceeded_on_pathological_parameters(self):
        tiny = TruncationPolicy(tail_tol=1e-12, max_terms=3)
        with pytest.raises(CapExceeded):
            eta_via_psi(DiffusionParams(0.25, 1e-8), 1e-8, tiny)


class TestPsi:
    def test_zero_boundary(self):
        assert psi(DiffusionParams(1.0, 1.0), 0) == 0.0

    def test_at_one(self):
        p = DiffusionParams(1.0, 1.0)
        assert psi(p, 1) == pytest.approx(math.sqrt(2 * eta_oracle(1, 1, 1)), rel=1e-13)

    def test_monotone_on_powers_of_two(self):
        p = DiffusionParams(1.0, 1.0)
        values = [psi(p, Fraction(2) ** i) for i in range(-3, 4)]
        assert values == sorted(values)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_increment_log_form_finite_everywhere(self):
        # the log of the increment is about -2t 2^(-(i+1)s); where that is past
        # the double range (s >= 1 at the bottom of the level range) the
        # increment is an exact floating-point 0 and its log is -inf
        for s in (0.25, 0.5, 1.0, 2.0, 8.0):
            for t in (1e-3, 1.0, 1e3):
                p = DiffusionParams(s, t)
                for i in range(-1024, 1025):
                    v = log_psi_sq_increment(p, i)
                    past = math.log2(2.0 * t) - (i + 1) * s >= 1023
                    assert math.isfinite(v) or (past and v == -math.inf)

    @pytest.mark.parametrize("s, t, i", [(2.0, 1e3, 538), (2.0, 1e3, 1024), (0.25, 1e-3, 1024)])
    def test_increment_where_a_underflows_against_oracle(self, s, t, i):
        # a = 2t 2^(-is) underflows to 0 here, yet the increment is finite
        with mp.workdps(50):
            a = 2 * mp.mpf(t) * mp.mpf(2) ** (-i * mp.mpf(s))
            b = a * mp.mpf(2) ** -s
            expected = float((1 - i) * mp.log(2) - b + mp.log(-mp.expm1(b - a)))
        got = log_psi_sq_increment(DiffusionParams(s, t), i)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_increment_matches_direct_difference(self):
        p = DiffusionParams(1.0, 1.0)
        for i in (-2, 0, 3):
            direct = psi(p, Fraction(2) ** (i + 1)) ** 2 - psi(p, Fraction(2) ** i) ** 2
            assert math.exp(log_psi_sq_increment(p, i)) == pytest.approx(
                direct, rel=1e-10
            )

    @pytest.mark.parametrize("s", [1.0, 2.0, 8.0])
    def test_non_decreasing_up_to_top_level(self, s):
        # a 2^(s l) used to overflow once s l >= 1024, dropping the tail there
        p = DiffusionParams(s, 1.0)
        values = [log_psi_sq(p, Fraction(2) ** i) for i in range(90, 1025)]
        assert values == sorted(values)
        # both sides certify their tails to tail_tol = 1e-12
        limit = 2.0 * math.log(psi_infinity(p))
        assert max(abs(v - limit) for v in values) < 4e-12

    @given(
        st.integers(min_value=0, max_value=1 << 20),
        st.integers(min_value=-900, max_value=900),
        st.sampled_from([0.25, 1.0, 2.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_and_float_arguments_agree(self, m, i, s):
        lam = Fraction(2 * m + 1) * Fraction(2) ** i
        p = DiffusionParams(s, 1.0)
        assert log_psi_sq(p, lam) == log_psi_sq(p, float(lam))


class TestDoubleRange:
    def test_terms_past_double_range_stay_finite(self):
        # at s = 0.01, t = 1e-3 the terms 2^l exp(-a 2^(s l)) pass e^709
        # before the ratio certificate holds; summed in log scale they stay
        # finite, and at lam = 1/2 psi^2 is psi_inf^2 to far below 1e-12
        p = DiffusionParams(0.01, 1e-3)
        expected = log_limit_sq_oracle(0.01, 1e-3, -200, 4000)
        assert expected == pytest.approx(986.26, abs=0.005)
        assert log_psi_sq(p, 0.5) == pytest.approx(expected, rel=1e-12)
        assert 2.0 * math.log(psi_infinity(p)) == pytest.approx(expected, rel=1e-12)


class TestLogSeriesOracle:
    """log psi_t(2^i)^2, the table top log psi_inf^2 and log K(x, x) against
    the raw series at 50 digits across the domain: each value is within
    1e-12 max(1, |value|), or a typed error where the value is no double."""

    @given(
        st.floats(math.log(1e-3), math.log(50.0)).map(math.exp),
        st.floats(math.log(1e-6), math.log(1e6)).map(math.exp),
        st.integers(-1024, 1024),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_against_band_sum(self, s, t, i):
        p = DiffusionParams(s, t)

        def close(got, expected):
            return abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

        # eta_t(2^(-i s)) = 2 exp(-2t 2^(-i s)) + sum_{l >= 1} 2^l exp(-2t 2^(s (l - i)))
        with mp.workdps(50):
            a = 2 * mp.mpf(t) * mp.mpf(2) ** (-i * mp.mpf(s))
            eta = mp.exp(log_band_oracle(2 * t, s, shift=i, lo=1)) + 2 * mp.exp(-a)
            expected = float((1 - i) * mp.log(2) + mp.log(eta))
        try:
            got = log_psi_sq(p, Fraction(2) ** i)
        except CapExceeded as exc:
            assert "not certified within" in str(exc)
        else:
            assert close(got, expected) or (got == -math.inf and expected == -math.inf)

        limit = float(mp.log(2) + log_band_oracle(2 * t, s))
        try:
            top = spectral._psi_table(p, DEFAULT_TRUNC)[1][-1]
        except CapExceeded as exc:
            assert "psi_inf" in str(exc) and 0.5 * limit > spectral._LOG_MAX * (1 - 1e-12)
        else:
            assert close(top, limit)

        diagonal = float(log_band_oracle(t, s))
        x = DyadicPoint(1, 3)
        try:
            k = kernel_K(x, x, p)
        except CapExceeded as exc:
            assert "K(x, x)" in str(exc) and diagonal > spectral._LOG_MAX * (1 - 1e-12)
        else:
            if diagonal < math.log(sys.float_info.min):
                assert k <= sys.float_info.min
            else:
                assert close(math.log(k), diagonal)

    @pytest.mark.parametrize("s, t, expected", [(0.1, 1000.0, 5.2352518e-24),
                                                (0.05, 1e4, 3.5099357e-62)])
    def test_diagonal_kernel_far_below_tolerance(self, s, t, expected):
        # an absolute left-sum certificate gave 6.7e-40 and 0.0 here
        got = kernel_K(pt("1/4"), pt("1/4"), DiffusionParams(s, t))
        assert got == pytest.approx(float(mp.e ** log_band_oracle(t, s)), rel=1e-12)
        assert got == pytest.approx(expected, rel=1e-7)


class TestPsiInfinity:
    def test_against_bilateral_oracle(self):
        p = DiffusionParams(1.0, 1.0)
        assert psi_infinity(p) == pytest.approx(bilateral_oracle(1.0, 1.0), rel=1e-13)

    @pytest.mark.parametrize("s", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_sandwich_strict(self, s, t):
        p = DiffusionParams(s, t)
        c = c_t_s(p)
        limit = psi_infinity(p)
        assert math.sqrt(2) * c < limit < 2 * c

    def test_time_scaling(self):
        s = 1.0
        ratios = [psi_infinity(DiffusionParams(s, t)) / t ** (-1 / (2 * s))
                  for t in (0.1, 1.0, 10.0)]
        # constant within the sandwich factor sqrt(2)
        assert max(ratios) / min(ratios) < math.sqrt(2)


class TestCts:
    def test_exponential_case(self):
        assert c_t_s(DiffusionParams(1.0, 1.0)) == pytest.approx(
            math.sqrt(0.5), rel=1e-12
        )

    def test_time_scaling_factor(self):
        for t in (0.3, 2.0, 17.0):
            assert c_t_s(DiffusionParams(1.0, t)) == pytest.approx(
                t**-0.5 * math.sqrt(0.5), rel=1e-10
            )

    def test_gamma_oracle_s2(self):
        assert c_t_s(DiffusionParams(2.0, 1.0)) == pytest.approx(
            math.sqrt(math.gamma(1.5) * 2**-0.5), rel=1e-10
        )

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_closed_form_on_grid(self, s, t):
        expected = t ** (-1 / (2 * s)) * math.sqrt(math.gamma(1 + 1 / s) * 2 ** (-1 / s))
        assert c_t_s(DiffusionParams(s, t)) == pytest.approx(expected, rel=1e-13)

    def test_past_double_range_raises_cap_exceeded(self):
        # Gamma(1 + 1/s) alone overflows for s below about 0.0058
        with pytest.raises(CapExceeded, match="past the double range"):
            c_t_s(DiffusionParams(0.001, 1.0))


class TestKernel:
    def test_against_exhaustive_wavelet_oracle(self):
        cases = [
            (Fraction(1, 4), Fraction(3, 4), 1.0, 1.0),
            (Fraction(1, 4), Fraction(3, 4), 0.5, 0.1),
            (Fraction(3, 8), Fraction(7, 16), 2.0, 1.0),
            (Fraction(9, 8), Fraction(31, 8), 1.0, 3.0),
        ]
        for x, y, s, t in cases:
            expected = kernel_oracle(x, y, s, t)
            got = kernel_K(pt(x), pt(y), DiffusionParams(s, t))
            assert got == pytest.approx(expected, abs=3e-12)

    def test_diagonal_against_oracle(self):
        with mp.workdps(60):
            total = mp.mpf(0)
            for j in range(-120, 60):
                total += mp.mpf(2) ** j * mp.e ** (-1.0 * mp.mpf(2) ** j)
            expected = float(total)
        got = kernel_K(pt("1/4"), pt("1/4"), DiffusionParams(1.0, 1.0))
        assert got == pytest.approx(expected, rel=1e-12)

    @given(points, points)
    @settings(max_examples=60, deadline=None)
    def test_bound_and_symmetry(self, x, y):
        p = DiffusionParams(1.0, 1.0)
        k_xy = kernel_K(x, y, p)
        assert k_xy == kernel_K(y, x, p)
        if x != y:
            assert abs(k_xy) <= 2.0 / float(dyadic_distance(x, y)) * (1 + 1e-12)


class TestDistance:
    def test_coincident_points(self):
        p = DiffusionParams(1.0, 1.0)
        x = pt("5/8")
        assert distance_closed(x, x, p) == 0.0
        assert distance_spectral(x, x, p) == 0.0

    def test_unit_separation_equals_psi_one(self):
        for s in (0.5, 1.0, 2.0):
            for t in (0.1, 1.0, 10.0):
                p = DiffusionParams(s, t)
                assert distance_closed(pt("1/4"), pt("3/4"), p) == psi(p, 1)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_routes_agree_on_pair_grid(self, s, t):
        p = DiffusionParams(s, t)
        pairs = [
            ("1/4", "3/4"),
            ("1/16", "15/16"),
            ("7/8", "9/8"),
            ("51/16", "59/16"),
        ]
        for a, b in pairs:
            closed = distance_closed(pt(a), pt(b), p)
            spectral = distance_spectral(pt(a), pt(b), p)
            assert spectral == pytest.approx(closed, abs=2e-10)

    def test_routes_agree_below_square_root_of_double_floor(self):
        # squared distances here underflow double precision; the spectral
        # route sums in units of the separating term and keeps full accuracy
        checked = 0
        for s in (0.5, 1.0, 2.0):
            for t in (0.1, 1.0, 10.0):
                p = DiffusionParams(s, t)
                for e in range(1, 2000):
                    x, y = DyadicPoint(0), DyadicPoint(1, e)
                    closed = distance_closed(x, y, p)
                    if closed < 1e-300:
                        break
                    if closed <= 1e-154:
                        assert distance_spectral(x, y, p) == pytest.approx(
                            closed, rel=1e-12, abs=0.0
                        )
                        checked += 1
        assert checked >= 9

    @pytest.mark.parametrize("k", [0, 64, 512, 1023])
    def test_chain_work_does_not_grow_with_level_spread(self, k, monkeypatch):
        # delta(0, 2^k) = 2^(k+1): the common level is -k-1, yet the chain
        # starts where the levels below it are certified negligible
        calls = []

        def counted(interval, x):
            calls.append(interval.level)
            return haar_eval(interval, x)

        monkeypatch.setattr(spectral, "haar_eval", counted)
        p, x, y = DiffusionParams(1.0, 1.0), DyadicPoint(0), DyadicPoint(1 << k)
        d = distance_spectral(x, y, p)
        assert len(calls) <= 2 * 64
        assert d == pytest.approx(distance_closed(x, y, p), rel=1e-12)

    def test_single_separating_wavelet_lower_bound(self):
        for t in (0.1, 1.0, 10.0):
            p = DiffusionParams(1.0, t)
            d = distance_spectral(pt("1/4"), pt("3/4"), p)
            assert d * d >= 4.0 * math.exp(-2.0 * t) * (1 - 1e-14)

    @given(points, points)
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, x, y):
        p = DiffusionParams(0.5, 1.0)
        assert distance_closed(x, y, p) == distance_closed(y, x, p)
        assert distance_spectral(x, y, p) == distance_spectral(y, x, p)

    @given(points, points, points)
    @settings(max_examples=50, deadline=None)
    def test_ultrametric_inequality(self, x, y, z):
        p = DiffusionParams(1.0, 1.0)
        dxz = distance_closed(x, z, p)
        assert dxz <= max(distance_closed(x, y, p), distance_closed(y, z, p)) * (
            1 + 1e-14
        ) + 1e-300

    def test_time_monotone_and_ratio_bound(self):
        rng = random.Random(7)
        p_lo = 0
        for _ in range(200):
            x = DyadicPoint(rng.randrange(0, 1 << 16), rng.randrange(0, 12))
            y = DyadicPoint(rng.randrange(0, 1 << 16), rng.randrange(0, 12))
            if x == y:
                continue
            s = rng.choice([0.25, 0.5, 1.0, 2.0])
            t1, t2 = sorted(rng.sample([0.1, 0.5, 1.0, 5.0, 10.0], 2))
            d1 = distance_closed(x, y, DiffusionParams(s, t1))
            d2 = distance_closed(x, y, DiffusionParams(s, t2))
            assert d2 <= d1 * (1 + 1e-14)
            if d1 > 0:
                delta = float(dyadic_distance(x, y))
                bound = math.exp(-2 * (t2 - t1) * delta**-s)
                assert (d2 / d1) ** 2 <= bound * (1 + 1e-12)

    def test_non_equivalence_witness(self):
        # small delta pair: the time ratio of distances explodes
        x, y = DyadicPoint(1, 5), DyadicPoint(3, 5)
        d1 = distance_closed(x, y, DiffusionParams(1.0, 0.1))
        d2 = distance_closed(x, y, DiffusionParams(1.0, 10.0))
        assert d2 > 0
        assert d1 > 1e6 * d2


class TestBall:
    def test_huge_radius_whole_space(self):
        p = DiffusionParams(1.0, 1.0)
        assert ball(pt("1/2"), 100.0, p) == Ball.whole_space()
        assert ball(pt("1/2"), psi_infinity(p), p).is_whole_space

    def test_interval_contains_center(self):
        p = DiffusionParams(1.0, 1.0)
        b = ball(pt("13/16"), 0.4, p)
        assert not b.is_whole_space
        assert b.contains(pt("13/16"))

    def test_membership_oracle(self):
        rng = random.Random(3)
        for _ in range(8):
            x = DyadicPoint(rng.randrange(0, 1 << 8), rng.randrange(0, 6))
            s = rng.choice([0.5, 1.0, 2.0])
            t = rng.choice([0.1, 1.0, 10.0])
            p = DiffusionParams(s, t)
            r = rng.uniform(0.2, 0.95) * psi_infinity(p)
            b = ball(x, r, p)
            assert not b.is_whole_space
            for _ in range(300):
                y = DyadicPoint(rng.randrange(0, 1 << 10), rng.randrange(0, 8))
                assert (distance_closed(x, y, p) < r) == b.contains(y)

    def test_monotone_in_radius(self):
        p = DiffusionParams(1.0, 1.0)
        x = pt("5/16")
        limit = psi_infinity(p)
        previous = None
        for frac_r in (0.2, 0.4, 0.6, 0.8, 0.95):
            b = ball(x, frac_r * limit, p).interval
            if previous is not None:
                assert b.contains_interval(previous)
            previous = b

    def test_strict_sublevel_at_exact_radius(self):
        # radius exactly psi(|I|) excludes I: balls are strict sublevel sets
        p = DiffusionParams(1.0, 1.0)
        x = pt("1/4")
        r = psi(p, Fraction(1, 4))
        b = ball(x, r, p).interval
        assert psi(p, b.length) < r
        assert b.length < Fraction(1, 4)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            ball(pt("1/2"), 0.0, DiffusionParams(1.0, 1.0))


class TestBallRadiusTransfer:
    def test_identity_time(self):
        p = DiffusionParams(1.0, 1.0)
        x = pt("3/10" if False else "5/16")
        r1 = 0.5 * psi_infinity(p)
        r2 = ball_radius_transfer(x, r1, 1.0, 1.0, 1.0)
        assert ball(x, r1, p) == ball(x, r2, p)

    def test_reproduces_ball_across_times(self):
        s = 1.0
        x = pt("19/64")
        t1, t2 = 1.0, 2.0
        r1 = psi(DiffusionParams(s, t1), 1) * 1.01
        r2 = ball_radius_transfer(x, r1, t1, t2, s)
        assert ball(x, r1, DiffusionParams(s, t1)) == ball(
            x, r2, DiffusionParams(s, t2)
        )

    def test_full_time_grid(self):
        s = 0.5
        x = pt("7/8")
        for t1 in (0.1, 1.0, 10.0):
            for t2 in (0.1, 1.0, 10.0):
                p1 = DiffusionParams(s, t1)
                r1 = 0.6 * psi_infinity(p1)
                r2 = ball_radius_transfer(x, r1, t1, t2, s)
                assert ball(x, r1, p1) == ball(x, r2, DiffusionParams(s, t2))

    def test_window_below_one_ulp_raises(self):
        # (psi_t2(|I|), psi_t2(2|I|)] is narrower than one ulp at this ratio
        with pytest.raises(ValueError, match="no double radius"):
            ball_radius_transfer(pt("13/8"), 1.0187e-05, 1e3, 1e-3, 0.5)

    @given(
        points,
        st.sampled_from([0.1, 0.25, 0.5, 1.0, 2.0]),
        st.floats(1e-3, 1e3),
        st.floats(-6.0, 6.0),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=150, deadline=None)
    def test_returned_radius_gives_same_ball(self, x, s, t1, log_ratio, frac):
        t2 = t1 * 10.0**log_ratio
        p1 = DiffusionParams(s, t1)
        r1 = frac * psi_infinity(p1)
        try:
            r2 = ball_radius_transfer(x, r1, t1, t2, s)
        except ValueError:
            return
        assert ball(x, r1, p1) == ball(x, r2, DiffusionParams(s, t2))

    def test_rejects_radius_at_infinity(self):
        p = DiffusionParams(1.0, 1.0)
        with pytest.raises(ValueError):
            ball_radius_transfer(pt("1/2"), 2 * psi_infinity(p), 1.0, 2.0, 1.0)


def point_at(x: DyadicPoint, i: int) -> DyadicPoint:
    """A point y with delta(x, y) = 2^i: the start of the half of the level
    -i interval around x that does not hold x."""
    I = interval_containing(x, -i)
    half = I.left_child()
    y = I.midpoint if half.contains(x) else I.lower
    return DyadicPoint.from_fraction(y)


class TestPsiTable:
    """The one table of log psi_t(2^i)^2 per (s, t) behind the closed
    distance, psi at powers of 2, psi_infinity and balls."""

    @pytest.mark.parametrize("s", [0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 8.0])
    @pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
    def test_matches_series_where_it_certifies(self, s, t):
        p = DiffusionParams(s, t)
        logs = spectral._psi_table(p, DEFAULT_TRUNC)[1]
        assert all(a <= b for a, b in zip(logs, logs[1:]))
        for i in range(-60, 61):
            series = log_psi_sq(p, Fraction(2) ** i)
            table = spectral._log_psi_sq_at(p, i, DEFAULT_TRUNC)
            if series == -math.inf:
                assert table == series
            else:
                assert abs(table - series) <= 1e-12 * max(1.0, abs(series))

    def test_limit_at_large_time(self):
        # an absolute left-sum certificate gave psi_inf = 9.7e-34 here, below
        # psi(2^40), and so ball(0, 1e-20) was the whole space
        p = DiffusionParams(0.1, 1000.0)
        expected = math.exp(0.5 * log_limit_sq_oracle(0.1, 1000.0, -700, 300))
        assert psi_infinity(p) == pytest.approx(expected, rel=1e-12)
        assert psi(p, Fraction(2) ** 40) <= psi_infinity(p)
        assert not ball(DyadicPoint(0), 1e-20, p).is_whole_space

    def test_limit_past_double_range_raises_cap_exceeded(self):
        # the seed series at level -1024 still certifies here, but psi_inf is
        # exp(710.47), past the double range
        p = DiffusionParams(0.011696454311242442, 1e-6)
        assert math.isfinite(log_psi_sq(p, Fraction(1, 1 << 1024)))
        with pytest.raises(CapExceeded, match="psi_inf"):
            psi_infinity(p)
        with pytest.raises(CapExceeded, match="psi_inf"):
            distance_closed(DyadicPoint(0), DyadicPoint(1), p)

    def test_ball_agrees_with_distance_where_psi_is_flat(self):
        # psi_t is flat to an ulp over many levels here; walking the levels
        # with one series each gave [0, 8) although y = 2^-6 is at distance >= r
        p = DiffusionParams(0.1, 1e-3)
        x, r = DyadicPoint(0), math.exp(39.15507682921938)
        b = ball(x, r, p)
        assert not b.is_whole_space
        for k in range(60):
            y = DyadicPoint(1, k)
            assert b.contains(y) == (distance_closed(x, y, p) < r)

    @given(
        points,
        st.floats(0.05, 8.0),
        st.floats(1e-3, 1e3),
        st.floats(1e-9, 100.0),
        st.booleans(),
        st.integers(-40, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_membership_is_distance_below_radius(self, x, s, t, depth, exact, level):
        p = DiffusionParams(s, t)
        limit = psi_infinity(p)
        # either a radius below psi_inf, or exactly a value of psi at a power of 2
        r = psi(p, Fraction(2) ** level) if exact else limit * math.exp(-depth)
        if not (0.0 < r < limit):
            return
        b = ball(x, r, p)
        assert b.interval is not None
        i = -b.interval.level
        for j in range(i - 3, i + 4):
            if -1023 <= j <= 1024:
                y = point_at(x, j)
                assert b.contains(y) == (distance_closed(x, y, p) < r)
        assert b.contains(x)

    @given(
        st.sampled_from([0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 8.0]),
        st.sampled_from([1e-3, 1.0, 1e3]),
        st.integers(-60, 60),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_psi_monotone_across_powers_of_two(self, s, t, i, u):
        # the series between powers of 2 sat up to its truncation below the
        # table: psi(1 + 2^-52) was below psi(1) at s = t = 1
        p = DiffusionParams(s, t)
        lam = math.ldexp(1.0 + u, i)
        assert psi(p, Fraction(2) ** i) <= psi(p, lam) <= psi(p, Fraction(2) ** (i + 1))
        one = DiffusionParams(1.0, 1.0)
        assert psi(one, 1.0) <= psi(one, 1.0 + 2.0**-52)

    def test_warm_table_runs_no_series(self, monkeypatch):
        p, p2 = DiffusionParams(0.5, 1.0), DiffusionParams(0.5, 2.0)
        lo = spectral._psi_table(p, DEFAULT_TRUNC)[0]
        spectral._psi_table(p2, DEFAULT_TRUNC)
        calls = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("_log_series", "log_psi_sq"):
            monkeypatch.setattr(spectral, name, counted(name, getattr(spectral, name)))
        rng = random.Random(9)
        x = DyadicPoint(rng.randrange(1 << 20), 10)
        for _ in range(50):
            y = DyadicPoint(rng.randrange(1 << 20), 10)  # delta >= 2^-10 > 2^lo
            distance_closed(x, y, p)
        for i in range(lo, lo + 80):
            psi(p, Fraction(2) ** i)
        limit = psi_infinity(p)
        for frac in (0.2, 0.5, 0.95):
            ball(x, frac * limit, p)
            ball_radius_transfer(x, frac * limit, 1.0, 2.0, 0.5)
        assert calls == []


class TestParams:
    @pytest.mark.parametrize("s,t", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_rejects_bad_params(self, s, t):
        with pytest.raises(ValueError):
            DiffusionParams(s, t)

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(tail_tol=0.0)
        with pytest.raises(ValueError):
            TruncationPolicy(max_terms=0)
