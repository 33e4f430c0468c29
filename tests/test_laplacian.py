import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from dyadiff.dyadic import DyadicInterval, DyadicPoint
from dyadiff import laplacian
from dyadiff.exceptions import ExpansionParseError, ResidualTooLarge
from dyadiff.laplacian import (
    HaarExpansion,
    PiecewiseDyadicFunction,
    apply_laplacian,
    evolve_pointwise,
    evolve_spectral,
    expand,
    format_expansion,
    haar_coefficient,
    haar_eigenvalue,
    haar_function,
    parse_expansion,
)
from dyadiff.spectral import DiffusionParams


def pt(x) -> DyadicPoint:
    return DyadicPoint.from_fraction(Fraction(x))


def brute_laplacian(pieces, x: Fraction, s, depth=100):
    """Independent ring-sum oracle over plain (lo, hi, value) pieces.

    Works from raw endpoint arithmetic, not the package interval types:
    for each level j the ring is [floor(x 2^j) 2^-j, ...) minus the level
    j+1 interval around x, and the remaining coarse rings contribute the
    closed-form geometric series.
    """

    def chain_bounds(j):
        scale = Fraction(2) ** j
        k = math.floor(x * scale)
        return Fraction(k, 1) / scale, Fraction(k + 1, 1) / scale

    def piece_overlap(lo, hi, alo, ahi):
        return max(Fraction(0), min(hi, ahi) - max(lo, alo))

    fx = 0.0
    for lo, hi, v in pieces:
        if lo <= x < hi:
            fx = v
    with mp.workdps(50):
        total = mp.mpf(0)
        for j in range(-depth, depth + 1):
            olo, ohi = chain_bounds(j)
            ilo, ihi = chain_bounds(j + 1)
            ring_f = mp.mpf(0)
            for lo, hi, v in pieces:
                diff = piece_overlap(lo, hi, olo, ohi) - piece_overlap(lo, hi, ilo, ihi)
                ring_f += mp.mpf(v) * mp.mpf(diff.numerator) / diff.denominator if diff else 0
            ring_len = (ohi - olo) - (ihi - ilo)
            contribution = ring_f - mp.mpf(fx) * mp.mpf(ring_len.numerator) / ring_len.denominator
            total += mp.power(2, j * (1 + s)) * contribution
        # rings coarser than -depth: supports are long gone, only -f(x) remains
        total += -mp.mpf(fx) / 2 * mp.power(2, (-depth - 1) * s) / (1 - mp.power(2, -s))
        return float(total)


class TestPiecewise:
    def test_rejects_overlapping_pieces(self):
        with pytest.raises(ValueError):
            PiecewiseDyadicFunction(
                ((DyadicInterval(0, 0), 1.0), (DyadicInterval(1, 1), 2.0))
            )

    def test_rejects_identical_piece(self):
        with pytest.raises(ValueError):
            PiecewiseDyadicFunction(
                ((DyadicInterval(2, 5), 1.0), (DyadicInterval(2, 5), -1.0))
            )

    def test_rejects_piece_nested_several_levels_deep(self):
        # [51/16, 52/16) sits five levels below [2, 4); [0, 1) between them
        with pytest.raises(ValueError):
            PiecewiseDyadicFunction(
                (
                    (DyadicInterval(-1, 1), 1.0),
                    (DyadicInterval(0, 0), 3.0),
                    (DyadicInterval(4, 51), 2.0),
                )
            )

    def test_accepts_adjacent_pieces(self):
        f = PiecewiseDyadicFunction(
            ((DyadicInterval(2, 4), 2.0), (DyadicInterval(1, 1), 1.0))
        )
        assert f.evaluate(pt("3/4")) == 1.0
        assert f.evaluate(pt("1")) == 2.0

    def test_evaluate_and_integrate(self):
        f = PiecewiseDyadicFunction.from_pairs(
            [(DyadicInterval(1, 0), 2.0), (DyadicInterval(1, 1), -1.0)]
        )
        assert f.evaluate(pt("1/4")) == 2.0
        assert f.evaluate(pt("3/4")) == -1.0
        assert f.evaluate(pt("3/2")) == 0.0
        assert f.integral_over(DyadicInterval(0, 0)) == pytest.approx(0.5, abs=0)


class TestApplyLaplacian:
    def test_zero_function(self):
        f = PiecewiseDyadicFunction(())
        assert apply_laplacian(f, pt("1/2"), 0.5) == 0.0

    def test_rejects_order_out_of_range(self):
        # the ring sum converges for every s > 0; only s <= 0 and NaN are out
        f = haar_function(DyadicInterval(0, 0))
        for s in (0.0, -0.2, -math.inf, math.nan):
            with pytest.raises(ValueError):
                apply_laplacian(f, pt("1/4"), s)

    def test_constant_annihilated_in_large_block_limit(self):
        # a globally constant function is in the kernel; on bigger and bigger
        # constant blocks the value at a fixed interior point decays to 0
        x = pt("1/2")
        values = []
        for j in (1, 9, 17, 25):
            block = PiecewiseDyadicFunction.from_pairs([(DyadicInterval(-j, 0), 1.0)])
            values.append(abs(apply_laplacian(block, x, 0.5)))
        assert values == sorted(values, reverse=True)
        assert values[-1] < 1e-3

    def test_matches_brute_force_oracle(self):
        cases = [
            (
                [(Fraction(0), Fraction(1, 2), 1.0), (Fraction(1, 2), Fraction(1), -1.0)],
                [(DyadicInterval(1, 0), 1.0), (DyadicInterval(1, 1), -1.0)],
                Fraction(1, 4),
                0.5,
            ),
            (
                [(Fraction(1, 2), Fraction(3, 4), 2.5), (Fraction(2), Fraction(4), -0.5)],
                [(DyadicInterval(2, 2), 2.5), (DyadicInterval(-1, 1), -0.5)],
                Fraction(5, 8),
                0.3,
            ),
            (
                [(Fraction(0), Fraction(2), 1.0)],
                [(DyadicInterval(-1, 0), 1.0)],
                Fraction(7, 2),
                0.7,
            ),
        ]
        for raw, pairs, x, s in cases:
            expected = brute_laplacian(raw, x, s)
            f = PiecewiseDyadicFunction.from_pairs(pairs)
            assert apply_laplacian(f, pt(x), s) == pytest.approx(expected, rel=1e-11, abs=1e-12)

    def test_matches_brute_force_on_random_functions(self):
        rng = random.Random(5)
        for _ in range(20):
            used, count = [], rng.randint(1, 5)
            while len(used) < count:
                interval = DyadicInterval(rng.randrange(-2, 5), rng.randrange(0, 8))
                if all(interval.disjoint(u) for u in used):
                    used.append(interval)
            pairs = [(i, rng.uniform(-2, 2)) for i in used]
            raw = [(i.lower, i.upper, v) for i, v in pairs]
            f = PiecewiseDyadicFunction.from_pairs(pairs)
            piece = rng.choice(used)
            inside = piece.lower + Fraction(rng.randrange(0, 64), 64) * piece.length
            outside = Fraction(rng.randrange(0, 40 * 16), 16)
            while any(lo <= outside < hi for lo, hi, _ in raw):
                outside = Fraction(rng.randrange(0, 40 * 16), 16)
            s = rng.uniform(0.1, 0.9)
            for x in (inside, outside):
                assert apply_laplacian(f, pt(x), s) == pytest.approx(
                    brute_laplacian(raw, x, s), rel=1e-11, abs=1e-12
                )

    @pytest.mark.parametrize(
        "pairs, x, s",
        [
            ([(DyadicInterval(800, 1), 1.0)], Fraction(0), 0.5),
            ([(DyadicInterval(1024, 5), -2.5), (DyadicInterval(1000, 3), 0.75)], Fraction(0), 0.9),
            ([(DyadicInterval(900, 0), 1.5), (DyadicInterval(901, 3), -1.0)], Fraction(1, 2**902), 0.3),
        ],
    )
    def test_fine_level_pieces_against_brute_force(self, pairs, x, s):
        # 2^(m(1+s)) alone is past the double range here, the ring term is not;
        # the oracle sums in mpmath, whose exponents do not overflow
        raw = [(i.lower, i.upper, v) for i, v in pairs]
        expected = brute_laplacian(raw, x, s, depth=1025)
        got = apply_laplacian(PiecewiseDyadicFunction.from_pairs(pairs), pt(x), s)
        assert math.isfinite(got)
        assert got == pytest.approx(expected, rel=1e-11)

    def test_haar_is_eigenfunction_example(self):
        # spec'd case: f = h_[0,1), x = 0.25, s = 0.5
        f = haar_function(DyadicInterval(0, 0))
        lam = haar_eigenvalue(DyadicInterval(0, 0), 0.5)
        got = apply_laplacian(f, pt("1/4"), 0.5)
        assert got == pytest.approx(-lam * 1.0, abs=1e-12)
        brute = brute_laplacian(
            [(Fraction(0), Fraction(1, 2), 1.0), (Fraction(1, 2), Fraction(1), -1.0)],
            Fraction(1, 4),
            0.5,
        )
        assert got == pytest.approx(brute, abs=1e-12)

    def test_linearity(self):
        rng = random.Random(11)
        f = PiecewiseDyadicFunction.from_pairs(
            [(DyadicInterval(2, 1), 1.7), (DyadicInterval(1, 3), -0.4)]
        )
        g = PiecewiseDyadicFunction.from_pairs(
            [(DyadicInterval(2, 0), 0.9), (DyadicInterval(0, 2), 2.2)]
        )
        for _ in range(10):
            a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
            x = DyadicPoint(rng.randrange(0, 64), 4)
            s = rng.uniform(0.1, 0.9)
            combined = PiecewiseDyadicFunction.from_pairs(
                [(i, a * v) for i, v in f.pieces] + [(i, b * v) for i, v in g.pieces]
            )
            expected = a * apply_laplacian(f, x, s) + b * apply_laplacian(g, x, s)
            assert apply_laplacian(combined, x, s) == pytest.approx(
                expected, rel=1e-11, abs=1e-12
            )


class TestEigenvalue:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_scaling_law(self, s):
        lam_unit = haar_eigenvalue(DyadicInterval(0, 0), s)
        lam_half = haar_eigenvalue(DyadicInterval(1, 0), s)
        assert lam_half / lam_unit == pytest.approx(2.0**s, rel=1e-12)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_constant_across_levels_and_positions(self, s):
        m = haar_eigenvalue(DyadicInterval(0, 0), s)
        assert m > 0
        for j, k in [(-5, 0), (-2, 1), (0, 3), (3, 17), (5, 2)]:
            interval = DyadicInterval(j, k)
            lam = haar_eigenvalue(interval, s)
            assert lam * float(interval.length) ** s == pytest.approx(m, rel=1e-10)

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.5, 2.0, 4.0])
    def test_constant_matches_closed_form(self, s):
        closed = 1.0 + 1.0 / (2.0 * (2.0**s - 1.0))
        for j in range(-5, 6):
            interval = DyadicInterval(j, 3)
            lam = haar_eigenvalue(interval, s)
            assert lam * float(interval.length) ** s == pytest.approx(closed, abs=1e-12)

    def test_residual_within_tolerance_at_16_points(self):
        # haar_eigenvalue raises ResidualTooLarge beyond 1e-10; surviving the
        # call is the assertion
        for s in (0.25, 0.5, 0.75):
            haar_eigenvalue(DyadicInterval(2, 3), s, residual_tol=1e-10)

    def test_one_operator_call_per_sample(self, monkeypatch):
        calls = []
        original = laplacian.apply_laplacian

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(laplacian, "apply_laplacian", counting)
        haar_eigenvalue(DyadicInterval(0, 0), 0.5, samples=16)
        assert len(calls) == len(set(calls)) == 16

    def test_residual_catches_one_bad_sample(self, monkeypatch):
        original = laplacian.apply_laplacian
        bad = DyadicPoint(1, 5)  # the first of the 16 sample points of [0, 1)

        def perturbed(f, x, *args, **kwargs):
            return original(f, x, *args, **kwargs) + (1e-6 if x == bad else 0.0)

        monkeypatch.setattr(laplacian, "apply_laplacian", perturbed)
        with pytest.raises(ResidualTooLarge):
            haar_eigenvalue(DyadicInterval(0, 0), 0.5, samples=16)


class TestHaarExpansion:
    def test_duplicate_interval_rejected(self):
        with pytest.raises(ValueError):
            HaarExpansion(((DyadicInterval(0, 0), 1.0), (DyadicInterval(0, 0), 2.0)))

    def test_synthesis_matches_pointwise_eval(self):
        expansion = HaarExpansion.from_pairs(
            [
                (DyadicInterval(0, 0), 1.0),
                (DyadicInterval(1, 1), -0.5),
                (DyadicInterval(-1, 0), 0.25),
            ]
        )
        f = expansion.to_piecewise()
        for x in ("1/8", "3/8", "5/8", "7/8", "9/8", "13/8", "5/2"):
            assert f.evaluate(pt(x)) == pytest.approx(expansion.evaluate(pt(x)), abs=1e-15)

    def test_round_trip_analysis_synthesis(self):
        expansion = HaarExpansion.from_pairs(
            [(DyadicInterval(0, 0), 0.75), (DyadicInterval(1, 0), -0.25)]
        )
        f = expansion.to_piecewise()
        recovered = dict(expand(f, -3, 4).coefficients)
        for interval, coeff in expansion.coefficients:
            assert recovered.pop(interval) == pytest.approx(coeff, abs=1e-15)
        for coeff in recovered.values():
            assert coeff == pytest.approx(0.0, abs=1e-15)

    def test_haar_coefficient_orthonormality(self):
        f = haar_function(DyadicInterval(1, 1))
        assert haar_coefficient(f, DyadicInterval(1, 1)) == pytest.approx(1.0, abs=1e-15)
        assert haar_coefficient(f, DyadicInterval(1, 0)) == 0.0
        assert haar_coefficient(f, DyadicInterval(0, 0)) == 0.0
        assert haar_coefficient(f, DyadicInterval(2, 2)) == 0.0


class TestEvolution:
    def test_time_zero_is_identity_in_the_limit(self):
        expansion = HaarExpansion.from_pairs(
            [(DyadicInterval(0, 0), 1.0), (DyadicInterval(2, 5), -0.5)]
        )
        evolved = evolve_spectral(expansion, DiffusionParams(1.0, 1e-300))
        for (i1, c1), (i2, c2) in zip(expansion.coefficients, evolved.coefficients):
            assert i1 == i2 and c1 == pytest.approx(c2, rel=1e-12)

    def test_single_coefficient_multiplier(self):
        expansion = HaarExpansion.from_pairs([(DyadicInterval(0, 0), 1.0)])
        evolved = evolve_spectral(expansion, DiffusionParams(1.0, 1.0))
        assert evolved.coefficients[0][1] == pytest.approx(math.exp(-1.0), abs=0)

    def test_semigroup_exact(self):
        expansion = HaarExpansion.from_pairs(
            [(DyadicInterval(j, k), 0.3 * (j + 1) - 0.1 * k) for j, k in
             [(-1, 0), (0, 1), (2, 3)]]
        )
        s = 0.5
        once = evolve_spectral(
            evolve_spectral(expansion, DiffusionParams(s, 0.7)), DiffusionParams(s, 0.3)
        )
        direct = evolve_spectral(expansion, DiffusionParams(s, 1.0))
        for (_, c1), (_, c2) in zip(once.coefficients, direct.coefficients):
            assert c1 == pytest.approx(c2, rel=1e-14)

    def test_pointwise_route_matches_spectral_route(self):
        rng = random.Random(23)
        worst = 0.0
        for _ in range(30):
            pairs = []
            used = set()
            while len(pairs) < 4:
                interval = DyadicInterval(rng.randrange(-2, 5), rng.randrange(0, 8))
                if interval not in used:
                    used.add(interval)
                    pairs.append((interval, rng.uniform(-2, 2)))
            expansion = HaarExpansion.from_pairs(pairs)
            p = DiffusionParams(rng.choice([0.25, 0.5, 1.0, 2.0]),
                                rng.choice([0.1, 1.0, 10.0]))
            f = expansion.to_piecewise()
            evolved = evolve_spectral(expansion, p)
            x = DyadicPoint(rng.randrange(0, 1 << 9), rng.randrange(0, 7))
            gap = abs(evolve_pointwise(f, x, p) - evolved.evaluate(x))
            worst = max(worst, gap)
        assert worst <= 1e-10

    def test_routes_agree_at_level_spread_14(self):
        expansion = HaarExpansion.from_pairs(
            [(DyadicInterval(0, 0), 1.0), (DyadicInterval(14, 0), 1.0)]
        )
        p = DiffusionParams(0.5, 1.0)
        f = expansion.to_piecewise()
        evolved = evolve_spectral(expansion, p)
        for x in (DyadicPoint(1, 16), DyadicPoint(5, 4)):
            assert evolve_pointwise(f, x, p) == pytest.approx(evolved.evaluate(x), abs=1e-12)

    def test_pointwise_route_reads_no_haar_coefficient(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("evolve_pointwise called haar_coefficient")

        monkeypatch.setattr(laplacian, "haar_coefficient", forbidden)
        f = HaarExpansion.from_pairs(
            [(DyadicInterval(0, 0), 1.0), (DyadicInterval(3, 1), -0.5)]
        ).to_piecewise()
        evolve_pointwise(f, pt("3/16"), DiffusionParams(0.5, 1.0))

    def test_haar_initial_datum_example(self):
        # u(x, t) = e^-t h(x) for f = h_[0,1), s = 1
        f = haar_function(DyadicInterval(0, 0))
        got = evolve_pointwise(f, pt("1/4"), DiffusionParams(1.0, 1.0))
        assert got == pytest.approx(math.exp(-1.0), abs=1e-13)

    def test_mean_zero_decay_at_large_time(self):
        f = haar_function(DyadicInterval(0, 0))
        value = evolve_pointwise(f, pt("1/4"), DiffusionParams(1.0, 1e3))
        assert abs(value) < 1e-6

    def test_finer_coefficients_decay_faster(self):
        expansion = HaarExpansion.from_pairs(
            [(DyadicInterval(0, 0), 1.0), (DyadicInterval(3, 0), 1.0)]
        )
        evolved = dict(evolve_spectral(expansion, DiffusionParams(1.0, 1.0)).coefficients)
        assert evolved[DyadicInterval(3, 0)] < evolved[DyadicInterval(0, 0)]


class TestSerialization:
    def test_round_trip(self):
        expansion = HaarExpansion.from_pairs(
            [(DyadicInterval(-2, 1), 0.125), (DyadicInterval(4, 9), -3.5)]
        )
        assert dict(parse_expansion(format_expansion(expansion)).coefficients) == dict(
            expansion.coefficients
        )

    def test_comments_and_blanks(self):
        text = "# header\n\n0 0 1.5  # trailing comment\n"
        parsed = parse_expansion(text)
        assert dict(parsed.coefficients) == {DyadicInterval(0, 0): 1.5}

    def test_parse_error_reports_line(self):
        with pytest.raises(ExpansionParseError) as err:
            parse_expansion("0 0 1.0\n1 2\n")
        assert err.value.line_number == 2

    def test_parse_error_on_bad_number(self):
        with pytest.raises(ExpansionParseError):
            parse_expansion("0 zero 1.0\n")
