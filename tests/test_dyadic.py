import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyadiff.dyadic import (
    DyadicInterval,
    DyadicPoint,
    dyadic_distance,
    haar_eval,
    interval_containing,
    log2_distance,
    smallest_common_interval,
)
from dyadiff.exceptions import LevelRangeError
from dyadiff.gaussian import GaussianParams
from dyadiff.laplacian import HaarExpansion, PiecewiseDyadicFunction
from dyadiff.spectral import Ball, DiffusionParams, TruncationPolicy
from dyadiff.verify import CheckResult

from conftest import intervals, points


def pt(x) -> DyadicPoint:
    return DyadicPoint.from_fraction(Fraction(x))


class TestDyadicPoint:
    def test_canonical_form_unique(self):
        assert DyadicPoint(2, 1) == DyadicPoint(1, 0)
        assert DyadicPoint(4, 2) == DyadicPoint(1, 0)
        assert DyadicPoint(0, 7) == DyadicPoint(0, 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DyadicPoint(-1, 0)
        with pytest.raises(ValueError):
            DyadicPoint.from_fraction(Fraction(-1, 2))

    def test_rejects_non_dyadic(self):
        with pytest.raises(ValueError):
            DyadicPoint.from_fraction(Fraction(1, 3))

    def test_huge_exponent_canonicalised_in_one_shift(self):
        assert DyadicPoint(1 << 10**6, 10**6) == DyadicPoint(1, 0)
        assert DyadicPoint(3 << 10**6, 10**6 + 2) == DyadicPoint(3, 2)

    @given(st.integers(0, 1 << 40), st.integers(0, 120), st.integers(0, 200))
    def test_canonical_form_matches_fraction(self, odd_part, zeros, e):
        m = odd_part << zeros
        assert DyadicPoint(m, e) == DyadicPoint.from_fraction(Fraction(m, 2**e))

    def test_float_round_trip(self):
        assert DyadicPoint.from_float(0.75) == pt("3/4")
        assert float(pt("3/4")) == 0.75

    @given(points)
    def test_canonical_invariant(self, x):
        assert x.mantissa % 2 == 1 or x.exponent == 0


class TestInterval:
    def test_contains_half_open(self):
        unit = DyadicInterval(0, 0)
        assert unit.contains(pt(0))
        assert not unit.contains(pt(1))
        assert DyadicInterval(1, 1).contains(pt("3/4"))

    def test_parent(self):
        assert DyadicInterval(1, 1).parent() == DyadicInterval(0, 0)
        assert DyadicInterval(0, 0).parent() == DyadicInterval(-1, 0)
        assert DyadicInterval(0, 3).parent() == DyadicInterval(-1, 1)

    def test_level_bound_enforced(self):
        with pytest.raises(LevelRangeError):
            DyadicInterval(1025, 0)
        with pytest.raises(LevelRangeError):
            DyadicInterval(-1025, 0)

    @given(intervals, intervals)
    def test_nesting_dichotomy(self, a, b):
        nested = a.contains_interval(b) or b.contains_interval(a)
        # overlap is the full smaller interval when nested, zero otherwise
        if nested:
            assert a.overlap_length(b) == min(a.length, b.length)
        else:
            assert a.overlap_length(b) == 0

    @given(intervals)
    def test_children_partition(self, a):
        left, right = a.left_child(), a.right_child()
        assert left.length + right.length == a.length
        assert left.upper == right.lower
        assert a.contains_interval(left) and a.contains_interval(right)


class TestSmallestCommonInterval:
    def test_separated_in_unit(self):
        assert smallest_common_interval(pt("1/4"), pt("3/4")) == DyadicInterval(0, 0)

    def test_across_integer_boundary(self):
        # x in [0,1), y in [1,2): minimal common ancestor is [0,2)
        assert smallest_common_interval(pt("7/8"), pt("9/8")) == DyadicInterval(-1, 0)

    def test_equal_points_give_none(self):
        assert smallest_common_interval(pt("1/2"), pt("1/2")) is None

    @given(points, points)
    def test_minimality(self, x, y):
        common = smallest_common_interval(x, y)
        if common is None:
            assert x == y
            return
        assert common.contains(x) and common.contains(y)
        # neither child holds both, so the interval is minimal
        for child in (common.left_child(), common.right_child()):
            assert not (child.contains(x) and child.contains(y))


class TestLog2Distance:
    @given(points, points)
    def test_matches_dyadic_distance(self, x, y):
        i = log2_distance(x, y)
        if i is None:
            assert x == y
        else:
            assert Fraction(2) ** i == dyadic_distance(x, y)

    def test_level_bound(self):
        with pytest.raises(LevelRangeError):
            log2_distance(DyadicPoint(0), DyadicPoint(1, 1026))
        assert log2_distance(DyadicPoint(0), DyadicPoint(1, 1025)) == -1024


class TestDyadicDistance:
    def test_examples(self):
        assert dyadic_distance(pt("1/4"), pt("3/4")) == 1
        assert dyadic_distance(pt("1/2"), pt("1/2")) == 0
        assert dyadic_distance(pt("7/8"), pt("9/8")) == 2

    @given(points, points)
    def test_dominates_euclidean(self, x, y):
        assert abs(x.value - y.value) <= dyadic_distance(x, y)

    @given(points, points, points)
    def test_ultrametric(self, x, y, z):
        assert dyadic_distance(x, z) <= max(
            dyadic_distance(x, y), dyadic_distance(y, z)
        )

    @given(points, points)
    def test_symmetry_and_identity(self, x, y):
        d = dyadic_distance(x, y)
        assert d == dyadic_distance(y, x)
        assert (d == 0) == (x == y)

    @given(points, points)
    def test_power_of_two(self, x, y):
        d = dyadic_distance(x, y)
        if d != 0:
            num, den = d.numerator, d.denominator
            assert num & (num - 1) == 0 and den & (den - 1) == 0


class TestHaar:
    def test_unit_interval_values(self):
        unit = DyadicInterval(0, 0)
        assert haar_eval(unit, pt("1/4")) == 1.0
        assert haar_eval(unit, pt("3/4")) == -1.0
        assert haar_eval(unit, pt(2)) == 0.0

    def test_scaling(self):
        half = DyadicInterval(1, 0)
        assert haar_eval(half, pt("1/8192")) == pytest.approx(math.sqrt(2), abs=0)

    @given(intervals)
    def test_zero_mean_unit_norm_exact(self, interval):
        v = haar_eval(
            interval, DyadicPoint.from_fraction(interval.left_child().midpoint)
        )
        assert v > 0
        # exact piecewise integration: mean v*(|L| - |R|) = 0, norm v^2*|I| = 1
        assert v * float(interval.left_child().length) - v * float(
            interval.right_child().length
        ) == 0.0
        assert Fraction(2) ** interval.level * interval.length == 1

    @given(intervals, points)
    def test_support(self, interval, x):
        value = haar_eval(interval, x)
        assert (value != 0.0) == interval.contains(x)


@given(points, st.integers(-20, 20))
def test_interval_containing_is_consistent(x, level):
    interval = interval_containing(x, level)
    assert interval.contains(x)
    assert interval.lower <= x.value < interval.upper


# -- value semantics of the package's nine immutable value types --------------

_small_intervals = st.builds(DyadicInterval, st.integers(-2, 2), st.integers(0, 3))
# each type with a strategy for its constructor arguments, drawn from small
# sets so that equal fields come up often
VALUE_TYPES = {
    DyadicPoint: st.tuples(st.integers(0, 8), st.integers(0, 3)),
    DyadicInterval: st.tuples(st.integers(-2, 2), st.integers(0, 3)),
    DiffusionParams: st.tuples(st.sampled_from([0.5, 1, 1.0, 2.0]), st.sampled_from([0.1, 1.0])),
    TruncationPolicy: st.tuples(st.sampled_from([1e-12, 1e-6]), st.sampled_from([10, 100_000])),
    Ball: st.tuples(st.one_of(st.none(), _small_intervals)),
    GaussianParams: st.tuples(st.sampled_from([0.5, 1.0]), st.integers(1, 2)),
    PiecewiseDyadicFunction: st.tuples(
        st.lists(st.tuples(_small_intervals, st.sampled_from([1.0, -2.0])), max_size=1).map(tuple)),
    HaarExpansion: st.tuples(
        st.lists(st.tuples(_small_intervals, st.sampled_from([1.0, 0.5])), max_size=1).map(tuple)),
    CheckResult: st.tuples(st.sampled_from(["dyadic", "spectral"]), st.just("p"), st.booleans(),
                           st.just(""), st.sampled_from([0.0, 1e-13]), st.just(1e-12)),
}


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value)._fields)


class TestValueTypes:
    @pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda c: c.__name__)
    @given(data=st.data())
    def test_equal_exactly_for_equal_fields(self, cls, data):
        a = cls(*data.draw(VALUE_TYPES[cls]))
        b = cls(*data.draw(VALUE_TYPES[cls]))
        assert (a == b) == (_fields(a) == _fields(b)) == (not a != b)
        if a == b:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    @pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda c: c.__name__)
    @given(data=st.data())
    def test_unequal_to_plain_tuple_and_other_types(self, cls, data):
        a = cls(*data.draw(VALUE_TYPES[cls]))
        plain = _fields(a)
        assert not a == plain and a != plain
        assert not plain == a and plain != a
        others = [other(*data.draw(args)) for other, args in VALUE_TYPES.items() if other is not cls]
        assert all(a != other and not a == other for other in others)

    @pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda c: c.__name__)
    @given(data=st.data())
    def test_immutable(self, cls, data):
        a = cls(*data.draw(VALUE_TYPES[cls]))
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            a.extra = 1

    @pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda c: c.__name__)
    @given(data=st.data())
    def test_readable_repr_and_no_tuple_order(self, cls, data):
        a = cls(*data.draw(VALUE_TYPES[cls]))
        fields = ", ".join(f"{name}={getattr(a, name)!r}" for name in cls._fields)
        assert repr(a) == f"{cls.__name__}({fields})"
        if cls is not DyadicPoint:
            with pytest.raises(TypeError):
                a < a
        with pytest.raises(TypeError):
            a + a

    def test_keywords_and_defaults(self):
        assert DyadicPoint(mantissa=6, exponent=1) == DyadicPoint(3)
        assert DyadicInterval(index=2, level=1) == DyadicInterval(1, 2)
        assert TruncationPolicy() == TruncationPolicy(tail_tol=1e-12, max_terms=100_000)
        assert Ball().interval is None and Ball() == Ball.whole_space()
        assert GaussianParams(t=1.0).n == 1

    @pytest.mark.parametrize("build, exc, message", [
        (lambda: DyadicPoint(-1, 0), ValueError,
         "dyadic point requires mantissa >= 0 and exponent >= 0"),
        (lambda: DyadicPoint(1, -1), ValueError,
         "dyadic point requires mantissa >= 0 and exponent >= 0"),
        (lambda: DyadicInterval(1025, 0), LevelRangeError, "interval level 1025 exceeds |j| <= 1024"),
        (lambda: DyadicInterval(0, -1), ValueError,
         "interval index must be nonnegative on the half-line"),
        *[(lambda v=v: DiffusionParams(v, 1.0), ValueError,
           "fractional order s must be a positive finite number")
          for v in (0.0, -1.0, math.inf, -math.inf, math.nan)],
        *[(lambda v=v: DiffusionParams(1.0, v), ValueError,
           "diffusion time t must be a positive finite number")
          for v in (0.0, -2.0, math.inf, -math.inf, math.nan)],
        *[(lambda v=v: TruncationPolicy(tail_tol=v), ValueError,
           "tail_tol must be a positive finite number") for v in (0.0, math.inf, math.nan)],
        (lambda: TruncationPolicy(max_terms=0), ValueError, "max_terms must be >= 1"),
        *[(lambda v=v: GaussianParams(v), ValueError, "time t must be a positive finite number")
          for v in (0.0, math.inf, math.nan)],
        (lambda: GaussianParams(1.0, 0), ValueError, "dimension n must be >= 1"),
        (lambda: PiecewiseDyadicFunction(((DyadicInterval(0, 0), 1.0), (DyadicInterval(1, 1), 2.0))),
         ValueError, "pieces [0, 1) and [1/2, 1) overlap"),
        (lambda: HaarExpansion(((DyadicInterval(0, 0), 1.0), (DyadicInterval(0, 0), 2.0))),
         ValueError, "duplicate coefficient for [0, 1)"),
    ])
    def test_constructor_errors(self, build, exc, message):
        with pytest.raises(exc) as info:
            build()
        assert str(info.value) == message

    @given(st.integers(0, 1 << 20), st.integers(0, 20), st.integers(0, 1 << 20), st.integers(0, 20))
    def test_point_order_is_numeric(self, m, e, n, f):
        x, y = DyadicPoint(m, e), DyadicPoint(n, f)
        a, b = x.value, y.value
        assert (x < y, x <= y, x > y, x >= y) == (a < b, a <= b, a > b, a >= b)

    def test_point_order_is_not_tuple_order(self):
        # as tuples (3, 2) > (1, 0), but 3/4 < 1
        assert DyadicPoint(3, 2) < DyadicPoint(1) and DyadicPoint(1) > DyadicPoint(3, 2)
        assert DyadicPoint(3, 2) <= DyadicPoint(1) and DyadicPoint(1) >= DyadicPoint(3, 2)
        assert not DyadicPoint(3, 2) >= DyadicPoint(1)
