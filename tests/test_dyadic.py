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
