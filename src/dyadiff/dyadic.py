"""Exact dyadic arithmetic on the half-line.

Points are dyadic rationals m * 2^-e stored as integers, intervals are the
half-open [k*2^-j, (k+1)*2^-j), and every predicate here is decided by
integer comparison only.  The dyadic distance between two points is the
length of the smallest dyadic interval containing both; it dominates the
Euclidean distance and satisfies the ultrametric inequality.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Optional, Union

from .exceptions import LevelRangeError

# Hard bound on |level| to keep mantissas from growing without limit.
MAX_LEVEL = 1024

_SQRT2 = math.sqrt(2.0)


def _check_level(j: int) -> None:
    if abs(j) > MAX_LEVEL:
        raise LevelRangeError(f"interval level {j} exceeds |j| <= {MAX_LEVEL}")


def _same_value(self, other) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def _other_value(self, other) -> bool:
    return type(other) is not type(self) or tuple.__ne__(self, other)


def _unsupported(self, other):
    return NotImplemented


def value_type(name: str, fields: str, defaults: tuple = ()) -> type:
    """The base of an immutable value type: a namedtuple, whose fields and
    hash are computed in C, that equals only a value of its own type and has
    neither tuple order nor tuple arithmetic.  A subclass keeps
    `__slots__ = ()` and checks its fields in `__new__`."""
    base = namedtuple(name, fields, defaults=defaults)
    base.__eq__, base.__ne__, base.__hash__ = _same_value, _other_value, tuple.__hash__
    for op in ("__lt__", "__le__", "__gt__", "__ge__", "__add__", "__mul__", "__rmul__"):
        setattr(base, op, _unsupported)
    return base


def pow2_half(j: int) -> float:
    """2^(j/2) as a float, exact for even j."""
    if j % 2 == 0:
        return math.ldexp(1.0, j // 2)
    return _SQRT2 * math.ldexp(1.0, (j - 1) // 2)


class DyadicPoint(value_type("DyadicPoint", "mantissa exponent")):
    """A nonnegative dyadic rational mantissa * 2^-exponent in canonical form.

    Canonical means the mantissa is odd or the exponent is zero, so equality
    of fields is equality of values.
    """

    __slots__ = ()

    def __new__(cls, mantissa: int, exponent: int = 0) -> "DyadicPoint":
        m, e = mantissa, exponent
        if m < 0 or e < 0:
            raise ValueError("dyadic point requires mantissa >= 0 and exponent >= 0")
        if m == 0:
            e = 0
        elif m & 1 == 0:
            # strip every trailing zero bit at once: m & -m is the lowest set bit
            k = min(e, (m & -m).bit_length() - 1)
            m, e = m >> k, e - k
        return tuple.__new__(cls, (m, e))

    @classmethod
    def from_fraction(cls, value: Union[Fraction, int]) -> "DyadicPoint":
        value = Fraction(value)
        if value < 0:
            raise ValueError("dyadic points live on the half-line x >= 0")
        den = value.denominator
        e = den.bit_length() - 1
        if den != 1 << e:
            raise ValueError(f"{value} is not a dyadic rational")
        return cls(value.numerator, e)

    @classmethod
    def from_float(cls, value: float) -> "DyadicPoint":
        # Every finite binary float is a dyadic rational; the conversion is lossless.
        if not math.isfinite(value):
            raise ValueError("dyadic point requires a finite value")
        return cls.from_fraction(Fraction(value))

    @property
    def value(self) -> Fraction:
        return Fraction(self.mantissa, 1 << self.exponent)

    def scaled_mantissa(self, exponent: int) -> int:
        """The integer x * 2^exponent, requires exponent >= self.exponent."""
        return self.mantissa << (exponent - self.exponent)

    def __float__(self) -> float:
        return self.mantissa / (1 << self.exponent)

    # numeric order; x > y and x >= y reflect to y < x and y <= x
    def __lt__(self, other: "DyadicPoint") -> bool:
        e = max(self.exponent, other.exponent)
        return self.scaled_mantissa(e) < other.scaled_mantissa(e)

    def __le__(self, other: "DyadicPoint") -> bool:
        return self == other or self < other


class DyadicInterval(value_type("DyadicInterval", "level index")):
    """The half-open interval [index*2^-level, (index+1)*2^-level)."""

    __slots__ = ()

    def __new__(cls, level: int, index: int) -> "DyadicInterval":
        _check_level(level)
        if index < 0:
            raise ValueError("interval index must be nonnegative on the half-line")
        return tuple.__new__(cls, (level, index))

    @property
    def length(self) -> Fraction:
        j = self.level
        return Fraction(1, 1 << j) if j >= 0 else Fraction(1 << -j)

    @property
    def lower(self) -> Fraction:
        return self.index * self.length

    @property
    def upper(self) -> Fraction:
        return (self.index + 1) * self.length

    @property
    def midpoint(self) -> Fraction:
        return (2 * self.index + 1) * self.length / 2

    def contains(self, x: DyadicPoint) -> bool:
        return interval_containing(x, self.level).index == self.index

    def contains_interval(self, other: "DyadicInterval") -> bool:
        if self.level > other.level:
            return False
        return other.index >> (other.level - self.level) == self.index

    def disjoint(self, other: "DyadicInterval") -> bool:
        return not (self.contains_interval(other) or other.contains_interval(self))

    def parent(self) -> "DyadicInterval":
        return DyadicInterval(self.level - 1, self.index // 2)

    def left_child(self) -> "DyadicInterval":
        return DyadicInterval(self.level + 1, 2 * self.index)

    def right_child(self) -> "DyadicInterval":
        return DyadicInterval(self.level + 1, 2 * self.index + 1)

    def overlap_length(self, other: "DyadicInterval") -> Fraction:
        """Length of the intersection; dyadic intervals are nested or disjoint."""
        if self.contains_interval(other):
            return other.length
        if other.contains_interval(self):
            return self.length
        return Fraction(0)

    def __str__(self) -> str:
        return f"[{self.lower}, {self.upper})"


def interval_containing(x: DyadicPoint, level: int) -> DyadicInterval:
    """The unique level-j dyadic interval containing x."""
    _check_level(level)
    if level >= x.exponent:
        k = x.scaled_mantissa(level)
    else:
        k = x.mantissa >> (x.exponent - level)
    return DyadicInterval(level, k)


def smallest_common_interval(
    x: DyadicPoint, y: DyadicPoint
) -> Optional[DyadicInterval]:
    """The minimal dyadic interval containing both points, None when x == y.

    Computed from the longest common binary prefix of the two coordinates.
    """
    if x == y:
        return None
    e = max(x.exponent, y.exponent)
    a = x.scaled_mantissa(e)
    b = y.scaled_mantissa(e)
    shift = (a ^ b).bit_length()
    return DyadicInterval(e - shift, a >> shift)


def log2_distance(x: DyadicPoint, y: DyadicPoint) -> Optional[int]:
    """log2 delta(x, y) as an integer, None when x == y: the bit length of
    the XOR of the scaled mantissas, with no interval or Fraction built."""
    e = max(x.exponent, y.exponent)
    shift = ((x.mantissa << (e - x.exponent)) ^ (y.mantissa << (e - y.exponent))).bit_length()
    if shift == 0:
        return None
    _check_level(e - shift)
    return shift - e


def dyadic_distance(x: DyadicPoint, y: DyadicPoint) -> Fraction:
    """delta(x, y): length of the smallest common dyadic interval, 0 for x == y.

    Always an exact power of 2 or 0.
    """
    common = smallest_common_interval(x, y)
    if common is None:
        return Fraction(0)
    return common.length


def haar_eval(I: DyadicInterval, x: DyadicPoint) -> float:
    """The Haar wavelet supported on I: +|I|^-1/2 on the left half,
    -|I|^-1/2 on the right half, 0 outside."""
    if not I.contains(x):
        return 0.0
    magnitude = pow2_half(I.level)
    if I.left_child().contains(x):
        return magnitude
    return -magnitude
