"""Heat kernel, profile functions and the dyadic diffusion metric.

The diffusion distance of order s at time t admits two routes:

* spectral: the Parseval sum over Haar wavelets of
  exp(-2t|I|^-s) |h_I(x) - h_I(y)|^2, enumerated wavelet by wavelet;
* closed form: psi_t(delta(x, y)) where
  psi_t(lam)^2 = (2/lam) * eta_t(lam^-s) and
  eta_t(sigma) = 2 exp(-2 t sigma) + sum_{l>=1} 2^l exp(-2 t 2^(s l) sigma).

Both are implemented independently; their agreement is the headline check.
Every series is a sum of 2^j exp(-a 2^(s j)) over a range of levels j, taken
by `_right_sum` (ratio certificate) or `_left_sum` (geometric certificate)
until the discarded tail is certified, instead of a fixed term count.
delta is a power of 2, so the closed route, psi_infinity and balls read one
cached monotone table of log psi_t(2^i)^2 per (s, t), `_psi_table`.
"""

from __future__ import annotations

import math
import struct
import sys
from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .dyadic import (
    MAX_LEVEL,
    DyadicPoint,
    DyadicInterval,
    haar_eval,
    interval_containing,
    log2_distance,
    smallest_common_interval,
)
from .exceptions import CapExceeded

_LN2 = math.log(2.0)
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class DiffusionParams:
    """Fractional order s > 0 and diffusion time t > 0."""

    s: float
    t: float

    def __post_init__(self):
        if not (self.s > 0):
            raise ValueError("fractional order s must be positive")
        if not (self.t > 0):
            raise ValueError("diffusion time t must be positive")


@dataclass(frozen=True)
class TruncationPolicy:
    """Absolute tail tolerance plus hard caps for all series and searches."""

    tail_tol: float = 1e-12
    max_terms: int = 100_000
    max_depth: int = 200

    def __post_init__(self):
        if not (self.tail_tol > 0):
            raise ValueError("tail_tol must be positive")
        if self.max_terms < 1 or self.max_depth < 1:
            raise ValueError("caps must be >= 1")


DEFAULT_TRUNC = TruncationPolicy()


def _pow2(x: float) -> float:
    try:
        return 2.0 ** x
    except OverflowError:
        return math.inf


def _right_sum(
    a: float, s: float, start: int, trunc: TruncationPolicy,
    shift: float = 0.0, base: Optional[float] = None,
) -> tuple[float, int]:
    """sum_{l >= start} 2^l exp(shift - a 2^(s l)) and the last level used.

    Terms eventually decay super-exponentially; summation stops once the exact
    successive-term ratio r = 2 exp(-a 2^(s l) (2^s - 1)) is <= 1/2 (it is
    decreasing in l), at which point the discarded tail is bounded by
    term * r / (1 - r) and required to be <= tail_tol, or <= tail_tol times
    base + sum when a base is given.  A sum that leaves the double range
    before the certificate holds raises CapExceeded.
    """
    growth, tol, total = _pow2(s) - 1.0, trunc.tail_tol, 0.0
    for ell in range(start, start + trunc.max_terms):
        ap = a * _pow2(s * ell)
        try:
            term = math.exp(ell * _LN2 + shift - ap)
        except OverflowError:
            term = math.inf
        total += term
        if total == math.inf:
            raise CapExceeded(
                f"series passed the double range at level {ell} "
                f"before its tail certificate held (s={s}, a={a})"
            )
        ratio = 2.0 * math.exp(-ap * growth)
        rel = 1.0 if base is None else base + total
        if ratio <= 0.5 and term * ratio / (1.0 - ratio) <= tol * rel:
            return total, ell
    raise CapExceeded(
        f"series not certified within {trunc.max_terms} terms "
        f"(s={s}, a={a}, levels from {start})"
    )


def _left_sum(a: float, s: float, top: int, trunc: TruncationPolicy) -> float:
    """sum_{j <= top} 2^j exp(-a 2^(s j)).

    Every exponential factor is < 1, so once 2^j <= tail_tol the discarded
    part is below the geometric sum of 2^i over i < j, hence below tail_tol.
    """
    last = min(top, math.floor(math.log2(trunc.tail_tol)))  # 2^last <= tail_tol
    if top - last >= trunc.max_terms:
        raise CapExceeded(f"left sum needs {top - last + 1} > {trunc.max_terms} terms")
    total, w = 0.0, math.ldexp(1.0, top)
    for _ in range(top - last + 1):
        try:
            total += math.exp(-a * w**s) * w
        except OverflowError:
            pass  # w^s is past the double range, so the term is 0
        w *= 0.5
    return total


def log_psi_sq(
    params: DiffusionParams,
    lam: Union[float, Fraction],
    trunc: TruncationPolicy = DEFAULT_TRUNC,
) -> float:
    """log(psi_t(lam)^2) for a finite lam > 0, stable against under- and overflow.

    With lam = mu 2^i, a1 = 2 t mu^-s and a = 2 t lam^-s = a1 2^(-i s),
    psi^2 = 2^(1+u-i) mu^-1 exp(-a) (2^(1-u) + T),
    T = sum_{k>=1-i} 2^(k+i-u) exp(a - a1 2^(s k)),
    summed in units 2^(u-1), u = max(i, 1), that keep T and a1 2^(s k)
    inside the double range at both ends of the level range.  T is certified
    relative to 2^(1-u) + T.  Returns -inf when a overflows (lam so small
    that psi is an exact floating-point 0).
    """
    n, d = lam.as_integer_ratio()
    if n <= 0:
        raise ValueError("lam must be positive")
    i = n.bit_length() - d.bit_length()  # lam = mu 2^i with mu in [1, 2]
    num, den = (n, d << i) if i >= 0 else (n << -i, d)
    if num < den:
        num, i = 2 * num, i - 1
    s, mu = params.s, num / den
    a1 = 2.0 * params.t * mu ** (-s)
    a = a1 * _pow2(-i * s)
    if math.isinf(a):
        return -math.inf
    u = i if i > 0 else 1
    base = math.ldexp(1.0, 1 - u)
    total, _ = _right_sum(a1, s, 1 - i, trunc, shift=a + (i - u) * _LN2, base=base)
    return (1 + u - i) * _LN2 - math.log(mu) - a + math.log(base + total)


def psi(
    params: DiffusionParams, lam: Union[float, Fraction], trunc: TruncationPolicy = DEFAULT_TRUNC
) -> float:
    """psi_t(lam) = sqrt((2/lam) * eta_t(lam^-s)), with psi_t(0) = 0, as
    exp(log psi^2 / 2), representable down to the denormal floor; a power of
    2 reads the table, as `distance_closed` does."""
    if lam == 0:
        return 0.0
    n, d = lam.as_integer_ratio()
    if n > 0 and n & (n - 1) == 0 and d & (d - 1) == 0:
        return math.exp(0.5 * _log_psi_sq_at(params, n.bit_length() - d.bit_length(), trunc))
    return math.exp(0.5 * log_psi_sq(params, lam, trunc))


def log_psi_sq_increment(params: DiffusionParams, i: int) -> float:
    """log of psi_t(2^(i+1))^2 - psi_t(2^i)^2, in closed form.

    Telescoping the series gives the exact increment 2^(1-i) e^(-a 2^-s)
    (1 - e^(-x)), a = 2t 2^(-is), x = a (1 - 2^-s), always positive.  log x
    is formed without a and stands in for log(1 - e^(-x)) where x underflows,
    so the result is finite wherever a 2^-s is, and -inf past that.
    """
    s = params.s
    log_x = math.log(2.0 * params.t) - i * s * _LN2 + math.log(-math.expm1(-s * _LN2))
    inner = log_x if log_x < -460.0 else math.log(-math.expm1(-math.exp(min(log_x, _LOG_MAX))))
    return (1 - i) * _LN2 - _pow2(math.log2(2.0 * params.t) - (i + 1) * s) + inner


@lru_cache(maxsize=32)
def _psi_table(params: DiffusionParams, trunc: TruncationPolicy) -> tuple[int, memoryview]:
    """(lo, L): L[k] = log psi_t(2^(lo+k))^2, non-decreasing; the last entry
    stands for every level from its own up to +inf.

    lo is the lowest level in [-MAX_LEVEL, MAX_LEVEL] with a_lo (1 - 2^-s) <= 40,
    a_i = 2t 2^(-is): from there up consecutive increments are within about
    e^40 of each other, below it the series needs one or two terms.  L[0] is
    one certified `log_psi_sq`; each later entry log-adds the closed-form
    increment, so the table is monotone by construction.  Increment i is at
    most b_i = 2^(1-i) a_i (1 - 2^-s), geometric of ratio 2^-(1+s) (the
    increments' limit ratio), so the sweep stops once the sum of b_j over
    j >= i is below tail_tol, and below one rounding unit, times psi^2."""
    s, t = params.s, params.t
    log_gap = math.log(-math.expm1(-s * _LN2))  # log(1 - 2^-s)
    lo = min(max(math.ceil((math.log(t / 20.0) + log_gap) / (s * _LN2)), -MAX_LEVEL), MAX_LEVEL)
    L = log_psi_sq(params, 1 << lo if lo >= 0 else Fraction(1, 1 << -lo), trunc)
    logs = [L]
    # the log of the sum of b_j over j >= i is tail0 - i (1 + s) ln 2
    tail0 = math.log(4.0 * t) + log_gap - math.log(-math.expm1(-(1.0 + s) * _LN2))
    log_tol = math.log(min(trunc.tail_tol, sys.float_info.epsilon))
    for i in range(lo, lo + trunc.max_terms):
        if tail0 - i * (1.0 + s) * _LN2 <= log_tol + L:
            if 0.5 * L > _LOG_MAX:
                raise CapExceeded(f"psi_inf = exp({0.5 * L}) is past the double range (s={s}, t={t})")
            # packed doubles: 8 bytes an entry, without importing `array`
            return lo, memoryview(struct.pack(f"{len(logs)}d", *logs)).cast("d")
        inc = log_psi_sq_increment(params, i)
        L = L + math.log1p(math.exp(inc - L)) if inc <= L else inc + math.log1p(math.exp(L - inc))
        logs.append(L)
    raise CapExceeded(f"psi table not certified within {trunc.max_terms} levels from {lo}")


def _log_psi_sq_at(params: DiffusionParams, i: int, trunc: TruncationPolicy) -> float:
    """log psi_t(2^i)^2: from the table, or the series below its lowest level."""
    lo, logs = _psi_table(params, trunc)
    if i >= lo:
        return logs[min(i - lo, len(logs) - 1)]
    return log_psi_sq(params, Fraction(1, 1 << -i) if i < 0 else 1 << i, trunc)


def psi_infinity(params: DiffusionParams, trunc: TruncationPolicy = DEFAULT_TRUNC) -> float:
    """The finite limit of psi_t along growing powers of 2:
    sqrt(2 * sum_{k in Z} 2^k exp(-2 t 2^(k s))), the top of the table."""
    return math.exp(0.5 * _psi_table(params, trunc)[1][-1])


def c_t_s(params: DiffusionParams) -> float:
    """c_t(s) = t^(-1/(2s)) * sqrt(integral_0^inf exp(-2 x^s) dx).

    The substitution u = 2 x^s gives the integral as Gamma(1 + 1/s) 2^(-1/s),
    evaluated here in log scale; `verify` checks it against quadrature.
    Raises CapExceeded when c is past the double range.
    """
    s, t = params.s, params.t
    log_c = 0.5 * (math.lgamma(1.0 + 1.0 / s) - (_LN2 + math.log(t)) / s)
    if not log_c <= _LOG_MAX:
        raise CapExceeded(f"c_t(s) = exp({log_c}) is past the double range (s={s}, t={t})")
    return math.exp(log_c)


def sandwich(
    params: DiffusionParams, trunc: TruncationPolicy = DEFAULT_TRUNC
) -> tuple[float, float, float]:
    """(sqrt(2)*c, psi_infinity, 2*c): the strict two-sided bound on the limit."""
    c = c_t_s(params)
    return math.sqrt(2.0) * c, psi_infinity(params, trunc), 2.0 * c


def kernel_K(
    x: DyadicPoint,
    y: DyadicPoint,
    params: DiffusionParams,
    trunc: TruncationPolicy = DEFAULT_TRUNC,
) -> float:
    """The heat kernel sum_h exp(-t|I(h)|^-s) h(x) h(y).

    Only wavelets whose support contains both points contribute.  For x != y
    these are exactly the ancestors of the minimal common interval; the two
    points sit in opposite halves there (product -1/delta) and in the same
    half above it (product +1/|I|), so the ancestor chain is the geometric
    left sum below the common level.  For x == y the sum runs over the full
    bilateral chain of intervals containing x.
    """
    s, t = params.s, params.t
    common = smallest_common_interval(x, y)
    if common is None:
        # Diagonal: sum_j 2^j exp(-t 2^(j s)) over all levels j.
        return _left_sum(t, s, 0, trunc) + _right_sum(t, s, 1, trunc)[0]
    top = common.level
    return _left_sum(t, s, top - 1, trunc) - math.exp(top * _LN2 - t * _pow2(s * top))


def distance_closed(
    x: DyadicPoint, y: DyadicPoint, params: DiffusionParams, trunc: TruncationPolicy = DEFAULT_TRUNC
) -> float:
    """d_t(x, y) = psi_t(delta(x, y)): the closed-form route, at the integer log2 delta."""
    i = log2_distance(x, y)
    return 0.0 if i is None else math.exp(0.5 * _log_psi_sq_at(params, i, trunc))


def distance_spectral(
    x: DyadicPoint,
    y: DyadicPoint,
    params: DiffusionParams,
    trunc: TruncationPolicy = DEFAULT_TRUNC,
) -> float:
    """d_t(x, y) by direct enumeration of the Parseval sum.

    Three groups contribute: the separating wavelet at the minimal common
    interval, and the two one-sided chains of wavelets containing exactly one
    of the points.  Wavelets strictly above the common interval see equal
    values at x and y and are skipped.  Both chain terms at level j sum to
    exactly 2 * 2^j exp(-2t 2^(s j)), so the deepest level is where the ratio
    certificate of that series holds relative to the squared distance.

    The sum is taken in units of exp(-2t |I|^-s) 2^max(j, 0) of the common
    interval I at level j, about the size of the separating term, so it
    stays representable wherever the distance is, however small that is.
    """
    s, a = params.s, 2.0 * params.t
    common = smallest_common_interval(x, y)
    if common is None:
        return 0.0
    top = common.level
    shift = a * _pow2(s * top) - max(top, 0) * _LN2
    if math.isinf(shift):
        return 0.0
    sep = haar_eval(common, x) - haar_eval(common, y)
    terms = [_pow2(-max(top, 0)) * sep * sep]
    depth = replace(trunc, max_terms=min(trunc.max_depth, trunc.max_terms))
    _, last = _right_sum(a, s, top + 1, depth, shift=shift + _LN2, base=terms[0])
    ix = iy = common
    for j in range(top + 1, last + 1):
        ix = ix.child_containing(x)
        iy = iy.child_containing(y)
        mult = math.exp(shift - a * _pow2(s * j))
        hx, hy = haar_eval(ix, x), haar_eval(iy, y)
        terms += (mult * hx * hx, mult * hy * hy)
    return math.exp(0.5 * (math.log(math.fsum(terms)) - shift))


@dataclass(frozen=True)
class Ball:
    """A diffusion ball: a dyadic interval, or the whole half-line."""

    interval: Optional[DyadicInterval] = None

    @classmethod
    def whole_space(cls) -> "Ball":
        return cls(None)

    @property
    def is_whole_space(self) -> bool:
        return self.interval is None

    def contains(self, x: DyadicPoint) -> bool:
        return True if self.interval is None else self.interval.contains(x)


def ball(
    x: DyadicPoint, r: float, params: DiffusionParams, trunc: TruncationPolicy = DEFAULT_TRUNC
) -> Ball:
    """The ball {y : d_t(x, y) < r}: the dyadic interval containing x of the
    largest length 2^i with psi_t(2^i) < r, or the whole space when
    r >= psi_t(+inf).  i is a bisect on the table, or on the series below it
    when r <= psi_t at the table's lowest level; both compare r against the
    very floats `distance_closed` returns, so membership agrees with it.  A
    ball finer than level MAX_LEVEL raises LevelRangeError."""
    if not (r > 0):
        raise ValueError("radius must be positive")
    lo, logs = _psi_table(params, trunc)
    if r >= math.exp(0.5 * logs[-1]):
        return Ball.whole_space()

    def reaches_r(i: int) -> bool:
        return math.exp(0.5 * _log_psi_sq_at(params, i, trunc)) >= r

    start, stop = (-MAX_LEVEL, lo) if reaches_r(lo) else (lo, lo + len(logs))
    # psi is non-decreasing in i: bisect for the first level with psi >= r
    i = start - 1 + bisect_left(range(start, stop), True, key=reaches_r)
    return Ball(interval_containing(x, -i))


def ball_radius_transfer(
    x: DyadicPoint, r1: float, t1: float, t2: float, s: float,
    trunc: TruncationPolicy = DEFAULT_TRUNC,
) -> float:
    """A radius r2 with B_{t2}(x, r2) = B_{t1}(x, r1) as sets.

    Any value in (psi_{t2}(|I|), psi_{t2}(2|I|)] works, where I is the
    t1-ball.  The geometric midpoint of that window is returned, or its top
    where the midpoint underflows.  The radius is checked by `ball` itself,
    and a ValueError reports a window that holds no double radius.
    """
    p1, p2 = DiffusionParams(s, t1), DiffusionParams(s, t2)
    interval = ball(x, r1, p1, trunc).interval
    if interval is None:
        raise ValueError("r1 must be below psi_t1(+inf) for an interval ball")
    log_lo_sq = _log_psi_sq_at(p2, -interval.level, trunc)
    log_hi_sq = _log_psi_sq_at(p2, 1 - interval.level, trunc)
    r2 = math.exp(0.25 * (log_lo_sq + log_hi_sq)) or math.exp(0.5 * log_hi_sq)
    # keep r2 only if `ball` maps it back to I: the window may hold no double
    if not (r2 > 0.0 and ball(x, r2, p2, trunc).interval == interval):
        raise ValueError(f"no double radius gives the ball {interval} at t2={t2}: window "
                         f"of log radii ({0.5 * log_lo_sq!r}, {0.5 * log_hi_sq!r}]")
    return r2
