"""Heat kernel, profile functions and the dyadic diffusion metric.

The diffusion distance of order s at time t admits two routes:

* spectral: the Parseval sum over Haar wavelets of
  exp(-2t|I|^-s) |h_I(x) - h_I(y)|^2, enumerated wavelet by wavelet;
* closed form: psi_t(delta(x, y)) where
  psi_t(lam)^2 = (2/lam) * eta_t(lam^-s) and
  eta_t(sigma) = 2 exp(-2 t sigma) + sum_{l>=1} 2^l exp(-2 t 2^(s l) sigma).

Both are implemented independently; their agreement is the headline check.
Every series is a sum of 2^j exp(-a 2^(s j)) over a range of levels, taken in
log scale by `_log_series` until its tail is certified relative to the sum.
delta is a power of 2, so the closed route, psi_infinity and balls read one
cached monotone table of log psi_t(2^i)^2 per (s, t), `_psi_table`.
"""

from __future__ import annotations

import math
import struct
import sys
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .dyadic import (
    MAX_LEVEL,
    DyadicPoint,
    haar_eval,
    interval_containing,
    log2_distance,
    smallest_common_interval,
    value_type,
)
from .exceptions import CapExceeded

_LN2 = math.log(2.0)
_LOG_MAX = math.log(sys.float_info.max)


class DiffusionParams(value_type("DiffusionParams", "s t")):
    """Fractional order s > 0 and diffusion time t > 0, both finite."""

    __slots__ = ()

    def __new__(cls, s: float, t: float) -> "DiffusionParams":
        if not 0 < s < math.inf:
            raise ValueError("fractional order s must be a positive finite number")
        if not 0 < t < math.inf:
            raise ValueError("diffusion time t must be a positive finite number")
        return tuple.__new__(cls, (s, t))


class TruncationPolicy(value_type("TruncationPolicy", "tail_tol max_terms")):
    """Tail tolerance relative to the value of each series, and a cap on its terms."""

    __slots__ = ()

    def __new__(cls, tail_tol: float = 1e-12, max_terms: int = 100_000) -> "TruncationPolicy":
        if not 0 < tail_tol < math.inf:
            raise ValueError("tail_tol must be a positive finite number")
        if max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        return tuple.__new__(cls, (tail_tol, max_terms))


DEFAULT_TRUNC = TruncationPolicy()

_CHAIN_LEVELS = 200  # most levels the spectral chain of `distance_spectral` enumerates


def _pow2(x: float) -> float:
    try:
        return 2.0 ** x
    except OverflowError:
        return math.inf


def _log_add(x: float, y: float) -> float:
    """log(e^x + e^y), with -inf standing for 0."""
    if x < y:
        x, y = y, x
    return x if y == -math.inf else x + math.log1p(math.exp(y - x))


def _log_tail(a: float, s: float, ell: int) -> float:
    """log of a bound on sum_{l > ell} 2^l exp(-a 2^(s l)), or +inf: the ratio of
    successive terms, r = 2 exp(-a 2^(s l) (2^s - 1)), falls with l, so once it
    is below 1 at ell the rest is at most the term at ell times r / (1 - r)."""
    ap = a * _pow2(s * ell)
    log_r = _LN2 - ap * math.expm1(s * _LN2)
    return math.inf if log_r >= 0.0 else ell * _LN2 - ap + log_r - math.log(-math.expm1(log_r))


@lru_cache(maxsize=1024)
def _log_series(
    a: float, s: float, lo: float, hi: float, trunc: TruncationPolicy
) -> tuple[float, int]:
    """log sum_{l=lo..hi} 2^l exp(-a 2^(s l)) and the last level used on the
    right; either end may be infinite.  Cached: K and the chain at one (s, t)
    depend only on the level of delta.

    The log of a term is concave in l, so the sum starts at the larger of the
    two terms around the peak -log2(a s)/s (clamped into [lo, hi]), e^m, and
    walks outwards as e^m acc.  To the right it stops once `_log_tail` is
    within tol times the sum.  To the left, levels lo..j sum to between
    (2^(j+1) - 2^lo) e^(-a 2^(s j)) and 2^(j+1) - 2^lo, less than
    2^((1+s) j + 1) a apart: it adds the levels above the first j where that
    is within tol times the sum so far, then the lower end.  tol is
    trunc.tail_tol; past trunc.max_terms terms it raises CapExceeded."""
    def log_term(j: int) -> float:
        return j * _LN2 - a * _pow2(s * j)

    peak = min(max(math.ceil(-(math.log2(a) + math.log2(s)) / s), lo), hi)
    start = max(peak, peak - 1, key=lambda j: log_term(j) if j >= lo else -math.inf)
    m = log_term(start)
    if m == -math.inf:
        return m, start
    log_tol, acc = math.log(trunc.tail_tol) + m, 0.0  # log(tol e^m)
    for j in range(start, min(hi, start + trunc.max_terms) + 1):
        acc += math.exp(log_term(j) - m)
        if _log_tail(a, s, j) <= log_tol + math.log(acc):
            break
    last, stop = j, math.floor(((log_tol + math.log(acc) - math.log(a)) / _LN2 - 1) / (1 + s))
    j = min(max(stop, lo - 1), start - 1)
    if last - j > trunc.max_terms:
        raise CapExceeded(f"series not certified within {trunc.max_terms} terms "
                          f"(s={s}, a={a}, levels {j}..{last})")
    acc += math.fsum([math.exp(log_term(k) - m) for k in range(start - 1, j, -1)])
    if j >= lo:
        acc += math.exp(log_term(j) + _LN2 + math.log1p(-_pow2(lo - j - 1)) - m)
    return m + math.log(acc), last


def _binary(lam: Union[float, Fraction]) -> tuple[int, int, int]:
    """(i, num, den) with lam = (num / den) 2^i and num / den in [1, 2)."""
    n, d = lam.as_integer_ratio()
    if n <= 0:
        raise ValueError("lam must be positive")
    i = n.bit_length() - d.bit_length()
    num, den = (n, d << i) if i >= 0 else (n << -i, d)
    return (i, num, den) if num >= den else (i - 1, 2 * num, den)


def log_psi_sq(
    params: DiffusionParams, lam: Union[float, Fraction], trunc: TruncationPolicy = DEFAULT_TRUNC
) -> float:
    """log(psi_t(lam)^2) for a finite lam > 0, by the series: with lam = mu 2^i,
    a1 = 2 t mu^-s and a = a1 2^(-i s),
    psi^2 = (2/mu) (2^(1-i) exp(-a) + sum_{k>=1-i} 2^k exp(-a1 2^(s k))).
    Returns -inf when a overflows (log psi^2 itself past the double range).
    """
    i, num, den = _binary(lam)
    s, mu = params.s, num / den
    a1 = 2.0 * params.t * mu ** (-s)
    a = _pow2(math.log2(a1) - i * s)  # a1 2^(-i s), infinite only where a is
    if math.isinf(a):
        return -math.inf
    log_sum, _ = _log_series(a1, s, 1 - i, math.inf, trunc)
    return _LN2 - math.log(mu) + _log_add((1 - i) * _LN2 - a, log_sum)


def psi(
    params: DiffusionParams, lam: Union[float, Fraction], trunc: TruncationPolicy = DEFAULT_TRUNC
) -> float:
    """psi_t(lam) = sqrt((2/lam) * eta_t(lam^-s)), with psi_t(0) = 0.  A power
    of 2 reads the table, as `distance_closed` does; psi is non-decreasing, so
    between 2^i and 2^(i+1) at or above the table's lowest level the series
    is clamped between the two table entries, and psi stays monotone."""
    if lam == 0:
        return 0.0
    i, num, den = _binary(lam)
    if num == den:
        return math.exp(0.5 * _log_psi_sq_at(params, i, trunc))
    log_sq = log_psi_sq(params, lam, trunc)
    if i >= _psi_table(params, trunc)[0]:
        floor_sq, ceil_sq = _log_psi_sq_at(params, i, trunc), _log_psi_sq_at(params, i + 1, trunc)
        log_sq = min(max(log_sq, floor_sq), ceil_sq)
    return math.exp(0.5 * log_sq)


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
    a_i = 2t 2^(-is), where consecutive increments come within about e^40 of
    each other.  L[0] is one `log_psi_sq`; each later entry log-adds the
    closed-form increment, so the table is monotone by construction.
    Increment i is at most b_i = 2^(1-i) a_i (1 - 2^-s), geometric of ratio
    2^-(1+s), so the sweep stops once the sum of b_j over j >= i is below
    tail_tol, and below one rounding unit, times psi^2."""
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
        L = _log_add(L, log_psi_sq_increment(params, i))
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
    x: DyadicPoint, y: DyadicPoint, params: DiffusionParams, trunc: TruncationPolicy = DEFAULT_TRUNC
) -> float:
    """The heat kernel sum_h exp(-t|I(h)|^-s) h(x) h(y).

    Only wavelets whose support contains both points contribute.  For x != y
    these are exactly the ancestors of the minimal common interval; the two
    points sit in opposite halves there (product -1/delta) and in the same
    half above it (product +1/|I|), so the ancestor chain is the series over
    the levels below the common level, which is below 2/delta.  For x == y
    the sum runs over every level; past the double range it raises CapExceeded.
    """
    s, t = params.s, params.t
    common = smallest_common_interval(x, y)
    if common is None:
        log_k, _ = _log_series(t, s, -math.inf, math.inf, trunc)
        if log_k > _LOG_MAX:
            raise CapExceeded(f"K(x, x) = exp({log_k}) is past the double range (s={s}, t={t})")
        return math.exp(log_k)
    top = common.level
    log_k, _ = _log_series(t, s, -math.inf, top - 1, trunc)
    return math.exp(log_k) - math.exp(top * _LN2 - t * _pow2(s * top))


def distance_closed(
    x: DyadicPoint, y: DyadicPoint, params: DiffusionParams, trunc: TruncationPolicy = DEFAULT_TRUNC
) -> float:
    """d_t(x, y) = psi_t(delta(x, y)): the closed-form route, at the integer log2 delta."""
    i = log2_distance(x, y)
    return 0.0 if i is None else math.exp(0.5 * _log_psi_sq_at(params, i, trunc))


def distance_spectral(
    x: DyadicPoint, y: DyadicPoint, params: DiffusionParams, trunc: TruncationPolicy = DEFAULT_TRUNC
) -> float:
    """d_t(x, y) by direct enumeration of the Parseval sum.

    Three groups contribute: the separating wavelet at the minimal common
    interval (level `top`), and the two one-sided chains of wavelets
    containing exactly one of the points; wavelets above the common interval
    see equal values at x and y.  Both chain terms at level j sum to exactly
    2^(j+1) exp(-2t 2^(s j)), so `_log_series` of that series gives d^2 and
    the chain's last level.  The chain starts where the pairs below it, at
    most 2^(j+1) a level, sum to no more than tol d^2, and enumerates at most
    _CHAIN_LEVELS levels.  Terms are taken relative to d^2, so the sum stays
    representable wherever the distance is.
    """
    s, a = params.s, 2.0 * params.t
    common = smallest_common_interval(x, y)
    if common is None:
        return 0.0
    top = common.level
    log_chain, last = _log_series(a, s, top + 1, math.inf, trunc)
    log_d2 = _log_add((top + 2) * _LN2 - a * _pow2(s * top), _LN2 + log_chain)
    if log_d2 == -math.inf:
        return 0.0
    first = max(top + 1, math.floor((math.log(trunc.tail_tol) + log_d2) / _LN2) - 1)
    cap = first + _CHAIN_LEVELS - 1
    if last > cap:
        rel = math.exp(min(_LN2 + _log_tail(a, s, cap) - log_d2, _LOG_MAX))
        raise CapExceeded(f"spectral chain past its cap of {_CHAIN_LEVELS} levels: from level "
                          f"{first} it needs levels up to {last}; the tail bound after level "
                          f"{cap} is {rel:.3g} times d^2, against tol {trunc.tail_tol:g}")

    def unit(j: int) -> float:  # sqrt(exp(-2t 2^(s j)) / d^2)
        return math.exp(-0.5 * (a * _pow2(s * j) + log_d2))

    w = unit(top)
    terms = [(w * haar_eval(common, x) - w * haar_eval(common, y)) ** 2]
    for j in range(first, last + 1):
        w = unit(j)
        hx = w * haar_eval(interval_containing(x, j), x)
        hy = w * haar_eval(interval_containing(y, j), y)
        terms += (hx * hx, hy * hy)
    return math.exp(0.5 * (log_d2 + math.log(math.fsum(terms))))


class Ball(value_type("Ball", "interval", defaults=(None,))):
    """A diffusion ball: a dyadic interval, or the whole half-line (None)."""

    __slots__ = ()

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
