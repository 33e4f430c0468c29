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
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Union

from .dyadic import (
    DyadicPoint,
    DyadicInterval,
    dyadic_distance,
    haar_eval,
    interval_containing,
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
    params: DiffusionParams,
    lam: Union[float, Fraction],
    trunc: TruncationPolicy = DEFAULT_TRUNC,
) -> float:
    """psi_t(lam) = sqrt((2/lam) * eta_t(lam^-s)), with psi_t(0) = 0.

    Evaluated as exp(log_psi_sq / 2), which keeps values representable all
    the way down to the denormal floor instead of underflowing at the square.
    """
    return 0.0 if lam == 0 else math.exp(0.5 * log_psi_sq(params, lam, trunc))


def log_psi_sq_increment(params: DiffusionParams, i: int) -> float:
    """log of psi_t(2^(i+1))^2 - psi_t(2^i)^2, in closed form.

    Telescoping the series gives the exact increment
    2^(1-i) * (exp(-2t 2^(-(i+1)s)) - exp(-2t 2^(-is))), always positive;
    the log-scale evaluation stays finite where the raw increment under- or
    overflows double precision, so strict monotonicity of psi on powers of 2
    can be asserted over any level range.  Raises ValueError if the computed
    increment is not positive.
    """
    s = params.s
    a = 2.0 * params.t * _pow2(-i * s)
    # increment = 2^(1-i) e^(-a 2^-s) (1 - e^(-a (1 - 2^-s)))
    inner = -math.expm1(-a * (1.0 - _pow2(-s)))
    if not (inner > 0.0):
        raise ValueError(f"psi increment not positive at i={i}")
    return (1 - i) * _LN2 - a * _pow2(-s) + math.log(inner)


def _bilateral_sum(s: float, a: float, trunc: TruncationPolicy) -> float:
    """sum_{k in Z} 2^k exp(-a 2^(k s)), both tails certified."""
    return _left_sum(a, s, 0, trunc) + _right_sum(a, s, 1, trunc)[0]


def psi_infinity(
    params: DiffusionParams, trunc: TruncationPolicy = DEFAULT_TRUNC
) -> float:
    """The finite limit of psi_t along growing powers of 2:
    sqrt(2 * sum_{k in Z} 2^k exp(-2 t 2^(k s)))."""
    return math.sqrt(2.0 * _bilateral_sum(params.s, 2.0 * params.t, trunc))


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
        return _bilateral_sum(s, t, trunc)
    top = common.level
    return _left_sum(t, s, top - 1, trunc) - math.exp(top * _LN2 - t * _pow2(s * top))


def distance_closed(
    x: DyadicPoint,
    y: DyadicPoint,
    params: DiffusionParams,
    trunc: TruncationPolicy = DEFAULT_TRUNC,
) -> float:
    """d_t(x, y) = psi_t(delta(x, y)): the closed-form route."""
    return psi(params, dyadic_distance(x, y), trunc)


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
    x: DyadicPoint,
    r: float,
    params: DiffusionParams,
    trunc: TruncationPolicy = DEFAULT_TRUNC,
) -> Ball:
    """The ball {y : d_t(x, y) < r}: the largest dyadic interval containing x
    with psi_t(|I|) < r, or the whole space when r >= psi_t(+inf)."""
    if not (r > 0):
        raise ValueError("radius must be positive")
    if r >= psi_infinity(params, trunc):
        return Ball.whole_space()
    # compare in log scale so denormal radii (deep balls at large t) still
    # resolve against psi values that underflow the direct route
    log_r_sq = 2.0 * math.log(r)
    current = interval_containing(x, 0)
    depth = 0
    while log_psi_sq(params, current.length, trunc) >= log_r_sq:
        current = current.child_containing(x)
        depth += 1
        if depth > trunc.max_depth:
            raise CapExceeded("downward ball search exceeded max_depth")
    # the walk up ends at the latest at the level bound, where parent() raises
    while True:
        parent = current.parent()
        if log_psi_sq(params, parent.length, trunc) >= log_r_sq:
            return Ball(current)
        current = parent


def ball_radius_transfer(
    x: DyadicPoint,
    r1: float,
    t1: float,
    t2: float,
    s: float,
    trunc: TruncationPolicy = DEFAULT_TRUNC,
) -> float:
    """A radius r2 with B_{t2}(x, r2) = B_{t1}(x, r1) as sets.

    Any value in (psi_{t2}(|I|), psi_{t2}(2|I|)] works, where I is the
    t1-ball.  The geometric midpoint of that window is returned; when it
    falls below the denormal floor the choice is moved toward the top of the
    window.  The radius is checked by `ball` itself, and a ValueError
    reports a window that holds no double radius for the same ball.
    """
    p1 = DiffusionParams(s, t1)
    p2 = DiffusionParams(s, t2)
    interval = ball(x, r1, p1, trunc).interval
    if interval is None:
        raise ValueError("r1 must be below psi_t1(+inf) for an interval ball")
    log_lo_sq = log_psi_sq(p2, interval.length, trunc)
    log_hi_sq = log_psi_sq(p2, 2 * interval.length, trunc)
    # radius window in log scale: (log_lo_sq / 2, log_hi_sq / 2]
    log_r = 0.25 * (log_lo_sq + log_hi_sq)
    for _ in range(64):
        if math.exp(log_r) > 0.0:
            break
        log_r = 0.5 * (log_r + 0.5 * log_hi_sq)
    r2 = math.exp(log_r)
    # keep r2 only if `ball` maps it back to I: the window may hold no double,
    # and where psi_t2 is flat to an ulp its computed values are not monotone
    if not (r2 > 0.0 and ball(x, r2, p2, trunc).interval == interval):
        raise ValueError(
            f"no double radius gives the ball {interval} at t2={t2}: window of "
            f"log radii ({0.5 * log_lo_sq!r}, {0.5 * log_hi_sq!r}]"
        )
    return r2
