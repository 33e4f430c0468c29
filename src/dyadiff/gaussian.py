"""Euclidean baseline: the Gauss-Weierstrass diffusion metric.

d_t(x, y)^2 = int |W_t(x - z) - W_t(y - z)|^2 dz with the heat kernel
W_t(z) = (4 pi t)^(-n/2) exp(-|z|^2 / 4t).  The metric is radial with
profile rho_t, whose square has the closed form
2 (8 pi t)^(-n/2) (1 - exp(-r^2 / 8t)); quadrature and closed form are kept
as independent routes and checked against each other.

Because the kernel factorizes over coordinates, the n-dimensional quadrature
reduces to products of one-dimensional integrals (`quad`); the integration
domain is truncated with an analytically negligible Gaussian tail.
"""

from __future__ import annotations

import math
import numbers
import struct
from functools import lru_cache
from typing import Sequence

from .dyadic import value_type
from .exceptions import QuadratureError


class GaussianParams(value_type("GaussianParams", "t n")):
    """Diffusion time t > 0, finite, and dimension n >= 1."""

    __slots__ = ()

    def __new__(cls, t: float, n: int = 1) -> "GaussianParams":
        if not 0 < t < math.inf:
            raise ValueError("time t must be a positive finite number")
        if n < 1:
            raise ValueError("dimension n must be >= 1")
        return tuple.__new__(cls, (t, n))


def _coords(x) -> tuple[float, ...]:
    """A point as a tuple of floats; a real number is a point of dimension 1."""
    return (float(x),) if isinstance(x, numbers.Real) else tuple(map(float, x))


def weierstrass(x, p: GaussianParams) -> float:
    """W_t(x) = (4 pi t)^(-n/2) exp(-|x|^2 / 4t)."""
    sq = math.fsum(v * v for v in _coords(x))
    return (4.0 * math.pi * p.t) ** (-p.n / 2.0) * math.exp(-sq / (4.0 * p.t))


def _kernel_1d(u: float, t: float) -> float:
    return (4.0 * math.pi * t) ** (-0.5) * math.exp(-u * u / (4.0 * t))


def _truncation_halfwidth(t: float) -> float:
    # 12 standard deviations of the squared-kernel Gaussian; discarded mass
    # is below exp(-144/2) of the total, far under any tolerance used here.
    return 12.0 * math.sqrt(2.0 * t)


_HP = 0.5 * math.pi


@lru_cache(maxsize=None)
def _nodes(rule: str, level: int) -> tuple[memoryview, ...]:
    """The transcendental parts of `quad`'s integrand at one level, computed
    once per process, each column packed as doubles: u = j/2 for |j| <= 9 at
    level 0, the odd multiples of 2^-(level+1) in |u| < 4.5 above it, and
    v = (pi/2) sinh u.  Columns: finite (tanh v, cosh u, cosh(v)^2), half
    (exp v, cosh u), whole (sinh v, cosh u, cosh v).  At most 11 levels per
    rule, 18,433 nodes."""
    h, n = 0.5 ** (level + 1), 9 << level
    rows = []
    for j in range(-n, n + 1) if level == 0 else range(1 - n, n, 2):
        u = j * h
        v = _HP * math.sinh(u)
        if rule == "finite":
            rows.append((math.tanh(v), math.cosh(u), math.cosh(v) ** 2))
        elif rule == "half":
            rows.append((math.exp(v), math.cosh(u)))
        else:
            rows.append((math.sinh(v), math.cosh(u), math.cosh(v)))
    return tuple(memoryview(struct.pack(f"{len(col)}d", *col)).cast("d") for col in zip(*rows))


def quad(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """int_a^b f and its error estimate by double-exponential quadrature
    (Takahasi & Mori, Publ. RIMS 9, 1974): tanh-sinh on a finite [a, b],
    exp-sinh on [a, inf), sinh-sinh on (-inf, inf).

    The trapezoid sum over |u| <= 4.5 halves its step each level from 1/2
    and returns once two successive levels, from the third on, differ by at
    most tol * max(1, |value|).  Raises QuadratureError when the end terms
    of the window exceed that, or when level 10 has not converged.
    """
    if b < math.inf:
        c, r = 0.5 * (a + b), 0.5 * (b - a)

        def terms(level):
            return [f(c + r * x) * r * _HP * w / d for x, w, d in zip(*_nodes("finite", level))]
    elif a > -math.inf:

        def terms(level):
            return [f(a + x) * _HP * w * x for x, w in zip(*_nodes("half", level))]
    else:

        def terms(level):
            return [f(x) * _HP * w * d for x, w, d in zip(*_nodes("whole", level))]

    h = 0.5
    level0 = terms(0)
    total = math.fsum(level0)
    value = total * h
    if (abs(level0[0]) + abs(level0[-1])) * h > tol * max(1.0, abs(value)):
        raise QuadratureError(f"quadrature window ends are not negligible at tol {tol}")
    for level in range(1, 11):
        h = 0.5 * h
        total += math.fsum(terms(level))
        prev, value = value, total * h
        if level >= 3 and abs(value - prev) <= tol * max(1.0, abs(value)):
            return value, abs(value - prev)
    raise QuadratureError(f"quadrature levels 9 and 10 differ by {abs(value - prev):.3e}, tol {tol}")


def _pair_integral_1d(a: float, b: float, t: float, quad_tol: float) -> float:
    """int w(a - u) w(b - u) du over a certified truncation window."""
    lo = min(a, b) - _truncation_halfwidth(t)
    hi = max(a, b) + _truncation_halfwidth(t)
    # quad stops on tol * max(1, |value|) and the value reaches 1/sqrt(8 pi t),
    # so scale tol by that peak to keep the error under the absolute gate
    scaled_tol = quad_tol / max(1.0, (8.0 * math.pi * t) ** -0.5)
    value, err = quad(lambda u: _kernel_1d(a - u, t) * _kernel_1d(b - u, t), lo, hi, scaled_tol)
    if err > 10.0 * quad_tol:
        raise QuadratureError(f"1d kernel product integral error estimate {err}")
    return value


def d_sq_quadrature(
    x: Sequence[float] | float,
    y: Sequence[float] | float,
    p: GaussianParams,
    quad_tol: float = 1e-10,
) -> float:
    """int |W_t(x - z) - W_t(y - z)|^2 dz by coordinate-factorized quadrature.

    Supported for n in {1, 2}.  Expanding the square gives three terms, each
    a product over coordinates of one-dimensional kernel-product integrals.
    """
    if p.n not in (1, 2):
        raise ValueError("quadrature route supports n in {1, 2}")
    xv, yv = _coords(x), _coords(y)
    if len(xv) != p.n or len(yv) != p.n:
        raise ValueError(f"points must have dimension {p.n}")
    per_dim_tol = quad_tol / (4.0 * p.n)
    xx = cross = yy = 1.0
    for d in range(p.n):
        xx *= _pair_integral_1d(xv[d], xv[d], p.t, per_dim_tol)
        cross *= _pair_integral_1d(xv[d], yv[d], p.t, per_dim_tol)
        yy *= _pair_integral_1d(yv[d], yv[d], p.t, per_dim_tol)
    return max(0.0, xx - 2.0 * cross + yy)


def rho_sq_quadrature(
    r: float, p: GaussianParams, quad_tol: float = 1e-10
) -> float:
    """The radial profile rho_t^2(r) by quadrature: distance squared between
    kernel slices centered at r*e1 and the origin."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0.0:
        return 0.0
    origin = (0.0,) * p.n
    return d_sq_quadrature((r,) + origin[1:], origin, p, quad_tol)


def rho_sq_closed(r: float, p: GaussianParams) -> float:
    """Closed form 2 (8 pi t)^(-n/2) (1 - exp(-r^2 / 8t)), obtained by
    integrating the derivative of the profile from 0 to r."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    return 2.0 * (8.0 * math.pi * p.t) ** (-p.n / 2.0) * (
        -math.expm1(-r * r / (8.0 * p.t))
    )


def rho_sq_derivative(r: float, p: GaussianParams) -> float:
    """d(rho_t^2)/dr = 4 (8 pi t)^(-n/2) exp(-r^2 / 8t) r / (8t)."""
    return (
        4.0
        * (8.0 * math.pi * p.t) ** (-p.n / 2.0)
        * math.exp(-r * r / (8.0 * p.t))
        * r
        / (8.0 * p.t)
    )


def rho(r: float, p: GaussianParams) -> float:
    return math.sqrt(rho_sq_closed(r, p))


def rho_inverse(value: float, p: GaussianParams) -> float:
    """Invert the strictly increasing profile in closed form:
    r = sqrt(-8t log1p(-value^2 / (2 (8 pi t)^(-n/2))))."""
    if value < 0:
        raise ValueError("profile values are nonnegative")
    sup_sq = 2.0 * (8.0 * math.pi * p.t) ** (-p.n / 2.0)
    supremum = math.sqrt(sup_sq)
    if value >= supremum:
        raise ValueError(f"profile value {value} at or above supremum {supremum}")
    return math.sqrt(-8.0 * p.t * math.log1p(-value * value / sup_sq))


def squared_ratio_limit(t1: float, t2: float, n: int) -> float:
    """The small-r limit of rho_{t1}^2 / rho_{t2}^2: (t2/t1)^(n/2 + 1)."""
    return (t2 / t1) ** (n / 2.0 + 1.0)
