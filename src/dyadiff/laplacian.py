"""The dyadic fractional Laplacian and its heat semigroup.

The operator is the singular integral of (f(y) - f(x)) / delta(x, y)^(1+s).
Relative to a fixed point x, delta(x, .) is constant on each ring
J_m \\ J_{m+1} along the chain of intervals containing x, and every piece
of a piecewise dyadic-constant f lies in exactly one ring or contains x.
The operator is then one sum over the ring masses plus a geometric series
for the rings above the piece containing x, summed in closed form, so no
quadrature error enters this module at all.

The semigroup acts diagonally on Haar coefficients with multiplier
exp(-t |I|^-s); the pointwise kernel-integral route is implemented
independently and must agree with it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .dyadic import (
    DyadicInterval,
    DyadicPoint,
    haar_eval,
    interval_containing,
    pow2_half,
    value_type,
)
from .exceptions import ExpansionParseError, ResidualTooLarge
from .spectral import DEFAULT_TRUNC, DiffusionParams, TruncationPolicy, _pow2


class PiecewiseDyadicFunction(value_type("PiecewiseDyadicFunction", "pieces")):
    """Finite sum of constants on pairwise disjoint dyadic intervals, 0 elsewhere:
    `pieces` is a tuple of (DyadicInterval, float) pairs."""

    __slots__ = ()

    def __new__(cls, pieces: tuple[tuple[DyadicInterval, float], ...]) -> "PiecewiseDyadicFunction":
        # on the finest grid, sorted by left end, each piece must end by the next start
        top = max((p.level for p, _ in pieces), default=0)
        spans = sorted(
            ((p.index << (top - p.level), (p.index + 1) << (top - p.level), p)
             for p, _ in pieces),
            key=lambda span: span[0],
        )
        for (_, end, a), (start, _, b) in zip(spans, spans[1:]):
            if end > start:
                raise ValueError(f"pieces {a} and {b} overlap")
        return tuple.__new__(cls, (pieces,))

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[DyadicInterval, float]]
    ) -> "PiecewiseDyadicFunction":
        return cls(tuple((i, float(v)) for i, v in pairs if v != 0.0))

    def evaluate(self, x: DyadicPoint) -> float:
        for interval, value in self.pieces:
            if interval.contains(x):
                return value
        return 0.0

    def integral_over(self, region: DyadicInterval) -> float:
        """Exact integral of f over a dyadic interval (overlap lengths are exact)."""
        return math.fsum(
            value * float(region.overlap_length(piece))
            for piece, value in self.pieces
        )

    def total_abs_integral(self) -> float:
        return math.fsum(abs(v) * float(p.length) for p, v in self.pieces)


def haar_function(I: DyadicInterval) -> PiecewiseDyadicFunction:
    """h_I as a two-piece function."""
    magnitude = pow2_half(I.level)
    return PiecewiseDyadicFunction(
        ((I.left_child(), magnitude), (I.right_child(), -magnitude))
    )


def _rings(
    f: PiecewiseDyadicFunction, x: DyadicPoint
) -> tuple[float, int | None, dict[int, float]]:
    """f(x), the level of the piece containing x (None if none) and the
    scaled ring masses 2^m W_m, W_m = int f over J(m) \\ J(m+1), in one pass
    over the pieces.

    A level-p piece of index k that misses x lies in ring p - bitlength(k ^ k_x),
    k_x the level-p index of x: the level where the two first share an interval.
    Its share of 2^m W_m, v 2^(m-p), cannot overflow: m < p.
    """
    fx, own, parts = 0.0, None, {}
    for piece, value in f.pieces:
        k_x = interval_containing(x, piece.level).index
        if k_x == piece.index:
            fx, own = value, piece.level
        else:
            m = piece.level - (k_x ^ piece.index).bit_length()
            parts.setdefault(m, []).append(math.ldexp(value, m - piece.level))
    return fx, own, {m: math.fsum(v) for m, v in parts.items()}


def apply_laplacian(f: PiecewiseDyadicFunction, x: DyadicPoint, s: float) -> float:
    """Evaluate the fractional Laplacian of order s > 0 at x.

    Ring sum: D f(x) = sum_j 2^(j(1+s)) * int_{J(j) \\ J(j+1)} (f - f(x)).
    Rings inside the piece containing x (level `own`) give 0; every ring
    above it carries its mass W_j and -f(x) 2^(j s - 1), the latter summed
    over j < own as an exact geometric series.
    """
    if not (s > 0.0):
        raise ValueError("fractional order s must be positive")
    fx, own, rings = _rings(f, x)
    # 2^(m(1+s)) W_m = 2^(ms) (2^m W_m): no factor leaves the double range
    # unless the term itself does
    terms = [_pow2(m * s) * w for m, w in rings.items()]
    if own is not None:
        terms.append(-fx * 0.5 * _pow2((own - 1) * s) / (1.0 - _pow2(-s)))
    return math.fsum(terms)


def haar_eigenvalue(
    I: DyadicInterval,
    s: float,
    samples: int = 16,
    residual_tol: float = 1e-10,
) -> float:
    """The positive lambda with D^s h_I = -lambda * h_I, measured pointwise.

    The eigenrelation is exact for Haar functions; a residual above tolerance
    at any sample point signals an implementation bug, not a truncation
    artifact.
    """
    f = haar_function(I)
    points = [
        DyadicPoint.from_fraction(I.lower + Fraction(2 * i + 1, 2 * samples) * I.length)
        for i in range(samples)
    ]
    heights = [f.evaluate(p) for p in points]
    values = [-apply_laplacian(f, p, s) / h for p, h in zip(points, heights)]
    lam = math.fsum(values) / len(values)
    # |D^s h(p) + lam h(p)| = |h(p)| |lam - v_p| for each measured v_p
    residual = max(abs(h) * abs(lam - v) for h, v in zip(heights, values))
    if residual > residual_tol:
        raise ResidualTooLarge(
            f"eigenrelation residual {residual} exceeds {residual_tol} on {I}"
        )
    return lam


class HaarExpansion(value_type("HaarExpansion", "coefficients")):
    """Finite sparse Haar coefficient map: `coefficients` is a tuple of
    (DyadicInterval, float) pairs, one per interval."""

    __slots__ = ()

    def __new__(cls, coefficients: tuple[tuple[DyadicInterval, float], ...]) -> "HaarExpansion":
        seen = set()
        for interval, _ in coefficients:
            if interval in seen:
                raise ValueError(f"duplicate coefficient for {interval}")
            seen.add(interval)
        return tuple.__new__(cls, (coefficients,))

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[DyadicInterval, float]]
    ) -> "HaarExpansion":
        return cls(tuple((i, float(c)) for i, c in pairs))

    def evaluate(self, x: DyadicPoint) -> float:
        return math.fsum(c * haar_eval(I, x) for I, c in self.coefficients)

    def to_piecewise(self) -> PiecewiseDyadicFunction:
        """Exact synthesis on the finest dyadic grid touched by any wavelet."""
        if not self.coefficients:
            return PiecewiseDyadicFunction(())
        grid_level = max(I.level for I, _ in self.coefficients) + 1
        cells: dict[int, list[float]] = {}
        for I, c in self.coefficients:
            magnitude = c * pow2_half(I.level)
            span = 1 << (grid_level - I.level - 1)
            left_start = 2 * I.index * span
            for k in range(left_start, left_start + span):
                cells.setdefault(k, []).append(magnitude)
            for k in range(left_start + span, left_start + 2 * span):
                cells.setdefault(k, []).append(-magnitude)
        pieces = []
        for k, vals in sorted(cells.items()):
            v = math.fsum(vals)
            if v != 0.0:
                pieces.append((DyadicInterval(grid_level, k), v))
        return PiecewiseDyadicFunction(tuple(pieces))


def haar_coefficient(f: PiecewiseDyadicFunction, I: DyadicInterval) -> float:
    """The exact inner product of f with h_I."""
    half_diff = f.integral_over(I.left_child()) - f.integral_over(I.right_child())
    return pow2_half(I.level) * half_diff


def expand(
    f: PiecewiseDyadicFunction, level_min: int, level_max: int
) -> HaarExpansion:
    """Haar coefficients of f on every interval of levels [level_min, level_max]
    meeting the support.  Exact; for mean-zero f of finite depth the
    round-trip through to_piecewise reproduces f."""
    pairs = []
    for j in range(level_min, level_max + 1):
        indices = set()
        for piece, _ in f.pieces:
            if piece.level >= j:
                indices.add(piece.index >> (piece.level - j))
            else:
                start = piece.index << (j - piece.level)
                indices.update(range(start, start + (1 << (j - piece.level))))
        for k in sorted(indices):
            c = haar_coefficient(f, DyadicInterval(j, k))
            if c != 0.0:
                pairs.append((DyadicInterval(j, k), c))
    return HaarExpansion.from_pairs(pairs)


def evolve_spectral(f: HaarExpansion, params: DiffusionParams) -> HaarExpansion:
    """Diagonal semigroup action: each coefficient on I picks up
    exp(-t |I|^-s) = exp(-t 2^(j s)), which is 0 once 2^(j s) overflows."""
    s, t = params.s, params.t
    return HaarExpansion.from_pairs(
        (I, c * math.exp(-t * _pow2(I.level * s))) for I, c in f.coefficients
    )


def evolve_pointwise(
    f: PiecewiseDyadicFunction,
    x: DyadicPoint,
    params: DiffusionParams,
    trunc: TruncationPolicy = DEFAULT_TRUNC,
) -> float:
    """u(x, t) = int K_s(x, y; t) f(y) dy via the chain structure of the kernel.

    Only wavelets containing x pair nonzero with the kernel slice, so the sum
    runs over the chain J(j) of intervals containing x.  The term at level j
    is exp(-t 2^(j s)) 2^j (F_{j+1} - W_j), with F_{j+1} = int f over J(j+1)
    and W_j the mass of the ring J(j) \\ J(j+1); it vanishes inside the piece
    containing x.  2^j F_{j+1} is carried down the chain by halving.  At
    coarse levels each term is bounded by 2^j * int|f|, giving a certified
    geometric left tail.
    """
    s, t = params.s, params.t
    mass = f.total_abs_integral()
    if mass == 0.0:
        return 0.0
    # include levels down to j_low so the discarded tail sum_{j<j_low} 2^j * mass
    # is below tail_tol
    j_low = min(0, math.floor(math.log2(trunc.tail_tol / mass)))
    fx, own, rings = _rings(f, x)
    # inner = 2^j F_{j+1}; rings hold 2^j W_j
    inner, top = (0.0, max(rings)) if own is None else (0.5 * fx, own - 1)
    terms = []
    for j in range(top, j_low - 1, -1):
        w = rings.get(j, 0.0)
        terms.append(math.exp(-t * _pow2(j * s)) * (inner - w))
        inner = 0.5 * (inner + w)
    return math.fsum(terms)


def format_expansion(f: HaarExpansion) -> str:
    """Serialize as one `j k coefficient` record per line."""
    lines = ["# level index coefficient"]
    for I, c in sorted(f.coefficients, key=lambda p: (p[0].level, p[0].index)):
        lines.append(f"{I.level} {I.index} {c!r}")
    return "\n".join(lines) + "\n"


def parse_expansion(text: str) -> HaarExpansion:
    """Parse the `j k coefficient` line format; `#` starts a comment."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ExpansionParseError(lineno, f"expected 3 fields, got {len(fields)}")
        try:
            level, index = int(fields[0]), int(fields[1])
            coeff = float(fields[2])
        except ValueError as exc:
            raise ExpansionParseError(lineno, str(exc)) from None
        try:
            pairs.append((DyadicInterval(level, index), coeff))
        except ValueError as exc:
            raise ExpansionParseError(lineno, str(exc)) from None
    return HaarExpansion.from_pairs(pairs)
