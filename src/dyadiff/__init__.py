"""Fractional dyadic diffusion geometry on the half-line.

Exact dyadic distance and Haar analysis, the heat-kernel diffusion metric
d_t = psi_t(delta) with its dyadic-interval balls, the dyadic fractional
Laplacian, and the Euclidean Gaussian baseline metric.
"""

from .dyadic import (
    DyadicInterval,
    DyadicPoint,
    dyadic_distance,
    haar_eval,
    interval_containing,
    smallest_common_interval,
)
from .exceptions import (
    CapExceeded,
    DyadiffError,
    ExpansionParseError,
    LevelRangeError,
    QuadratureError,
    ResidualTooLarge,
)
from .gaussian import (
    GaussianParams,
    rho,
    rho_inverse,
    rho_sq_closed,
    rho_sq_quadrature,
    weierstrass,
)
from .laplacian import (
    HaarExpansion,
    PiecewiseDyadicFunction,
    apply_laplacian,
    evolve_pointwise,
    evolve_spectral,
    haar_eigenvalue,
)
from .spectral import (
    Ball,
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
    sandwich,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "CapExceeded",
    "DiffusionParams",
    "DyadicInterval",
    "DyadicPoint",
    "DyadiffError",
    "ExpansionParseError",
    "GaussianParams",
    "HaarExpansion",
    "LevelRangeError",
    "PiecewiseDyadicFunction",
    "QuadratureError",
    "ResidualTooLarge",
    "TruncationPolicy",
    "apply_laplacian",
    "ball",
    "ball_radius_transfer",
    "c_t_s",
    "distance_closed",
    "distance_spectral",
    "dyadic_distance",
    "evolve_pointwise",
    "evolve_spectral",
    "haar_eigenvalue",
    "haar_eval",
    "interval_containing",
    "kernel_K",
    "log_psi_sq",
    "log_psi_sq_increment",
    "psi",
    "psi_infinity",
    "sandwich",
    "rho",
    "rho_inverse",
    "rho_sq_closed",
    "rho_sq_quadrature",
    "smallest_common_interval",
    "weierstrass",
]
