"""Limiting CDFs of the centered and scaled largest eigenvalue.

As m, n, p grow with alpha = n - m, beta = p - m and the spike held fixed,
(1 + lambda_max)/m^2 converges in law to exp(-1/x) times an alpha x alpha
Toeplitz determinant of modified Bessel functions, independent of the spike.
When the spike also scales like theta * m (with m/n -> 1 and m/p -> c), the
limit is the simple exponential exp(-(1+theta)/(c x)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import bessel_i

__all__ = ["MAX_ALPHA", "AsymptoticRegime", "limit_cdf_fixed_alpha", "limit_cdf_scaled_snr"]

MAX_ALPHA = 16

# Beyond this Bessel argument the exp(-1/x) factor has already driven the
# product below double underflow: -1/x + alpha*z = -z^2/4 + alpha*z < -745
# for z > 400 and alpha <= 16.
_Z_CUTOFF = 400.0


@dataclass(frozen=True)
class AsymptoticRegime:
    """High-dimensional scaling: c = lim m/p in (0, 1], theta = lim eta/m >= 0."""

    c: float
    theta: float

    def __post_init__(self):
        if not 0.0 < self.c <= 1.0:
            raise ValueError(f"c must be in (0, 1], got {self.c}")
        if not self.theta >= 0.0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")


def limit_cdf_fixed_alpha(alpha: int, x: float) -> float:
    """exp(-1/x) * det[ I_{j-i}(2/sqrt(x)) ]_{alpha x alpha}; 1 for alpha = 0.

    The limit law of (1 + lambda_max)/m^2 at fixed alpha, beta and spike.
    """
    if alpha < 0 or alpha != int(alpha) or alpha > MAX_ALPHA:
        raise ValueError(f"alpha must be an integer in [0, {MAX_ALPHA}], got {alpha}")
    alpha = int(alpha)
    if not x > 0:
        raise ValueError(f"x must be positive, got {x}")
    if alpha == 0:
        return math.exp(-1.0 / x) if 1.0 / x < 745.0 else 0.0
    z = 2.0 / math.sqrt(x)
    if z > _Z_CUTOFF:
        return 0.0
    # Toeplitz in |j - i|, as I_{-k} = I_k: alpha Bessel values fill it
    values = np.array([bessel_i(k, z) for k in range(alpha)])
    order = np.arange(alpha)
    mat = values[np.abs(order[:, None] - order)]
    sign, logdet = np.linalg.slogdet(mat)
    if sign == 0.0:
        return 0.0
    val = sign * math.exp(min(-1.0 / x + logdet, 700.0))
    return float(min(max(val, 0.0), 1.0))


def limit_cdf_scaled_snr(regime: AsymptoticRegime, x: float) -> float:
    """exp(-(1+theta)/(c x)), the limit when the spike scales with m."""
    if not x > 0:
        raise ValueError(f"x must be positive, got {x}")
    arg = (1.0 + regime.theta) / (regime.c * x)
    return math.exp(-arg) if arg < 745.0 else 0.0
