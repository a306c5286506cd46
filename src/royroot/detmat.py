"""Scaled determinants of small dense matrices, through numpy's LAPACK.

Dimensions are capped at 64, the envelope within which the double-precision
accuracy claims of this package were validated.
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import LogScaled

__all__ = [
    "MAX_DIM",
    "det_scaled",
]

MAX_DIM = 64


def _as_square(M, name: str) -> np.ndarray:
    A = np.asarray(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if A.shape[0] > MAX_DIM:
        raise ValueError(f"{name} dimension {A.shape[0]} exceeds the cap {MAX_DIM}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} must have finite entries")
    return A


def det_scaled(M) -> LogScaled:
    """Determinant of a real square matrix as sign + log magnitude.

    Rows are rescaled by their max magnitude before the pivoted LU, and the
    scales are folded back into the log magnitude, so entries spanning
    hundreds of orders of magnitude are handled without overflow.
    """
    A = _as_square(M, "matrix").astype(float)
    if A.shape[0] == 0:
        return LogScaled(0.0, 1)
    rowmax = np.abs(A).max(axis=1)
    if np.any(rowmax == 0.0):
        return LogScaled(-math.inf, 0)
    sign, logabs = np.linalg.slogdet(A / rowmax[:, None])
    if sign == 0.0:
        return LogScaled(-math.inf, 0)
    return LogScaled(float(logabs + np.log(rowmax).sum()), int(sign))
