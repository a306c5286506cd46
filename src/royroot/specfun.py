"""Special functions: log Pochhammer symbols, Jacobi polynomials in log form,
and integer-order modified Bessel functions.

Large factorial ratios are composed on the natural-log scale (see
:class:`LogScaled`); raw factorials above 170 are never formed.  All
functions are pure and safe for concurrent callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LogScaled",
    "log_pochhammer",
    "jacobi_p_log",
    "bessel_i",
]

# rescale bound for running-magnitude schemes; well inside double range
_BIG = 1e250
_LOG_BIG = math.log(_BIG)


@dataclass(frozen=True)
class LogScaled:
    """A real value stored as sign and natural-log magnitude.

    ``sign == 0`` means the value is exactly zero; ``log_magnitude`` is
    then ignored.  Multiplication adds log magnitudes and multiplies signs,
    so products of hundreds of factorial-sized factors never overflow.
    """

    log_magnitude: float
    sign: int

    @classmethod
    def from_value(cls, v: float) -> "LogScaled":
        if v == 0.0:
            return cls(-math.inf, 0)
        return cls(math.log(abs(v)), 1 if v > 0 else -1)

    def value(self) -> float:
        """Convert back to a plain float; may overflow to inf by design."""
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_magnitude)

    def __mul__(self, other: "LogScaled") -> "LogScaled":
        if self.sign == 0 or other.sign == 0:
            return LogScaled(-math.inf, 0)
        return LogScaled(self.log_magnitude + other.log_magnitude,
                         self.sign * other.sign)


def log_pochhammer(a: float, k: int) -> float:
    """ln (a)_k for strictly positive base a, via gamma-function ratios."""
    if a <= 0:
        raise ValueError(f"log_pochhammer requires a > 0, got {a}")
    if k < 0:
        raise ValueError(f"log_pochhammer requires k >= 0, got {k}")
    return math.lgamma(a + k) - math.lgamma(a)


def jacobi_p_log(deg, a, b, x) -> tuple:
    """Jacobi polynomial P_deg^{(a,b)} in (log-magnitude, sign) form.

    Evaluated by the three-term recurrence in the degree with running
    rescaling, so values far beyond double range are representable.
    Accepts scalar or ndarray x.  ``deg`` is an integer or an integer
    array; one recurrence up to its largest entry yields every degree, and
    both returned arrays have shape ``deg.shape + x.shape``.  Degrees below
    zero evaluate to the zero function (the convention needed where
    repeated derivatives annihilate a polynomial).

    ``a`` and ``b`` may also be 1-D arrays, one parameter pair per column:
    the last axis of ``deg`` then runs over the pairs, and one recurrence
    carries them all, its coefficients tabulated for every step before the
    loop.  Each value sees the float operations, in the order, of a call
    with its pair alone.
    """
    xs = np.asarray(x, dtype=float)
    one_pair = np.ndim(a) == np.ndim(b) == 0
    a, b = (np.reshape(v, (-1,) + (1,) * xs.ndim) for v in (a, b))   # (pair, x...)
    count = max(len(a), len(b))
    degs = np.asarray(deg)[..., None] if one_pair else np.asarray(deg)
    top = int(degs.max(initial=-1))
    # level[k] = P_k e^{-scale_k} for k <= top; the last row is the zero
    # function, which negative degrees read
    level = np.empty((max(top, 0) + 2, count) + xs.shape)
    level[0], level[-1] = 1.0, 0.0
    scale, logscale = None, 0.0          # both arrays from the first rescaling on
    pprev = pcurr = level[0]
    if top >= 1:
        pcurr = level[1] = (a + 1) + (a + b + 2) * (xs - 1) / 2
    if top >= 2:
        nn = np.arange(2, top + 1).reshape((-1, 1) + (1,) * xs.ndim)
        s2 = 2 * nn + a + b              # the common prefix: each c groups as in its formula
        c1 = (2 * nn * (nn + a + b) * (s2 - 2)).astype(float)
        c5 = (2 * (nn + a - 1) * (nn + b - 1) * s2).astype(float)
        lead = (s2 - 1) * (s2 * (s2 - 2) * xs + (a * a - b * b))   # c2 (c3 x + c4), every step
    for s, nn in enumerate(range(2, top + 1)):
        pnext = np.multiply(lead[s], pcurr, out=level[nn])
        pnext -= c5[s] * pprev
        pnext /= c1[s]
        pprev, pcurr = pcurr, pnext
        big = np.abs(pcurr) > _BIG
        if big.any():
            pcurr = level[nn] = np.where(big, pcurr / _BIG, pcurr)
            pprev = np.where(big, pprev / _BIG, pprev)
            logscale = np.where(big, logscale + _LOG_BIG, logscale)
            if scale is None:
                scale = np.zeros(level.shape)
        if scale is not None:
            scale[nn] = logscale
    take = (np.where(degs < 0, -1, degs), np.arange(count))
    logmag = level[take]
    sign = np.sign(logmag)
    with np.errstate(divide="ignore"):
        np.log(np.abs(logmag, out=logmag), out=logmag)
    if scale is not None:
        logmag += scale[take]
    if one_pair:
        shape = np.shape(deg) + xs.shape
        return logmag.reshape(shape)[()], sign.reshape(shape)[()]
    return logmag, sign


def bessel_i(order: int, z: float) -> float:
    """Modified Bessel function I_order(z) by its ascending power series.

    Integer orders only; I_{-k} = I_k.  The series has positive terms, so
    no cancellation occurs and accuracy is limited only by term count.
    """
    if order != int(order):
        raise ValueError(f"bessel_i requires an integer order, got {order}")
    if z < 0:
        raise ValueError(f"bessel_i requires z >= 0, got {z}")
    k = abs(int(order))
    q = z * z / 4.0
    term = math.exp(k * math.log(z / 2.0) - math.lgamma(k + 1)) if z > 0 else (1.0 if k == 0 else 0.0)
    total = term
    j = 0
    while j < 5 or term > 1e-18 * total:
        j += 1
        term *= q / (j * (j + k))
        total += term
        if j > 10_000:
            break
    return total
