"""Scalar special functions: log-gamma, Pochhammer symbols, binomials, Jacobi
polynomials, terminating Gauss hypergeometric sums, and integer-order modified
Bessel functions.

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
    "log_gamma",
    "pochhammer",
    "log_pochhammer",
    "binomial",
    "jacobi_p",
    "jacobi_p_log",
    "gauss_2f1_terminating",
    "gauss_2f1_b_equals_c",
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


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1.

    For a negative integer -n the product is exactly 0 once k > n.
    """
    if k < 0 or k != int(k):
        raise ValueError(f"pochhammer requires a nonnegative integer k, got {k}")
    out = 1.0
    for i in range(int(k)):
        out *= a + i
    return out


def log_pochhammer(a: float, k: int) -> float:
    """ln (a)_k for strictly positive base a, via gamma-function ratios."""
    if a <= 0:
        raise ValueError(f"log_pochhammer requires a > 0, got {a}")
    if k < 0:
        raise ValueError(f"log_pochhammer requires k >= 0, got {k}")
    return math.lgamma(a + k) - math.lgamma(a)


def binomial(x: float, k: int) -> float:
    """Generalized binomial coefficient C(x, k) for real x, integer k >= 0."""
    if k < 0 or k != int(k):
        raise ValueError(f"binomial requires a nonnegative integer k, got {k}")
    k = int(k)
    return pochhammer(x - k + 1, k) / math.factorial(k)


def jacobi_p_log(deg, a: float, b: float, x) -> tuple:
    """Jacobi polynomial P_deg^{(a,b)} in (log-magnitude, sign) form.

    Evaluated by the three-term recurrence in the degree with running
    rescaling, so values far beyond double range are representable.
    Accepts scalar or ndarray x.  ``deg`` is an integer or an integer
    array; one recurrence up to its largest entry yields every degree, and
    both returned arrays have shape ``deg.shape + x.shape``.  Degrees below
    zero evaluate to the zero function (the convention needed where
    repeated derivatives annihilate a polynomial).
    """
    xs = np.asarray(x, dtype=float)
    degs = np.asarray(deg)
    top = int(degs.max(initial=-1))
    level = np.ones((max(top, 0) + 1,) + xs.shape)    # P_k e^{-scale_k}, k <= top
    scale = np.zeros(level.shape)
    logscale = 0.0
    pprev = pcurr = level[0]
    if top >= 1:
        pcurr = level[1] = (a + 1) + (a + b + 2) * (xs - 1) / 2
    for nn in range(2, top + 1):
        c1 = 2 * nn * (nn + a + b) * (2 * nn + a + b - 2)
        c2 = 2 * nn + a + b - 1
        c3 = (2 * nn + a + b) * (2 * nn + a + b - 2)
        c4 = a * a - b * b
        c5 = 2 * (nn + a - 1) * (nn + b - 1) * (2 * nn + a + b)
        pnext = (c2 * (c3 * xs + c4) * pcurr - c5 * pprev) / c1
        pprev, pcurr = pcurr, pnext
        big = np.abs(pcurr) > _BIG
        if big.any():
            pcurr = np.where(big, pcurr / _BIG, pcurr)
            pprev = np.where(big, pprev / _BIG, pprev)
            logscale = np.where(big, logscale + _LOG_BIG, logscale)
        level[nn], scale[nn] = pcurr, logscale
    with np.errstate(divide="ignore"):
        logmag = np.log(np.abs(level)) + scale
    take = np.maximum(degs, 0)
    logmag, sign = logmag[take], np.sign(level[take])
    if degs.min(initial=0) < 0:
        zero = (degs < 0).reshape(degs.shape + (1,) * xs.ndim)
        logmag, sign = np.where(zero, -np.inf, logmag), np.where(zero, 0.0, sign)
    return logmag, sign


def jacobi_p(deg: int, a: float, b: float, x):
    """Jacobi polynomial P_deg^{(a,b)}(x) for deg >= 0 and a, b > -1."""
    if deg < 0 or deg != int(deg):
        raise ValueError(f"jacobi_p requires a nonnegative integer degree, got {deg}")
    if a <= -1 or b <= -1:
        raise ValueError(f"jacobi_p requires a, b > -1, got a={a}, b={b}")
    logmag, sign = jacobi_p_log(int(deg), a, b, x)
    out = sign * np.exp(logmag)
    return float(out) if np.ndim(x) == 0 else out


def gauss_2f1_terminating(a: float, neg_int: int, c: float, z: float) -> float:
    """2F1(a, -N; c; z) summed directly over its N+1 terms.

    The second numerator parameter must be a nonpositive integer, which
    terminates the series.  A shared running scale factor keeps partial
    sums inside double range for large parameters.
    """
    if neg_int > 0 or neg_int != int(neg_int):
        raise ValueError(f"second parameter must be a nonpositive integer, got {neg_int}")
    nterms = int(-neg_int)
    if c == int(c) and -nterms < c <= 0:
        raise ValueError(f"c={c} hits a pole inside the {nterms + 1}-term sum")
    term = 1.0
    total = 1.0
    scale_log = 0.0
    for k in range(nterms):
        term *= (a + k) * (neg_int + k) * z / ((c + k) * (k + 1))
        total += term
        if abs(total) > _BIG or abs(term) > _BIG:
            term /= _BIG
            total /= _BIG
            scale_log += _LOG_BIG
    return total * math.exp(scale_log)


def gauss_2f1_b_equals_c(a: float, z: float) -> float:
    """2F1(a, b; b; z) = (1-z)^(-a), the binomial collapse of the series."""
    if z >= 1:
        raise ValueError(f"requires z < 1, got {z}")
    return (1.0 - z) ** (-a)


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
