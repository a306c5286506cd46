"""Detector operating characteristics built on the exact eigenvalue CDFs:
false-alarm calibration, detection probability, the closed-form m = n ROC,
optimal sample-count analysis, the low-SNR expansion, and asymptotic ROCs.

Thresholds are calibrated against the null CDF of the test statistic (the
p/n-rescaled largest eigenvalue) and reported in that scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .finite_cdf import (ProblemDims, SpikeParam, _clamped, _logit_table, _minor_grid,
                         _null_logit, cdf_test_statistic)
from .finite_cdf import cdf_null  # noqa: F401  not called here; perfbench/selftest.py traces roc.cdf_null

__all__ = [
    "BracketingError",
    "RocPoint",
    "RocCurve",
    "calibrate_threshold",
    "detection_probability",
    "roc_closed_form_alpha0",
    "roc_curve",
    "pstar_bounds",
    "pstar_approx",
    "optimize_pstar",
    "low_snr_slope",
    "low_snr_slope_balanced",
    "asymptotic_roc_p_infinity",
    "asymptotic_roc_scaled",
    "snr_from_db",
    "snr_to_db",
]

_TOL = 1e-12                      # stop at |logit F0(T) - logit(1 - P_F)| <= this; then
                                  # |F0(T) - (1 - P_F)| <= this is checked too
_LOG_T_LIMIT = 80 * math.log(4)   # roots beyond T = 4^-80 and 4^80 raise BracketingError
_MAX_STEPS = 100                  # bisection alone reaches adjacent floats in about 60
_TABLE_NODES = 1281               # logit F0 tabled at log T nodes ln 4 / 8 apart, per dims


class BracketingError(RuntimeError):
    """Calibration failed to bracket or reach its root; signals out-of-envelope inputs."""


@dataclass(frozen=True)
class RocPoint:
    p_false_alarm: float
    p_detection: float
    threshold: float

    def __post_init__(self):
        if not 0.0 <= self.p_false_alarm <= 1.0:
            raise ValueError(f"p_false_alarm out of [0,1]: {self.p_false_alarm}")
        if not 0.0 <= self.p_detection <= 1.0:
            raise ValueError(f"p_detection out of [0,1]: {self.p_detection}")
        if not self.threshold > 0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")


@dataclass(frozen=True)
class RocCurve:
    dims: ProblemDims
    gamma: float
    points: tuple

    def __post_init__(self):
        pf = [pt.p_false_alarm for pt in self.points]
        if any(b <= a for a, b in zip(pf, pf[1:])):
            raise ValueError("points must be strictly increasing in p_false_alarm")


def snr_from_db(db: float) -> float:
    return 10.0 ** (db / 10.0)


def snr_to_db(gamma: float) -> float:
    if gamma <= 0:
        raise ValueError(f"linear SNR must be positive to convert to dB, got {gamma}")
    return 10.0 * math.log10(gamma)


def _warm_start(dims: ProblemDims, target: np.ndarray) -> np.ndarray:
    """log T at which each Newton solve starts: cubic Hermite interpolation of
    log T against logit F0 on the interval of the per-dims table (1281 log T
    nodes ln 4 / 8 apart, from -80 ln 4 to 80 ln 4) that brackets the target,
    with dlog T/dlogit = 1/slope at the knots.  The interpolation parameter
    is clipped to [0, 1] and the start to the interval, so a target beyond
    the table starts exactly at the nearer end."""
    nodes, table, slope = _logit_table(dims.m, dims.n, dims.p, _LOG_T_LIMIT, _TABLE_NODES)
    i = np.searchsorted(table[1:-1], target)      # interval [i, i+1], the end ones if beyond
    j = i + 1
    x0, x1, y0 = nodes[i], nodes[j], table[i]
    h = table[j] - y0
    s = np.minimum(np.maximum((target - y0) / h, 0.0), 1.0)
    r = 1.0 - s
    x = x0 + s * s * (3.0 - 2.0 * s) * (x1 - x0) + s * r * h * (r / slope[i] - s / slope[j])
    return np.minimum(np.maximum(x, x0), x1)


def _invert_null_cdf(dims: ProblemDims, p_false_alarm) -> np.ndarray:
    """Solve cdf_null(dims, T) = 1 - P_F for T (F-matrix scale), elementwise.

    Newton's method on g = logit F0(T) - logit(1 - P_F) against log T, with
    g and its slope taken from exact positive sums (finite_cdf._null_logit,
    one pass per step for all unfinished elements), so a stop at
    |g| <= 1e-12 meets both P_F and 1 - P_F to about 1e-12 relative.  Each
    solve starts within about 1e-6 of its root in log T, at
    :func:`_warm_start`'s Hermite interpolant of the per-dims logit table,
    so most finish on their second evaluation.  A step that would leave the bracket fixed by the signs of g
    seen so far bisects instead; one past T = 4^+-80 goes to that limit, and
    a residual there that still points outward raises BracketingError.  The
    active set shrinks only on steps where an element finishes, and the loop
    stops once all have.  The last evaluation of each element also gives
    F0(T), bit for bit :func:`cdf_null`'s value, which must then lie in
    [0, 1] up to the CDFs' slack (else ConditioningError) and within 1e-12 of
    1 - P_F (else BracketingError).
    """
    pf = np.asarray(p_false_alarm, dtype=float).ravel()
    out, idx = np.empty(pf.size), np.arange(pf.size)      # idx: elements still being solved
    if not pf.size:
        return out
    f0 = np.empty(pf.size)                                # F0(out), for the final check
    target = np.log1p(-pf) - np.log(pf)
    x = _warm_start(dims, target)
    lo, hi = np.full(pf.size, -np.inf), np.full(pf.size, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_STEPS):
            t = np.exp(x)
            logit, slope, cdf = _null_logit(dims, t)
            g = logit - target
            done = np.abs(g) <= _TOL
            edge = np.abs(x) == _LOG_T_LIMIT
            if np.count_nonzero(edge):
                for k in np.flatnonzero(edge & (g * x < 0) & ~done):
                    raise BracketingError(f"no {'lower' if x[k] < 0 else 'upper'} bracket: cdf("
                                          f"{t[k]:.3g}) has logit {logit[k]:.6g}, not {target[k]:.6g}")
            finished = np.count_nonzero(done)
            if finished:
                out[idx[done]], f0[idx[done]] = t[done], cdf[done]
                if finished == done.size:
                    break
                active = ~done
                idx, target, x, g, slope, lo, hi = (v[active] for v in (idx, target, x, g, slope,
                                                                          lo, hi))
            lo, hi = np.where(g < 0, x, lo), np.where(g > 0, x, hi)
            x = np.minimum(np.maximum(x - g / slope, -_LOG_T_LIMIT), _LOG_T_LIMIT)
            inside = (lo < x) & (x < hi)
            if np.count_nonzero(inside) < inside.size:
                mid = 0.5 * (np.fmax(lo, -_LOG_T_LIMIT) + np.fmin(hi, _LOG_T_LIMIT))
                x = np.where(inside, x, mid)
        else:
            raise BracketingError(f"no convergence in {_MAX_STEPS} steps on "
                                  f"[{np.exp(lo[0]):.17g}, {np.exp(hi[0]):.17g}]")
    miss = np.abs(_clamped(f0, out) - (1.0 - pf)) > _TOL
    if miss.any():
        raise BracketingError(f"T = {out[miss][0]:.17g} misses 1 - P_F by more than {_TOL}")
    return out


def calibrate_threshold(dims: ProblemDims, p_false_alarm):
    """Threshold mu with Pr(statistic > mu | no signal) = p_false_alarm.

    Reported in the test-statistic scale; kappa * mu, kappa = p/n, is the
    F-matrix threshold T.  The solve stops at |logit F0(T) - logit(1 - P_F)|
    <= 1e-12, which meets both P_F and 1 - P_F to about 1e-12 relative, far
    into either tail; a root beyond T = 4^-80 or 4^80 raises BracketingError.
    The solve starts at a Hermite interpolant of a per-dims table of logit
    F0 and its slope (see :func:`_warm_start`), which the first call at new
    dims builds, and evaluates both exact sums in one pass per step.
    Accepts a scalar or an array of targets; an array is calibrated in one
    solve, each element exactly as it would be alone.
    """
    pf = np.asarray(p_false_alarm, dtype=float)
    bad = ~((0.0 < pf) & (pf < 1.0))
    if bad.any():
        raise ValueError(f"p_false_alarm must be in (0,1), got {pf[bad].flat[0]}")
    mu = _invert_null_cdf(dims, pf).reshape(pf.shape) / dims.kappa
    return float(mu) if np.ndim(p_false_alarm) == 0 else mu


def detection_probability(dims: ProblemDims, gamma: float, threshold):
    """Pr(statistic > threshold) under a spike of strength gamma.

    Accepts a scalar or an array of thresholds.
    """
    if not np.all(np.asarray(threshold) > 0):
        raise ValueError(f"threshold must be positive, got {threshold}")
    return 1.0 - cdf_test_statistic(dims, SpikeParam(gamma), threshold)


def roc_closed_form_alpha0(m: int, p: int, gamma: float, p_false_alarm: float) -> float:
    """Detection probability for the n = m detector in closed form:

        P_D = 1 - (1 - P_F) / (1 + gamma - gamma (1-P_F)^{1/(mp)})^p

    evaluated as -expm1(ln(1-P_F) - p ln(1 + gamma (1 - (1-P_F)^{1/(mp)}))),
    with each 1 - e^y formed by expm1 and each ln(1 + y) by log1p, so a
    small P_F or P_D keeps its relative accuracy.  P_F = 0 and 1 give 0
    and 1.
    """
    if not 0.0 <= p_false_alarm <= 1.0:
        raise ValueError(f"p_false_alarm out of [0,1]: {p_false_alarm}")
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if p_false_alarm in (0.0, 1.0):     # log1p(-1) raises
        return float(p_false_alarm)
    log_q = math.log1p(-p_false_alarm)
    return -math.expm1(log_q - p * math.log1p(gamma * -math.expm1(log_q / (m * p))))


def roc_curve(dims: ProblemDims, gamma: float, p_false_alarm_grid) -> RocCurve:
    """Calibrate and detect across a strictly increasing grid of P_F values.

    The whole grid is calibrated in one solve and detected in one CDF call.
    """
    grid = [float(v) for v in p_false_alarm_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("p_false_alarm grid must be strictly increasing")
    if grid and not (0.0 < grid[0] and grid[-1] < 1.0):
        raise ValueError("p_false_alarm grid must lie inside (0,1)")
    mu = calibrate_threshold(dims, np.array(grid))
    pd = detection_probability(dims, gamma, mu)
    return RocCurve(dims, gamma, tuple(map(RocPoint, grid, pd.tolist(), mu.tolist())))


def pstar_bounds(nu: float, gamma: float, p_false_alarm: float):
    """(lower, upper) bracket for the sample count maximizing P_D when m = nu*p.

        lower = sqrt(-ln(1-P_F) / (nu ln((g+6)/(g+1.5)))),
        upper = sqrt(-ln(1-P_F) / (nu ln((g+4)/(g+1.5)))),

    and lower < p* < upper for every finite g > 0, finite nu > 0 and P_F in
    (0,1); an infinite g or nu leaves no bracket (both ends are 0 or
    undefined) and raises ValueError.  The
    bracket is derived here from the n = m closed form of
    :func:`roc_closed_form_alpha0`; it is not a formula of the paper.

    Proof.  With a = -ln(1-P_F), x = a/(nu p^2) and u = 1 - e^{-x} the
    closed form reads P_D = 1 - (1-P_F) (1 + g u)^{-p}, so dP_D/dp has the
    sign of h(x) = ln(1+gu) - 2gx e^{-x}/(1+gu) = gu [A(gu) - B(u)]/(1+gu).
    Here A(v) = (1+v) ln(1+v)/v is increasing (A' = (v - ln(1+v))/v^2) and
    B(u) = -2(1-u) ln(1-u)/u = 2 - u - u^2/3 - u^3/6 - ... is decreasing
    (every term after the first is negative).  So h has one root x*, P_D
    is unimodal in p and p* = sqrt(a/(nu x*)).  The bracket is
    ln((g+4)/(g+1.5)) < x* < ln((g+6)/(g+1.5)), i.e. A < B at
    u = 2.5/(g+4) and A > B at u = 4.5/(g+6).  It uses, for y >= 0,

        2y/(2+y) <= ln(1+y) <= y(6+y)/(6+4y),
        ln(1+y) >= (6y+3y^2)/(6+6y+y^2)

    (each difference vanishes at 0 and has a non-negative derivative),
    at y = v = gu for A and at y = u/(1-u), where ln(1+y) = -ln(1-u), for B.
    At u = 2.5/(g+4): A(v) <= (1+v)(6+v)/(6+4v) < 4(1-u)/(2-u) <= B(u);
    times its positive denominator the middle inequality is
    36g^3 + 387g^2 + 568g + 384 > 0.  At u = 4.5/(g+6):
    A(v) >= (1+v)(6+3v)/(6+6v+v^2) > 2 - u - u^2/3 - u^3/6 >= B(u); the
    middle one becomes 16g^5 + 2136g^4 + 29844g^3 + 139293g^2 + 163944g
    + 7776 > 0.
    """
    if not (0 < nu < math.inf and 0 < gamma < math.inf and 0.0 < p_false_alarm < 1.0):
        raise ValueError("require finite nu > 0, finite gamma > 0 and p_false_alarm in (0,1)")
    top = -math.log1p(-p_false_alarm)
    lower = math.sqrt(top / (nu * math.log1p(4.5 / (gamma + 1.5))))
    upper = math.sqrt(top / (nu * math.log1p(2.5 / (gamma + 1.5))))
    return lower, upper


def pstar_approx(nu: float, gamma: float, p_false_alarm: float) -> float:
    """Midpoint of pstar_bounds, the working approximation to the optimum.

    It scales like sqrt(-ln(1-P_F)/nu) times a function of gamma alone and
    lies 2% to 10% above p* (measured on gamma in [1e-4, 1e6]).
    """
    lower, upper = pstar_bounds(nu, gamma, p_false_alarm)
    return 0.5 * (lower + upper)


def _golden_max(f, lo: float, hi: float, tol: float = 1e-10):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol * max(1.0, abs(a) + abs(b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def optimize_pstar(nu: float, gamma: float, p_false_alarm: float):
    """(continuous, integer) sample counts maximizing the m = nu*p closed form.

    P_D is unimodal in p (see :func:`pstar_bounds`), so golden-section search
    on [lower/2, 2*upper], an interval wider than the bracket, finds the
    continuous optimum; the integer optimum is the better of the neighbouring
    integers (at least 1).  Both maximize p ln(1 + g(1 - (1-P_F)^{1/(nu p^2)})),
    which is -ln(1-P_D) up to a constant and, unlike P_D, does not round to
    a flat 1 at large SNR.
    """
    lower, upper = pstar_bounds(nu, gamma, p_false_alarm)
    a = -math.log1p(-p_false_alarm)
    f = lambda p: p * math.log1p(-gamma * math.expm1(-a / (nu * p * p)))
    p_cont = _golden_max(f, lower / 2.0, 2.0 * upper)
    cands = {max(1, math.floor(p_cont)), max(1, math.ceil(p_cont))}
    p_int = max(cands, key=f)
    return p_cont, p_int


def low_snr_slope_balanced(m: int, p: int, p_false_alarm: float) -> float:
    """First-order coefficient of P_D(gamma) - P_F at gamma -> 0 for n = m:

        p [1 - (1-P_F)^{1/(mp)}] (1-P_F)

    evaluated through expm1 so it stays accurate as p grows without bound.
    """
    if not 0.0 < p_false_alarm < 1.0:
        raise ValueError(f"p_false_alarm must be in (0,1), got {p_false_alarm}")
    q = 1.0 - p_false_alarm
    return p * (-math.expm1(math.log1p(-p_false_alarm) / (m * p))) * q


def low_snr_slope(dims: ProblemDims, p_false_alarm: float) -> float:
    """First-order coefficient of P_D(gamma) - P_F at gamma -> 0.

    For n = m this is the closed form of :func:`low_snr_slope_balanced`.
    For n > m it is p times

        z - ((p+n)/(p+m)) w z
          + K(m,p,alpha) (p+n)!/(p+m+1)! w^{m(alpha+beta+m)+1} det[minor]

    with z = 1 - P_F, T the null quantile of the F-matrix eigenvalue at z,
    w = T/(1+T), and the minor the Jacobi-column determinant with the second
    row dropped (the row whose hypergeometric entry carries the first-order
    spike response).  The minor is an integer polynomial in 1/T with
    nonnegative coefficients, evaluated exactly as the null CDF is; as
    K (p+n)!/(p+m+1)! = (p+n) / ((p+m)(p+m+1) d_0), the last term is
    (p+n)/((p+m)(p+m+1)) times w^{N+1} e_2(1/T) / d_0.
    """
    if not 0.0 < p_false_alarm < 1.0:
        raise ValueError(f"p_false_alarm must be in (0,1), got {p_false_alarm}")
    m, n, p, alpha = dims.m, dims.n, dims.p, dims.alpha
    if alpha == 0:
        return low_snr_slope_balanced(m, p, p_false_alarm)
    z = 1.0 - p_false_alarm
    T = float(_invert_null_cdf(dims, p_false_alarm)[0])
    w = T / (1.0 + T)
    minor = _minor_grid(dims, 2, m * (n + p - m) + 1, np.array([T]))[0]
    term3 = (p + n) / ((p + m) * (p + m + 1)) * minor
    return p * (z - (p + n) / (p + m) * w * z + term3)


def asymptotic_roc_p_infinity(m: int, gamma: float, p_false_alarm: float) -> float:
    """Large-sample limit of the m = n ROC: P_D = 1 - (1-P_F)^{1 + gamma/m}."""
    if not 0.0 <= p_false_alarm <= 1.0:
        raise ValueError(f"p_false_alarm out of [0,1]: {p_false_alarm}")
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return -math.expm1((1.0 + gamma / m) * math.log1p(-p_false_alarm))


def asymptotic_roc_scaled(theta: float, p_false_alarm: float) -> float:
    """High-dimensional ROC with the spike scaling like theta * m:
    P_D = 1 - (1-P_F)^{1+theta}, independent of the m/p ratio."""
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    if not 0.0 <= p_false_alarm <= 1.0:
        raise ValueError(f"p_false_alarm out of [0,1]: {p_false_alarm}")
    return -math.expm1((1.0 + theta) * math.log1p(-p_false_alarm))
