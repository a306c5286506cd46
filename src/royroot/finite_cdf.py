"""Exact CDF of the largest eigenvalue of W1 W2^{-1} for independent complex
Wishart matrices, W1 carrying a rank-one spiked scale I + eta v v^H.

With alpha = n - m and beta = p - m, the CDF under the spike is a log-scaled
prefactor times an (alpha+1) x (alpha+1) determinant whose first column holds
terminating hypergeometric sums Phi_i(t, eta) and whose remaining columns hold
Pochhammer-weighted Jacobi polynomials Psi_{i,j}(t) evaluated at 2/t + 1:

    F(t; eta) = K(m,p,alpha) / ((p-1)! (1+eta)^p) * (t/(1+t))^{m(alpha+beta+m)}
                * det[ Phi_i(t,eta) | Psi_{i,j}(t) ]

Special cases dispatch to closed forms: eta = 0 drops the Phi column and
leaves an alpha x alpha determinant; n = m collapses everything to
(t/(1+t))^{mp} / (1 + eta/(1+t))^p.  All prefactors and entries are composed
in log space, and each determinant column is rescaled by its largest
magnitude before the pivoted LU so the pivots stay O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import detmat
from .specfun import LogScaled, jacobi_p_log, log_pochhammer

__all__ = [
    "ProblemDims",
    "SpikeParam",
    "ConditioningError",
    "psi_entry",
    "phi_entry",
    "psi_minor_determinant",
    "cdf_lambda_max",
    "cdf_lambda_max_general",
    "cdf_null",
    "cdf_test_statistic",
]

# CDF values may stray this far outside [0, 1] before we call it a bug
_SLACK = 1e-9


class ConditioningError(ArithmeticError):
    """The assembled CDF left [0, 1] by more than the allowed slack."""


@dataclass(frozen=True)
class ProblemDims:
    """Detector dimensions: m receivers, n noise-only and p signal samples.

    Requires n >= m and p >= m (sample covariances positive definite almost
    surely) and caps every dimension at 64, the validated numerical envelope.
    """

    m: int
    n: int
    p: int

    def __post_init__(self):
        for name, v in (("m", self.m), ("n", self.n), ("p", self.p)):
            if v != int(v) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v}")
            if v > detmat.MAX_DIM:
                raise ValueError(f"{name}={v} exceeds the cap m,n,p <= {detmat.MAX_DIM}")
        if self.n < self.m or self.p < self.m:
            raise ValueError(f"need n >= m and p >= m, got (m,n,p)=({self.m},{self.n},{self.p})")

    @property
    def alpha(self) -> int:
        return self.n - self.m

    @property
    def beta(self) -> int:
        return self.p - self.m

    @property
    def kappa(self) -> float:
        """Scale factor p/n relating test-statistic eigenvalues to F-matrix ones."""
        return self.p / self.n

    @property
    def nu(self) -> float:
        return self.m / self.p


@dataclass(frozen=True)
class SpikeParam:
    """Rank-one perturbation strength; equals the SNR under the alternative."""

    eta: float

    def __post_init__(self):
        if not (self.eta >= 0.0) or math.isnan(self.eta):
            raise ValueError(f"eta must be >= 0, got {self.eta}")


# ---------------------------------------------------------------------------
# log-scale entry evaluation, vectorized over t
# ---------------------------------------------------------------------------

def _log_psi_block(dims: ProblemDims, rows, ts: np.ndarray):
    """(log|.|, sign) of the Psi block: rows i in ``rows``, columns j = 2..alpha+1.

    Psi_{i,j}(t) = (m+i+beta-1)_{j-2} P_{m+i-j}^{(j-2, beta+j-2)}(2/t+1).  Within a
    column the Jacobi parameters are fixed and only the degree moves with the
    row, so one recurrence per column yields the whole column.  Both arrays
    have shape ts.shape + (len(rows), alpha).
    """
    m, beta, alpha = dims.m, dims.beta, dims.alpha
    rows = list(rows)
    cols = range(2, alpha + 2)
    x = 2.0 / ts + 1.0
    logmag = np.empty((len(rows), alpha) + ts.shape)
    sign = np.empty((len(rows), alpha) + ts.shape)
    m_plus_i = m + np.array(rows)
    for c, j in enumerate(cols):
        logmag[:, c], sign[:, c] = jacobi_p_log(m_plus_i - j, j - 2, beta + j - 2, x)
    poch = np.array([[log_pochhammer(m + i + beta - 1, j - 2) for j in cols] for i in rows])
    logmag += poch.reshape(poch.shape + (1,) * ts.ndim)
    # (row, column, t...) -> (t..., row, column), contiguous as the determinant expects
    axes = tuple(range(2, ts.ndim + 2)) + (0, 1)
    return (np.ascontiguousarray(logmag.transpose(axes)),
            np.ascontiguousarray(sign.transpose(axes)))


def _log_phi_column(dims: ProblemDims, eta: float, ts: np.ndarray) -> np.ndarray:
    """log Phi_i(t, eta) for every row i = 1..alpha+1, via the terminating series

    Phi_i = Q_i sum_k (p+i-1)_k (alpha-i+1)! / (k! (p+m+2i-2)_k (alpha-i+1-k)!)
                  * (eta t)^{k+i-1} ((1+eta)(1+t))^p / (1+eta+t)^{p+k+i-1}

    with Q_i = (n+p+i-2)! (p+i-2)! / (p+m+2i-3)!.  The terms of all rows are
    formed in one (term, t...) array, row by row (k = 0..alpha-i+1 for row
    i), and each row's slice gets a max-shifted exponential sum.  For eta,
    t > 0 every term is positive, so that sum is exact to rounding.  Shape
    is ts.shape + (alpha+1,).
    """
    m, n, p, alpha = dims.m, dims.n, dims.p, dims.alpha
    rows = range(1, alpha + 2)
    sizes = [alpha - i + 2 for i in rows]
    starts = np.cumsum([0] + sizes[:-1])
    pairs = [(i, k) for i in rows for k in range(alpha - i + 2)]
    logq = np.array([math.lgamma(n + p + i - 1) + math.lgamma(p + i - 1)
                     - math.lgamma(p + m + 2 * i - 2) for i in rows])
    logc = np.array([log_pochhammer(p + i - 1, k) + math.lgamma(alpha - i + 2)
                     - math.lgamma(k + 1) - log_pochhammer(p + m + 2 * i - 2, k)
                     - math.lgamma(alpha - i + 2 - k) for i, k in pairs])
    expand = (1,) * ts.ndim
    i, k = (np.array(v).reshape((-1,) + expand) for v in zip(*pairs))
    log_eta_t = math.log(eta) + np.log(ts)
    log_grow = math.log1p(eta) + np.log1p(ts)
    log_den = np.log1p(eta + ts)
    stack = (logc.reshape((-1,) + expand) + (k + i - 1) * log_eta_t + p * log_grow
             - (p + k + i - 1) * log_den)
    peak = np.maximum.reduceat(stack, starts, axis=0)
    scaled = np.exp(stack - np.repeat(peak, sizes, axis=0))
    # numpy picks the summation order from the operand's shape (pairwise along
    # a lone t's terms), so each row's slice is summed on its own: every value
    # is then that row's series summed alone, whatever the number of ts
    sums = np.stack([scaled[s:s + size].sum(axis=0) for s, size in zip(starts, sizes)])
    logmag = logq.reshape((-1,) + expand) + peak + np.log(sums)
    return np.moveaxis(logmag, 0, -1)


def _log_k_const(dims: ProblemDims) -> float:
    """log of K(m,p,alpha) = prod_{j<alpha} (p+m+j-1)! / (p+m+2j)!."""
    m, p = dims.m, dims.p
    return sum(math.lgamma(p + m + j) - math.lgamma(p + m + 2 * j + 1)
               for j in range(dims.alpha))


def _det_stack(logmag: np.ndarray, sign: np.ndarray):
    """slogdet of a stack of matrices given entrywise in log form.

    Each column is rescaled by its max log magnitude (reapplied afterwards)
    so the LU pivots stay O(1).  Returns (sign, log|det|) arrays.
    """
    colmax = logmag.max(axis=-2, keepdims=True)
    colmax = np.where(np.isfinite(colmax), colmax, 0.0)  # all-zero column
    mats = sign * np.exp(logmag - colmax)
    dsign, dlog = np.linalg.slogdet(mats)
    return dsign, dlog + colmax.sum(axis=(-1, -2))


def _check_range(values: np.ndarray, ts: np.ndarray) -> np.ndarray:
    bad = (values < -_SLACK) | (values > 1.0 + _SLACK) | ~np.isfinite(values)
    if bad.any():
        idx = int(np.argmax(bad))
        raise ConditioningError(
            f"CDF value {values[idx]!r} at t={ts[idx]!r} is outside [0,1] "
            f"beyond the {_SLACK} slack; numerics bug or out-of-envelope parameters")
    return np.clip(values, 0.0, 1.0)


def _split_domain(t):
    """Split array_like t into (array, scalar_flag, positive mask, inf mask)."""
    ts = np.asarray(t, dtype=float)
    if np.isnan(ts).any():
        raise ValueError("t must not contain NaN")
    pos = (ts > 0) & np.isfinite(ts)
    return ts, np.ndim(t) == 0, pos, np.isposinf(ts)


def _general_grid(dims: ProblemDims, eta: float, ts: np.ndarray) -> np.ndarray:
    """Spiked determinant path over strictly positive finite ts."""
    k = dims.alpha + 1
    logmag = np.empty(ts.shape + (k, k))
    sign = np.empty(ts.shape + (k, k))
    logmag[..., 0], sign[..., 0] = _log_phi_column(dims, eta, ts), 1.0
    logmag[..., 1:], sign[..., 1:] = _log_psi_block(dims, range(1, k + 1), ts)
    dsign, dlog = _det_stack(logmag, sign)
    logpref = (_log_k_const(dims) - math.lgamma(dims.p) - dims.p * math.log1p(eta)
               + dims.m * (dims.n + dims.p - dims.m) * (np.log(ts) - np.log1p(ts)))
    return dsign * np.exp(logpref + dlog)


def _null_grid(dims: ProblemDims, ts: np.ndarray) -> np.ndarray:
    """eta = 0 path: alpha x alpha Jacobi determinant, closed-form prefactor."""
    m, n, p, alpha = dims.m, dims.n, dims.p, dims.alpha
    logpref = (_log_k_const(dims) + math.lgamma(n + p) - math.lgamma(m + p)
               + m * (n + p - m) * (np.log(ts) - np.log1p(ts)))
    if alpha == 0:
        return np.exp(logpref)
    dsign, dlog = _det_stack(*_log_psi_block(dims, range(2, alpha + 2), ts))
    return dsign * np.exp(logpref + dlog)


def _alpha0_grid(dims: ProblemDims, eta: float, ts: np.ndarray) -> np.ndarray:
    """n = m closed form: (t/(1+t))^{mp} / (1 + eta/(1+t))^p."""
    return np.exp(dims.m * dims.p * (np.log(ts) - np.log1p(ts))
                  - dims.p * np.log1p(eta / (1.0 + ts)))


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------

def psi_entry(dims: ProblemDims, i: int, j: int, t: float) -> float:
    """Determinant entry Psi_{i,j}(t); see the module docstring."""
    if not 1 <= i <= dims.alpha + 1:
        raise ValueError(f"i={i} out of range [1, {dims.alpha + 1}]")
    if not 2 <= j <= dims.alpha + 1:
        raise ValueError(f"j={j} out of range [2, {dims.alpha + 1}]")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    logmag, sign = _log_psi_block(dims, [i], np.asarray([float(t)]))
    return float(sign[0, 0, j - 2] * np.exp(logmag[0, 0, j - 2]))


def phi_entry(dims: ProblemDims, spike: SpikeParam, i: int, t: float) -> LogScaled:
    """First-column entry Phi_i(t, eta) as a log-scaled value, eta > 0."""
    if spike.eta <= 0:
        raise ValueError("phi_entry requires eta > 0 (the eta = 0 case has no Phi column)")
    if not 1 <= i <= dims.alpha + 1:
        raise ValueError(f"i={i} out of range [1, {dims.alpha + 1}]")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    logmag = _log_phi_column(dims, spike.eta, np.asarray([float(t)]))
    return LogScaled(float(logmag[0, i - 1]), 1)


def psi_minor_determinant(dims: ProblemDims, t: float, drop_row: int = 1) -> LogScaled:
    """det of the Psi block (columns 2..alpha+1) with one row index removed.

    ``drop_row=1`` gives the minor multiplying Phi_1 (the eta = 0
    determinant); ``drop_row=2`` gives the minor that enters the low-SNR
    slope.  The empty alpha = 0 determinant is 1.
    """
    alpha = dims.alpha
    if not 1 <= drop_row <= alpha + 1:
        raise ValueError(f"drop_row={drop_row} out of range [1, {alpha + 1}]")
    if alpha == 0:
        return LogScaled(0.0, 1)
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    rows = [i for i in range(1, alpha + 2) if i != drop_row]
    logmag, sign = _log_psi_block(dims, rows, np.asarray([float(t)]))
    logmag, sign = logmag[0], sign[0]
    colmax = logmag.max(axis=0)
    colmax = np.where(np.isfinite(colmax), colmax, 0.0)
    det = detmat.det_scaled(sign * np.exp(logmag - colmax))
    return det * LogScaled(float(colmax.sum()), 1)


def cdf_lambda_max(dims: ProblemDims, spike: SpikeParam, t):
    """CDF of the largest eigenvalue of W1 W2^{-1} at t.

    Accepts scalar or array t; t <= 0 maps to probability 0 exactly.
    Dispatches to the eta = 0 and n = m closed forms where they apply.
    Raises ConditioningError if the assembled value leaves [0, 1]
    by more than 1e-9, which indicates a numerics bug rather than an
    acceptable rounding excursion.
    """
    ts, scalar, pos, inf = _split_domain(t)
    out = np.zeros(ts.shape)
    out[inf] = 1.0
    if pos.any():
        tpos = ts[pos]
        if spike.eta == 0.0:
            vals = _null_grid(dims, tpos)
        elif dims.alpha == 0:
            vals = _alpha0_grid(dims, spike.eta, tpos)
        else:
            vals = _general_grid(dims, spike.eta, tpos)
        out[pos] = _check_range(vals, tpos)
    return float(out) if scalar else out


def cdf_lambda_max_general(dims: ProblemDims, spike: SpikeParam, t):
    """Determinant path with no special-case dispatch; requires eta > 0.

    Exposed so the closed-form special cases can be cross-checked against
    the general assembly they specialize.
    """
    if spike.eta <= 0:
        raise ValueError("general path requires eta > 0")
    ts, scalar, pos, inf = _split_domain(t)
    out = np.zeros(ts.shape)
    out[inf] = 1.0
    if pos.any():
        out[pos] = _check_range(_general_grid(dims, spike.eta, ts[pos]), ts[pos])
    return float(out) if scalar else out


def cdf_null(dims: ProblemDims, t):
    """CDF of the largest eigenvalue with no spike (eta = 0)."""
    ts, scalar, pos, inf = _split_domain(t)
    out = np.zeros(ts.shape)
    out[inf] = 1.0
    if pos.any():
        out[pos] = _check_range(_null_grid(dims, ts[pos]), ts[pos])
    return float(out) if scalar else out


def cdf_test_statistic(dims: ProblemDims, spike: SpikeParam, x):
    """CDF of the detector statistic, the largest eigenvalue of the
    whitened sample-covariance pair; related to the F-matrix eigenvalue by
    the kappa = p/n rescale, so this is cdf_lambda_max at kappa * x."""
    xs = np.asarray(x, dtype=float)
    out = cdf_lambda_max(dims, spike, dims.kappa * xs)
    return float(out) if np.ndim(x) == 0 else out
