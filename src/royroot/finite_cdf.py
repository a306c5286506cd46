"""Exact CDF of the largest eigenvalue of W1 W2^{-1} for independent complex
Wishart matrices, W1 carrying a rank-one spiked scale I + eta v v^H.

With alpha = n - m and beta = p - m, the CDF under the spike is a log-scaled
prefactor times an (alpha+1) x (alpha+1) determinant whose first column holds
terminating hypergeometric sums Phi_i(t, eta) and whose remaining columns hold
Pochhammer-weighted Jacobi polynomials Psi_{i,j}(t) evaluated at 2/t + 1:

    F(t; eta) = K(m,p,alpha) / ((p-1)! (1+eta)^p) * (t/(1+t))^{m(alpha+beta+m)}
                * det[ Phi_i(t,eta) | Psi_{i,j}(t) ]

Special cases dispatch to closed forms: eta = 0 drops the Phi column and
leaves an alpha x alpha determinant, evaluated as the exact polynomial in
1/t that it is (see the eta = 0 section below); n = m collapses everything
to (t/(1+t))^{mp} / (1 + eta/(1+t))^p.  On the spiked path all prefactors
and entries are composed in log space, and each determinant column is
rescaled by its largest magnitude before the pivoted LU so the pivots stay
O(1).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

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
# dims whose per-dims constants and exact coefficients are kept
_CACHED_DIMS = 32
_PSI_BLOCK = 1 << 18      # Jacobi values (degree, column, t) kept per block of ts


class ConditioningError(ArithmeticError):
    """The assembled CDF left [0, 1] by more than the allowed slack."""


@dataclass(frozen=True)
class ProblemDims:
    """Detector dimensions: m receivers, n noise-only and p signal samples.

    Requires n >= m and p >= m (sample covariances positive definite almost
    surely) and caps every dimension at 64.  The null side is validated up
    to alpha = 16; the spiked determinant is known wrong at some dims inside
    the cap (see the README).
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
        if not (math.isfinite(self.eta) and self.eta >= 0.0):
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")


# ---------------------------------------------------------------------------
# log-scale entry evaluation, vectorized over t
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=_CACHED_DIMS)
def _psi_layout(dims: ProblemDims):
    """The Psi block's per-dims constants as read-only arrays, rows i =
    1..alpha+1 by columns j = 2..alpha+1: the Jacobi degrees m+i-j, each
    column's parameters (j-2, beta+j-2) and the log Pochhammer factors
    log (m+i+beta-1)_{j-2}.  Cached per dims."""
    m, beta, alpha = dims.m, dims.beta, dims.alpha
    i, j = np.arange(1, alpha + 2), np.arange(2, alpha + 2)
    degs = m + i[:, None] - j
    poch = np.array([[log_pochhammer(m + r + beta - 1, c - 2) for c in j] for r in i])
    layout = (degs, j - 2, beta + j - 2, poch)
    for v in layout:
        v.flags.writeable = False
    return layout


def _log_psi_block(dims: ProblemDims, rows, ts: np.ndarray):
    """(log|.|, sign) of the Psi block: rows i in ``rows``, columns j = 2..alpha+1.

    Psi_{i,j}(t) = (m+i+beta-1)_{j-2} P_{m+i-j}^{(j-2, beta+j-2)}(2/t+1).  Each
    column has its own Jacobi parameters and the degree moves with the row,
    so one :func:`jacobi_p_log` recurrence over the array of column
    parameters yields the whole block.  The recurrence keeps every degree
    of every column at every t, so the 1-D ts are taken in blocks of about
    _PSI_BLOCK such values; each value is computed alone, whatever the
    block.  Both arrays have shape ts.shape + (len(rows), alpha).
    """
    degs, a, b, poch = _psi_layout(dims)
    pick = np.asarray(rows) - 1
    x = 2.0 / ts + 1.0
    step = max(1, _PSI_BLOCK // max(1, 2 * (dims.m + dims.alpha) * dims.alpha))
    parts = [jacobi_p_log(degs[pick], a, b, x[s:s + step]) for s in range(0, x.size, step)]
    logmag, sign = parts[0] if len(parts) == 1 else (np.concatenate(v, -1) for v in zip(*parts))
    logmag += poch[pick][..., None]
    # (row, column, t) -> (t, row, column)
    return logmag.transpose(2, 0, 1), sign.transpose(2, 0, 1)


@functools.lru_cache(maxsize=_CACHED_DIMS)
def _phi_layout(dims: ProblemDims):
    """The Phi series' per-dims constants, as read-only arrays where they are
    arrays: each row's term count and first term, log Q_i, the log
    coefficient of every (row i, term k) and the powers k+i-1 and p+k+i-1
    of those terms.  Cached per dims."""
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
    i, k = (np.array(v) for v in zip(*pairs))
    arrays = (starts, logq, logc, k + i - 1, p + k + i - 1)
    for v in arrays:
        v.flags.writeable = False
    return (tuple(sizes),) + arrays


def _log_phi_column(dims: ProblemDims, eta: float, ts: np.ndarray) -> np.ndarray:
    """log Phi_i(t, eta) for every row i = 1..alpha+1, via the terminating series

    Phi_i = Q_i sum_k (p+i-1)_k (alpha-i+1)! / (k! (p+m+2i-2)_k (alpha-i+1-k)!)
                  * (eta t)^{k+i-1} ((1+eta)(1+t))^p / (1+eta+t)^{p+k+i-1}

    with Q_i = (n+p+i-2)! (p+i-2)! / (p+m+2i-3)!.  The terms of all rows are
    formed in one (term, t...) array, row by row (k = 0..alpha-i+1 for row
    i), and each row's slice gets a max-shifted exponential sum.  For eta,
    t > 0 every term is positive, so that sum is exact to rounding.  The
    constants come from :func:`_phi_layout`.  Shape is ts.shape + (alpha+1,).
    """
    sizes, starts, logq, logc, eta_power, den_power = _phi_layout(dims)
    expand = (1,) * ts.ndim
    col = (-1,) + expand
    log_eta_t = math.log(eta) + np.log(ts)
    log_grow = math.log1p(eta) + np.log1p(ts)
    log_den = np.log1p(eta + ts)
    stack = (logc.reshape(col) + eta_power.reshape(col) * log_eta_t + dims.p * log_grow
             - den_power.reshape(col) * log_den)
    peak = np.maximum.reduceat(stack, starts, axis=0)
    scaled = np.exp(stack - np.repeat(peak, sizes, axis=0))
    # numpy picks the summation order from the operand's shape (pairwise along
    # a lone t's terms), so each row's slice is summed on its own: every value
    # is then that row's series summed alone, whatever the number of ts
    sums = np.stack([scaled[s:s + size].sum(axis=0) for s, size in zip(starts, sizes)])
    logmag = logq.reshape(col) + peak + np.log(sums)
    return np.moveaxis(logmag, 0, -1)


@functools.lru_cache(maxsize=_CACHED_DIMS)
def _log_k_const(dims: ProblemDims) -> float:
    """log of K(m,p,alpha) = prod_{j<alpha} (p+m+j-1)! / (p+m+2j)!.  Cached per dims."""
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


def _on_domain(grid, t):
    """A CDF at array_like t from ``grid``, its values over strictly positive
    finite ts: NaN raises, t <= 0 gives 0 and +inf gives 1, a value outside
    [0, 1] beyond the slack raises ConditioningError, and a scalar t gives a
    float."""
    ts = np.asarray(t, dtype=float)
    if np.isnan(ts).any():
        raise ValueError("t must not contain NaN")
    pos = (ts > 0) & (ts < np.inf)
    out = np.zeros(ts.shape)
    out[ts == np.inf] = 1.0
    if pos.any():
        tpos = ts[pos]
        out[pos] = _clamped(grid(tpos), tpos)
    return float(out) if np.ndim(t) == 0 else out


def _clamped(values: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """CDF values at ts clamped to [0, 1]; one outside it beyond the slack,
    or NaN, raises ConditioningError."""
    bad = ~((values >= -_SLACK) & (values <= 1.0 + _SLACK))     # NaN included
    if bad.any():
        idx = int(np.argmax(bad))
        raise ConditioningError(
            f"CDF value {values[idx]!r} at t={ts[idx]!r} is outside [0,1] "
            f"beyond the {_SLACK} slack; numerics bug or out-of-envelope parameters")
    return np.minimum(np.maximum(values, 0.0), 1.0)


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


# ---------------------------------------------------------------------------
# eta = 0: the determinant as an exact polynomial in u = 1/t
# ---------------------------------------------------------------------------
#
# With x = 2/t + 1 = 1 + 2u, every Psi entry is an integer polynomial in u
# (the Jacobi sum below), so the Psi block (columns 2..alpha+1) with row r
# removed has an integer polynomial determinant e_r(u) of degree
# m*alpha + 1 - r.  Row 1 removed gives the eta = 0 determinant d = e_1:
#
#     F0(t) = (1+u)^{-N} sum_k c_k u^k,  c_k = d_k / d_0,  N = m(n+p-m),
#
# and d_0 = (m+p-1)! / ((n+p-1)! K(m,p,alpha)) makes c_0 = 1, so that F0 -> 1
# as t -> oo.  Every c_k found so far is >= 0 (and so is every coefficient
# of e_2, the minor of the low-SNR slope): F0 is a sum of positive terms
# with no cancellation, whatever alpha is; so is 1 - F0(t), with r_k =
# C(N,k) - c_k (k = 0..N) in place of c_k, as no r_k found is negative.  The
# coefficients are built once per dims from determinants modulo word-sized
# primes at the integer points u = 0..degree, interpolated per prime and
# joined by the Chinese remainder theorem.  The caches keep each e_k / d_0
# and r_k as a float mantissa and a power-of-two exponent, since they reach
# 1e375 inside the envelope.

_PRIME_BITS = 31          # products of two residues fit in int64
_BUILD_BLOCK = 1 << 19    # int64 entries per block of the modular precompute
_EVAL_BLOCK = 1 << 16     # (t, k) terms per block of the evaluation


def _psi_coefficients(dims: ProblemDims, drop_row: int) -> list:
    """Integer coefficients in u of the Psi entries, rows 1..alpha+1 except
    drop_row, columns 2..alpha+1.

    P_d^{(a,b)}(1+2u) = sum_s C(d+a, d-s) C(d+a+b+s, s) u^s, times the
    Pochhammer factor (m+i+beta-1)_{j-2}; a negative degree is the zero entry.
    """
    m, beta, alpha = dims.m, dims.beta, dims.alpha
    block = []
    for i in range(1, alpha + 2):
        if i == drop_row:
            continue
        row = []
        for j in range(2, alpha + 2):
            d, a, b = m + i - j, j - 2, beta + j - 2
            poch = math.prod(range(m + i + beta - 1, m + i + beta + j - 3))
            row.append([poch * math.comb(d + a, d - s) * math.comb(d + a + b + s, s)
                        for s in range(d + 1)])
        block.append(row)
    return block


def _is_prime(q: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: exact for every q < 3.2e9."""
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _primes_beyond(bound: int) -> list:
    """The largest primes below 2^31, as many as make their product exceed bound."""
    primes, product, q = [], 1, (1 << _PRIME_BITS) - 1
    while product <= bound:
        if _is_prime(q):
            primes.append(q)
            product *= q
        q -= 2
    return primes


def _inv_mod(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """x^(q-2) mod q elementwise: the inverse of x modulo the prime q (0 for x = 0)."""
    e = np.broadcast_to(q - 2, x.shape).copy()
    inv, base = np.ones_like(x), x % q
    for _ in range(_PRIME_BITS):
        inv = np.where(e & 1, inv * base % q, inv)
        base = base * base % q
        e >>= 1
    return inv


def _det_mod(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Determinants of a stack of matrices modulo primes, one prime per matrix.

    Gaussian elimination over GF(q); a zero pivot swaps in the first row
    below it with a nonzero entry.  ``a`` (entries in [0, q)) is overwritten.
    """
    count, k = a.shape[0], a.shape[-1]
    det = np.ones(count, np.int64)
    stack = np.arange(count)
    q1, q2 = q[:, None], q[:, None, None]
    for c in range(k):
        piv = c + np.argmax(a[:, c:, c] != 0, axis=1)
        swap = piv != c
        if swap.any():
            row = a[stack, piv].copy()
            a[stack, piv] = a[:, c]
            a[:, c] = row
            det = np.where(swap, q - det, det)
        det = det * a[:, c, c] % q
        if c + 1 < k:
            f = a[:, c + 1:, c] * _inv_mod(a[:, c, c], q)[:, None] % q1
            a[:, c + 1:, c + 1:] -= f[:, :, None] * a[:, None, c, c + 1:] % q2
            a[:, c + 1:, c + 1:] %= q2
    return det


def _det_values_mod(block: list, points: int, primes: list) -> np.ndarray:
    """det(block(u)) modulo each prime at u = 0..points-1; shape (points, primes).

    Entries are evaluated as (u^s) @ (coefficients) in float64, with the
    powers split into 16-bit halves: each product is below 2^47 and each
    dot product of at most 64 terms below 2^53, so the float sums are
    exact.  Primes are taken in blocks of at most _BUILD_BLOCK entries.
    """
    alpha = len(block)
    width = max(len(c) for row in block for c in row)
    exact = np.array([c + [0] * (width - len(c)) for row in block for c in row], dtype=object)
    u = np.arange(points, dtype=np.int64)
    out = np.empty((points, len(primes)), np.int64)
    group = max(1, _BUILD_BLOCK // (points * max(alpha * alpha, width)))
    for g in range(0, len(primes), group):
        q = np.array(primes[g:g + group], dtype=np.int64)
        q2, q3 = q[:, None], q[:, None, None]
        coef = (exact % q3.astype(object)).astype(np.int64)
        power = np.empty((q.size, points, width), np.int64)
        power[..., 0] = 1
        for s in range(1, width):
            power[..., s] = power[..., s - 1] * u % q2
        coef = np.swapaxes(coef, 1, 2).astype(float)
        low = np.matmul((power & 0xFFFF).astype(float), coef).astype(np.int64) % q3
        high = np.matmul((power >> 16).astype(float), coef).astype(np.int64) % q3
        entries = ((high << 16) + low) % q3
        out[:, g:g + group] = _det_mod(entries.reshape(-1, alpha, alpha),
                                       np.repeat(q, points)).reshape(q.size, points).T
    return out


def _interpolate_mod(values: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Monomial coefficients, modulo each prime, of the polynomial taking
    values[u] at u = 0..deg (Newton divided differences, then expansion)."""
    deg = values.shape[0] - 1
    inv = _inv_mod(np.repeat(np.arange(1, deg + 1, dtype=np.int64)[:, None], q.size, 1), q)
    dd = values.copy()
    for j in range(1, deg + 1):
        dd[j:] = (dd[j:] - dd[j - 1:-1]) % q * inv[j - 1] % q
    coef = np.zeros_like(dd)
    coef[0] = dd[deg]
    for j in range(deg - 1, -1, -1):     # coef <- coef * (u - j) + dd[j]
        coef[1:] = (coef[:-1] - j * coef[1:]) % q
        coef[0] = (dd[j] - j * coef[0]) % q
    return coef


@functools.lru_cache(maxsize=_CACHED_DIMS)
def _minor_polynomial(dims: ProblemDims, drop_row: int) -> tuple:
    """Exact integer coefficients of e_{drop_row}(u), the Psi minor's determinant."""
    if dims.alpha == 0:
        return (1,)
    block = _psi_coefficients(dims, drop_row)
    # |e_k| <= perm(block)(1) <= prod of row sums at u = 1, all terms >= 0
    bound = math.prod(sum(map(sum, row)) for row in block)
    primes = _primes_beyond(2 * bound)
    points = dims.m * dims.alpha + 2 - drop_row
    q = np.array(primes, dtype=np.int64)
    residues = _interpolate_mod(_det_values_mod(block, points, primes), q)
    modulus = math.prod(primes)
    weights = [(modulus // p) * pow(modulus // p, -1, p) for p in primes]
    coefs = []
    for row in residues.tolist():
        v = sum(map(int.__mul__, row, weights)) % modulus
        coefs.append(v - modulus if 2 * v > modulus else v)
    return tuple(coefs)


def _null_determinant_at_zero(dims: ProblemDims) -> Fraction:
    """d_0 = (m+p-1)! / ((n+p-1)! K(m,p,alpha)), the value that makes F0(oo) = 1."""
    m, p = dims.m, dims.p
    k_const = math.prod(Fraction(math.factorial(p + m + j - 1), math.factorial(p + m + 2 * j))
                        for j in range(dims.alpha))
    return Fraction(math.factorial(m + p - 1), math.factorial(dims.n + p - 1)) / k_const


def _mantissas(num: list, den: int):
    """num[k] / den as read-only (mantissa in [0.5, 1), power-of-two exponent)
    arrays; each mantissa is correctly rounded, and a zero has exponent -inf."""
    mant, expo = np.empty(len(num)), np.empty(len(num))
    for k, c in enumerate(num):
        e = abs(c).bit_length() - den.bit_length()
        mant[k], shift = math.frexp((c << max(-e, 0)) / (den << max(e, 0)))
        expo[k] = e + shift if c else -np.inf
    mant.flags.writeable = expo.flags.writeable = False
    return mant, expo


@functools.lru_cache(maxsize=_CACHED_DIMS)
def _minor_coefficients(m: int, n: int, p: int, drop_row: int):
    """e_k / d_0 for e = e_{drop_row} as :func:`_mantissas`; drop_row = 1
    gives the null c_k.  Cached per dims."""
    dims = ProblemDims(m, n, p)
    d0 = _null_determinant_at_zero(dims)
    return _mantissas([e * d0.denominator for e in _minor_polynomial(dims, drop_row)],
                      d0.numerator)


@functools.lru_cache(maxsize=_CACHED_DIMS)
def _tail_coefficients(m: int, n: int, p: int):
    """The r_k of 1 - F0, exactly from the c_k's build, as :func:`_mantissas`.
    Cached per dims."""
    dims, big_n = ProblemDims(m, n, p), m * (n + p - m)
    d0, e = _null_determinant_at_zero(dims), _minor_polynomial(dims, 1)
    binoms = itertools.accumulate(range(big_n), lambda c, k: c * (big_n - k) // (k + 1), initial=1)
    num = [c * d0.numerator - (e[k] * d0.denominator if k < len(e) else 0)
           for k, c in enumerate(binoms)]
    if min(num) < 0:
        raise ConditioningError(f"negative tail coefficient r_{num.index(min(num))} at "
                                f"{(m, n, p)}: 1 - F0 is not a positive sum there")
    return _mantissas(num, d0.numerator)


def _scaled_sums(mant: np.ndarray, expo: np.ndarray, k: np.ndarray, sizes: tuple,
                 ts: np.ndarray, mean_k: bool = False) -> np.ndarray:
    """Positive power sums sum_k mant_k 2^expo_k u^k, u = 1/t, of consecutive
    coefficient segments, in one pass over strictly positive finite ts.

    The coefficients are segments of the given sizes concatenated, and k
    holds each one's power of u, counted from 0 within its segment.  For
    each segment the result holds (sum, s): its sum scaled by 2^-s and s,
    with mean_k also the mean of k under its terms.  Powers of two are kept
    apart: each term is mant_k 2^((x_k - s) + k log2 u) with x_k its
    exponent and s, the integer part of its segment's largest exponent,
    subtracted exactly.  All segments share one k log2 u grid and one exp2
    pass; each t's terms are summed along their own row, segment by segment,
    so a one-segment call does exactly what it did alone.  Shape is
    (len(sizes), 3 if mean_k else 2) + ts.shape.
    """
    starts = [0, *itertools.accumulate(sizes[:-1])]
    out = np.empty((len(sizes), 3 if mean_k else 2) + ts.shape)
    rows = slice(None, None, 2 if mean_k else 3)    # the sum, and the k-weighted sum
    step = max(1, _EVAL_BLOCK // mant.size)
    for b in range(0, ts.size, step):
        x = -np.log2(ts[b:b + step])[:, None] * k
        shift = np.floor(np.maximum.reduceat(expo + x, starts, axis=-1))
        out[:, 1, b:b + step] = shift.T
        if len(sizes) > 1:
            shift = np.repeat(shift, sizes, axis=-1)
        terms = np.empty((2 if mean_k else 1,) + x.shape)
        np.multiply(mant, np.exp2((expo - shift) + x), out=terms[0])
        if mean_k:
            np.multiply(k, terms[0], out=terms[1])
        for seg, (start, size) in enumerate(zip(starts, sizes)):
            out[seg, rows, b:b + step] = np.add.reduce(terms[..., start:start + size], axis=-1)
    if mean_k:
        out[:, 2] /= out[:, 0]
    return out


def _minor_grid(dims: ProblemDims, drop_row: int, power: int, ts: np.ndarray) -> np.ndarray:
    """(1+u)^{-power} e_{drop_row}(u) / d_0 over strictly positive finite ts,
    a sum of positive terms."""
    mant, expo = _minor_coefficients(dims.m, dims.n, dims.p, drop_row)
    (total, shift), = _scaled_sums(mant, expo, np.arange(mant.size), (mant.size,), ts)
    return _times_power(total, shift, power, ts)


def _times_power(total: np.ndarray, shift: np.ndarray, power: int, ts: np.ndarray) -> np.ndarray:
    """A sum from :func:`_scaled_sums`, scaled by 2^-shift, times (1+u)^{-power}."""
    return total * np.exp2(shift - power * np.log1p(1.0 / ts) / math.log(2))


def _null_grid(dims: ProblemDims, ts: np.ndarray) -> np.ndarray:
    """eta = 0 path: (1+u)^{-N} sum_k c_k u^k over strictly positive finite ts."""
    return _minor_grid(dims, 1, dims.m * (dims.n + dims.p - dims.m), ts)


@functools.lru_cache(maxsize=_CACHED_DIMS)
def _logit_coefficients(m: int, n: int, p: int):
    """The c_k then the r_k as read-only (mantissa, exponent, k) arrays and
    the two segment sizes: the operands of :func:`_null_logit`.  Cached per
    dims."""
    head, tail = _minor_coefficients(m, n, p, 1), _tail_coefficients(m, n, p)
    sizes = (head[0].size, tail[0].size)
    mant, expo = np.concatenate([head[0], tail[0]]), np.concatenate([head[1], tail[1]])
    k = np.concatenate([np.arange(size) for size in sizes])
    for v in (mant, expo, k):
        v.flags.writeable = False
    return mant, expo, k, sizes


def _null_logit(dims: ProblemDims, ts: np.ndarray):
    """logit F0, its derivative in log t, and F0 over strictly positive
    finite ts: the log ratio of the c_k and r_k sums, whose (1+u)^{-N}
    cancels, the mean of k under the r_k terms less that under the c_k
    terms, and the c_k sum times (1+u)^{-N}.  Both sums come from one
    :func:`_scaled_sums` pass over the cached concatenation; F0 is built
    from its c_k segment as :func:`_null_grid` builds it, so it equals
    that grid bit for bit."""
    mant, expo, k, sizes = _logit_coefficients(dims.m, dims.n, dims.p)
    (head, h_shift, h_mean), (tail, t_shift, t_mean) = _scaled_sums(mant, expo, k, sizes, ts, True)
    return (np.log(head / tail) + (h_shift - t_shift) * math.log(2), t_mean - h_mean,
            _times_power(head, h_shift, dims.m * (dims.n + dims.p - dims.m), ts))


@functools.lru_cache(maxsize=_CACHED_DIMS)
def _logit_table(m: int, n: int, p: int, limit: float, size: int):
    """(log t, logit F0, its slope in log t) at size evenly spaced nodes on
    [-limit, limit] as read-only arrays, from one :func:`_null_logit` call:
    the knots of the solver's Hermite warm start.  Cached per dims."""
    nodes = np.linspace(-limit, limit, size)
    logit, slope, _ = _null_logit(ProblemDims(m, n, p), np.exp(nodes))
    for v in (nodes, logit, slope):
        v.flags.writeable = False
    return nodes, logit, slope


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
    if spike.eta == 0.0:
        return _on_domain(functools.partial(_null_grid, dims), t)
    path = _alpha0_grid if dims.alpha == 0 else _general_grid
    return _on_domain(functools.partial(path, dims, spike.eta), t)


def cdf_lambda_max_general(dims: ProblemDims, spike: SpikeParam, t):
    """Determinant path with no special-case dispatch; requires eta > 0.

    Exposed so the closed-form special cases can be cross-checked against
    the general assembly they specialize.
    """
    if spike.eta <= 0:
        raise ValueError("general path requires eta > 0")
    return _on_domain(functools.partial(_general_grid, dims, spike.eta), t)


def cdf_null(dims: ProblemDims, t):
    """CDF of the largest eigenvalue with no spike (eta = 0)."""
    return _on_domain(functools.partial(_null_grid, dims), t)


def cdf_test_statistic(dims: ProblemDims, spike: SpikeParam, x):
    """CDF of the detector statistic, the largest eigenvalue of the
    whitened sample-covariance pair; related to the F-matrix eigenvalue by
    the kappa = p/n rescale, so this is cdf_lambda_max at kappa * x."""
    xs = np.asarray(x, dtype=float)
    out = cdf_lambda_max(dims, spike, dims.kappa * xs)
    return float(out) if np.ndim(x) == 0 else out
