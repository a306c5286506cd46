"""High-precision reference values for the benchmark's correctness checks.

Evaluates the exact largest-root CDFs from the determinant formula in
mpmath, independently of royroot's code:
Jacobi polynomials come from their explicit positive-term sum at
x = 2/t + 1 > 1 rather than a recurrence, determinants from a plain
high-precision LU, and n = m cases from the closed form.  Every input is a
binary float, so the values are exact rationals.  The determinants cancel
heavily at large p and eta, so each value is computed at two working
precisions, starting from ``DPS`` digits, and the precision is doubled
until the two agree to ``AGREE`` absolutely.  The
fixed-alpha limit law exp(-1/x) det[I_{j-i}(2/sqrt(x))] is evaluated the
same way from mpmath's Bessel functions.

With alpha = n - m and beta = p - m:

    F0(t)    = K (n+p-1)!/(m+p-1)! w^{m(n+p-m)} det[Psi_{i+1,j+1}]_{i,j<=alpha}
    F(t;eta) = K / ((p-1)! (1+eta)^p) w^{m(n+p-m)} det[Phi_i | Psi_{i,j}]

where w = t/(1+t), K = prod_{j<alpha} (p+m+j-1)!/(p+m+2j)!,
Psi_{i,j} = (m+i+beta-1)_{j-2} P_{m+i-j}^{(j-2, beta+j-2)}(2/t+1) and

    Phi_i = Q_i sum_k (p+i-1)_k (alpha-i+1)! / (k! (p+m+2i-2)_k (alpha-i+1-k)!)
                * (eta t)^{k+i-1} ((1+eta)(1+t))^p / (1+eta+t)^{p+k+i-1}

with Q_i = (n+p+i-2)! (p+i-2)! / (p+m+2i-3)!.  For n = m both reduce to
w^{mp} / (1 + eta/(1+t))^p.
"""

from __future__ import annotations

from math import comb, factorial

import mpmath

DPS = 50
AGREE = 1e-30


def _rf(a: int, k: int) -> int:
    """Rising factorial (a)_k of an integer base."""
    out = 1
    for i in range(k):
        out *= a + i
    return out


def _jacobi(deg: int, a: int, b: int, t):
    """P_deg^{(a,b)}(2/t + 1) = t^-deg sum_s C(deg+a, deg-s) C(deg+b, s) (1+t)^(deg-s)."""
    if deg < 0:
        return mpmath.mpf(0)
    u = 1 + t
    return sum(comb(deg + a, deg - s) * comb(deg + b, s) * u ** (deg - s)
               for s in range(deg + 1)) / t ** deg


def _psi(m: int, beta: int, i: int, j: int, t):
    return _rf(m + i + beta - 1, j - 2) * _jacobi(m + i - j, j - 2, beta + j - 2, t)


def _phi(m: int, n: int, p: int, eta, i: int, t):
    alpha = n - m
    q = mpmath.mpf(factorial(n + p + i - 2) * factorial(p + i - 2)) / factorial(p + m + 2 * i - 3)
    top = ((1 + eta) * (1 + t)) ** p
    total = mpmath.mpf(0)
    for k in range(alpha - i + 2):
        c = mpmath.mpf(_rf(p + i - 1, k) * factorial(alpha - i + 1)) / (
            factorial(k) * _rf(p + m + 2 * i - 2, k) * factorial(alpha - i + 1 - k))
        total += c * (eta * t) ** (k + i - 1) * top / (1 + eta + t) ** (p + k + i - 1)
    return q * total


def _k_const(m: int, p: int, alpha: int):
    num = den = 1
    for j in range(alpha):
        num *= factorial(p + m + j - 1)
        den *= factorial(p + m + 2 * j)
    return mpmath.mpf(num) / den


def _det(rows) -> mpmath.mpf:
    """Determinant by LU with partial pivoting at the working precision.

    mpmath.det maps a numerically singular matrix to 0; this one keeps the
    rounded value so the precision check below sees the cancellation.
    """
    a = [list(r) for r in rows]
    k = len(a)
    det = mpmath.mpf(1)
    for c in range(k):
        piv = max(range(c, k), key=lambda r: abs(a[r][c]))
        if a[piv][c] == 0:
            return mpmath.mpf(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, k):
            f = a[r][c] / a[c][c]
            for j in range(c + 1, k):
                a[r][j] -= f * a[c][j]
    return det


def _agreed(f, *args) -> mpmath.mpf:
    """f(dps, *args) at doubling precisions until two runs agree to AGREE."""
    dps = DPS
    prev = f(dps, *args)
    while True:
        dps *= 2
        cur = f(dps, *args)
        if abs(cur - prev) <= AGREE:
            return cur
        prev = cur


def cdf(m: int, n: int, p: int, eta: float, t: float) -> mpmath.mpf:
    """Pr(lambda_max(W1 W2^-1) <= t) for spike eta >= 0, correct to AGREE."""
    return _agreed(_cdf_at, m, n, p, eta, t)


def _cdf_at(dps: int, m: int, n: int, p: int, eta: float, t: float) -> mpmath.mpf:
    with mpmath.workdps(dps):
        t = mpmath.mpf(t)
        eta = mpmath.mpf(eta)  # may be a tiny negative step, see low_snr_slope
        if t <= 0:
            return mpmath.mpf(0)
        alpha, beta = n - m, p - m
        w = t / (1 + t)
        if alpha == 0:
            return +(w ** (m * p) / (1 + eta / (1 + t)) ** p)
        if eta == 0:
            mat = [[_psi(m, beta, i + 2, j + 2, t) for j in range(alpha)]
                   for i in range(alpha)]
            pref = _k_const(m, p, alpha) * mpmath.mpf(factorial(n + p - 1)) / factorial(m + p - 1)
            return +(pref * w ** (m * (n + p - m)) * _det(mat))
        mat = [[_phi(m, n, p, eta, i + 1, t)]
               + [_psi(m, beta, i + 1, j + 1, t) for j in range(1, alpha + 1)]
               for i in range(alpha + 1)]
        pref = _k_const(m, p, alpha) / (factorial(p - 1) * (1 + eta) ** p)
        return +(pref * w ** (m * (n + p - m)) * _det(mat))


def null_quantile(m: int, n: int, p: int, prob) -> mpmath.mpf:
    """T with F0(T) = prob: a bracket by doubling, then Anderson-Bjorck."""
    with mpmath.workdps(DPS):
        def f(x):
            return cdf(m, n, p, 0.0, x) - prob
        lo = hi = mpmath.mpf(1)
        while f(hi) < 0:
            hi *= 2
        while f(lo) > 0:
            lo /= 2
        return mpmath.findroot(f, (lo, hi), solver="anderson", tol=AGREE)


def low_snr_slope(m: int, n: int, p: int, p_false_alarm: float) -> mpmath.mpf:
    """d P_D / d gamma at gamma = 0 with the threshold held at the null quantile.

    P_D(gamma) = 1 - F(T; gamma) at T = F0^-1(1 - P_F), so the slope is
    -dF/d eta at eta = 0.  The determinant formula is rational in eta, so a
    central difference of step h is exact to O(h^2) plus AGREE / h.
    """
    with mpmath.workdps(DPS):
        T = null_quantile(m, n, p, 1 - mpmath.mpf(p_false_alarm))
        h = mpmath.mpf(10) ** -10
        return (cdf(m, n, p, -h, T) - cdf(m, n, p, h, T)) / (2 * h)


def limit_cdf_fixed_alpha(alpha: int, x: float) -> mpmath.mpf:
    """exp(-1/x) det[I_{j-i}(2/sqrt(x))]_{alpha x alpha}, the fixed-alpha limit law."""
    return _agreed(_limit_at, alpha, x)


def _limit_at(dps: int, alpha: int, x: float) -> mpmath.mpf:
    with mpmath.workdps(dps):
        x = mpmath.mpf(x)
        z = 2 / mpmath.sqrt(x)
        bessel = [mpmath.besseli(k, z) for k in range(alpha)]  # I_{-k} = I_k
        mat = [[bessel[abs(j - i)] for j in range(alpha)] for i in range(alpha)]
        return +(mpmath.exp(-1 / x) * _det(mat))
