"""Test oracles: plain reference versions of special functions, dense linear
algebra and the paper's eta = 0 determinant, written on the standard
library, numpy and scipy.  royroot's own code is not used here.

The scalar special functions work on any number type that supports + and *,
so the same code gives floats for float arguments and exact results for
ints and ``fractions.Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.linalg import solve_triangular


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def pochhammer(a, k: int):
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1."""
    if k < 0 or k != int(k):
        raise ValueError(f"pochhammer requires a nonnegative integer k, got {k}")
    out = 1.0 if isinstance(a, float) else 1
    for i in range(int(k)):
        out *= a + i
    return out


def binomial(x, k: int):
    """Generalized binomial coefficient C(x, k) for integer k >= 0."""
    k = int(k)
    value = pochhammer(x - k + 1, k)
    return value / math.factorial(k) if isinstance(value, float) else Fraction(value, math.factorial(k))


def jacobi_p(deg: int, a, b, x):
    """Jacobi polynomial by the explicit finite sum
    P_n^{(a,b)}(x) = sum_k C(n+a, n-k) C(n+k+a+b, k) ((x-1)/2)^k."""
    half = (x - 1) / 2
    return sum(binomial(deg + a, deg - k) * binomial(deg + k + a + b, k) * half ** k
               for k in range(deg + 1))


def gauss_2f1_terminating(a, neg_int: int, c, z):
    """2F1(a, -N; c; z) summed term by term over its N+1 terms."""
    if neg_int > 0 or neg_int != int(neg_int):
        raise ValueError(f"second parameter must be a nonpositive integer, got {neg_int}")
    nterms = -int(neg_int)
    if c == int(c) and -nterms < c <= 0:
        raise ValueError(f"c={c} hits a pole inside the {nterms + 1}-term sum")
    return sum(pochhammer(a, k) * pochhammer(neg_int, k) / (pochhammer(c, k) * math.factorial(k))
               * z ** k for k in range(nterms + 1))


def gauss_2f1_b_equals_c(a: float, z: float) -> float:
    """2F1(a, b; b; z) = (1-z)^(-a)."""
    if z >= 1:
        raise ValueError(f"requires z < 1, got {z}")
    return (1.0 - z) ** (-a)


class NotPositiveDefiniteError(ValueError):
    """Cholesky failure; ``pivot`` is the 0-based index of the first bad pivot."""

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"matrix is not positive definite at pivot {pivot}")


def _hermitian(h) -> np.ndarray:
    a = np.asarray(h, dtype=complex)
    if np.abs(a - a.conj().T).max(initial=0.0) > 1e-12 * max(1.0, np.abs(a).max(initial=0.0)):
        raise ValueError("matrix is not Hermitian")
    return a


def cholesky(h) -> np.ndarray:
    """Lower-triangular L with L L^H = h; the error names the first leading
    minor that is not positive definite."""
    a = _hermitian(h)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pivot = next(k for k in range(1, a.shape[0] + 1)
                     if np.linalg.eigvalsh(a[:k, :k])[0] <= 0)
        raise NotPositiveDefiniteError(pivot - 1) from None


def hermitian_eigenvalues(h) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending."""
    return np.linalg.eigvalsh(_hermitian(h))


def max_generalized_eigenvalue(a, b) -> float:
    """Largest eigenvalue of b^{-1} a, by whitening with the Cholesky factor of b."""
    low = cholesky(b)
    y = solve_triangular(low, _hermitian(a), lower=True)
    c = solve_triangular(low, y.conj().T, lower=True).conj().T
    return float(np.linalg.eigvalsh((c + c.conj().T) / 2)[-1])


def det_fraction(rows) -> Fraction:
    """Exact determinant of a matrix of Fractions by Gaussian elimination."""
    a = [list(r) for r in rows]
    det = Fraction(1)
    for c in range(len(a)):
        piv = next((r for r in range(c, len(a)) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def null_cdf_exact(m: int, n: int, p: int, t: float) -> Fraction:
    """The paper's eta = 0 CDF at the binary float t, exactly:

        F0(t) = K(m,p,alpha) (n+p-1)!/(m+p-1)! (t/(1+t))^{m(n+p-m)}
                * det[ (m+i+beta-1)_{j-2} P_{m+i-j}^{(j-2, beta+j-2)}(2/t+1) ]

    with i, j = 2..alpha+1 and K(m,p,alpha) = prod_{j<alpha} (p+m+j-1)!/(p+m+2j)!.
    """
    alpha, beta = n - m, p - m
    t = Fraction(t)
    x = 2 / t + 1
    block = [[pochhammer(m + i + beta - 1, j - 2) * jacobi_p(m + i - j, j - 2, beta + j - 2, x)
              if m + i - j >= 0 else Fraction(0)
              for j in range(2, alpha + 2)] for i in range(2, alpha + 2)]
    k_const = math.prod(Fraction(math.factorial(p + m + j - 1), math.factorial(p + m + 2 * j))
                        for j in range(alpha))
    pref = k_const * Fraction(math.factorial(n + p - 1), math.factorial(m + p - 1))
    return pref * (t / (1 + t)) ** (m * (n + p - m)) * det_fraction(block)
