"""Ground-truth oracles: spiked complex Wishart sampling of the largest
generalized eigenvalue, empirical CDFs with KS distance, and direct
quadrature of the m = 2 joint eigenvalue density.

Sampling determinism
--------------------
Trials are generated in fixed-size chunks of ``CHUNK_TRIALS``.  A trial
draws the lower-triangular Bartlett factors of its two Wishart matrices
(Edelman & Rao, "Random matrix theory", Acta Numerica 2005): m(m-1)/2
complex Gaussians and m Gamma variates per factor, so O(m^2) draws in place
of m(n+p).  Chunk c drives them from two counter-based Philox streams keyed
by (seed, c): the Gaussians from the key's own stream and the Gammas from
its jumped copy.  Both samplers use a variable number of raw draws, so each
stream is consumed trial by trial, and keeping the two apart means neither
stream's position depends on the other's.  A trial's draws therefore depend
only on the seed, its chunk and its place in the chunk, i.e. on (seed,
trial index): results are bit-identical for a given (seed, trials) no matter
how many workers run the chunks, and the first trials do not change when
more are requested.

Complex Gaussians have real and imaginary parts N(0, 1/2), so E|z|^2 = 1,
the convention under which the closed-form CDFs hold.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .finite_cdf import ProblemDims, SpikeParam

__all__ = [
    "CHUNK_TRIALS",
    "McConfig",
    "EmpiricalCdf",
    "sample_lambda_max",
    "ks_distance",
    "joint_density_cdf_m2",
    "dump_samples",
]

CHUNK_TRIALS = 4096


@dataclass(frozen=True)
class McConfig:
    """Sampling run configuration; results depend only on (dims, spike, trials, seed)."""

    dims: ProblemDims
    spike: SpikeParam
    trials: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


class EmpiricalCdf:
    """Sorted sample set with step-function evaluation."""

    __slots__ = ("samples",)

    def __init__(self, samples):
        arr = np.sort(np.asarray(samples, dtype=float))
        if arr.size == 0:
            raise ValueError("empirical CDF needs at least one sample")
        self.samples = arr

    @property
    def count(self) -> int:
        return self.samples.size

    def evaluate(self, x):
        """Fraction of samples <= x; scalar or array x."""
        out = np.searchsorted(self.samples, x, side="right") / self.count
        return float(out) if np.ndim(x) == 0 else out

    def scaled(self, factor: float) -> "EmpiricalCdf":
        """Empirical CDF of factor * sample (factor > 0), e.g. the p/n rescale."""
        if not factor > 0:
            raise ValueError(f"factor must be positive, got {factor}")
        return EmpiricalCdf(self.samples * factor)


def _largest_root(T1: np.ndarray, T2: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of (T1 T1^H)(T2 T2^H)^{-1} for stacks of square factors.

    With Y = T2^{-1} T1 that matrix is similar to Y Y^H, so one batched solve
    whitens the pair and a Hermitian eigensolve finishes it.
    """
    Y = np.linalg.solve(T2, T1)
    return np.linalg.eigvalsh(Y @ Y.conj().transpose(0, 2, 1))[:, -1]


def _chunk_lambda_max(dims: ProblemDims, eta: float, seed: int, chunk: int, count: int):
    """Largest generalized eigenvalues for `count` trials of chunk `chunk`.

    W1 = (D T1)(D T1)^H and W2 = T2 T2^H, with T1, T2 the lower-triangular
    Bartlett factors of CW_m(p, I) and CW_m(n, I) and D = diag(sqrt(1+eta),
    1, ..., 1) the spiked scale's root (spike along e1; any unit vector gives
    the same law).  D T1 differs from T1 only in its (0, 0) entry.
    """
    m, n, p = dims.m, dims.n, dims.p
    bits = np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64))
    gammas = np.random.Generator(bits.jumped())
    normals = np.random.Generator(bits)
    below = np.tril_indices(m, -1)
    diag = np.arange(m)
    T = np.zeros((count, 2, m, m), dtype=complex)
    # strictly-lower entries CN(0, 1): real and imaginary parts N(0, 1/2)
    z = normals.standard_normal((count, 2, below[0].size, 2)) * math.sqrt(0.5)
    T[:, :, below[0], below[1]] = z.view(complex)[..., 0]
    # |T_ii|^2 ~ Gamma(k - i + 1), i = 1..m, with k = p for T1 and k = n for T2
    shapes = np.array([[p], [n]]) - diag
    T[:, :, diag, diag] = np.sqrt(gammas.standard_gamma(shapes, size=(count, 2, m)))
    T[:, 0, 0, 0] *= math.sqrt(1.0 + eta)
    return _largest_root(T[:, 0], T[:, 1])


def sample_lambda_max(config: McConfig) -> EmpiricalCdf:
    """Draw `trials` largest eigenvalues of W1 W2^{-1} under the configured spike.

    W1 = X X^H from p columns of CN_m(0, I + eta e1 e1^H) and W2 = N N^H from
    n columns of CN_m(0, I).  Samples are in the F-matrix scale; use
    ``.scaled(n/p)`` for the test-statistic scale.
    """
    dims, eta = config.dims, config.spike.eta
    nchunks = (config.trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    counts = [min(CHUNK_TRIALS, config.trials - c * CHUNK_TRIALS) for c in range(nchunks)]

    def run(c):
        return _chunk_lambda_max(dims, eta, config.seed, c, counts[c])

    if config.workers == 1 or nchunks == 1:
        parts = [run(c) for c in range(nchunks)]
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            parts = list(pool.map(run, range(nchunks)))
    return EmpiricalCdf(np.concatenate(parts))


def ks_distance(emp: EmpiricalCdf, analytic) -> float:
    """sup_i max(|i/N - F(x_i)|, |(i-1)/N - F(x_i)|) over the sorted samples.

    `analytic` must map an ndarray of points to CDF values.
    """
    f = np.asarray(analytic(emp.samples), dtype=float)
    n = emp.count
    i = np.arange(1, n + 1)
    return float(max(np.abs(i / n - f).max(), np.abs((i - 1) / n - f).max()))


def dump_samples(emp: EmpiricalCdf, stream) -> None:
    """Write one sample per line (17 significant digits) for external tooling."""
    for v in emp.samples:
        stream.write(f"{v:.17g}\n")


def joint_density_cdf_m2(n: int, p: int, eta: float, t: float, nodes: int = 64) -> float:
    """Pr(lambda_max <= t) for m = 2 by quadrature of the joint eigenvalue density.

    Integrates the transformed two-eigenvalue density g(x1, x2) over the
    ordered region 0 <= x1 <= x2 <= t/(1+t) with tensor Gauss-Legendre rules
    mapped onto the simplex.  The spike part of the density is evaluated in
    its cancellation-free polynomial-quotient form: the (x2 - x1) denominators
    of the two-term residue sum are cancelled symbolically against the squared
    Vandermonde, leaving

        (x2-x1)^2 * c * sum_{l<g} (1-c x1)^l (1-c x2)^{g-1-l}
                  / ((1-c x1)(1-c x2))^g

    with c = eta/(1+eta) and g = p + n - 1.  With eta = 0 the plain
    unspiked density is integrated instead.  t = inf integrates the full
    density, which is the normalization check for the constants.
    """
    m = 2
    if not (m <= n <= 12 and m <= p <= 12):
        raise ValueError(f"quadrature oracle envelope is 2 <= n,p <= 12, got n={n}, p={p}")
    if not eta >= 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    s = 1.0 if math.isinf(t) else t / (1.0 + t)

    xg, wg = np.polynomial.legendre.leggauss(nodes)
    u, wu = (xg + 1.0) / 2.0, wg / 2.0
    x2 = s * u
    x1 = x2[:, None] * u[None, :]
    X2 = np.broadcast_to(x2[:, None], x1.shape)
    w2d = (s * wu)[:, None] * (x2[:, None] * wu[None, :])  # jacobian s * x2

    logk1 = (math.lgamma(n + p) + math.lgamma(n + p - 1)
             - math.lgamma(n) - math.lgamma(n - 1) - math.lgamma(p) - math.lgamma(p - 1))
    base = (x1 * X2) ** (p - 2) * ((1 - x1) * (1 - X2)) ** (n - 2) * (X2 - x1) ** 2
    if eta == 0.0:
        dens = math.exp(logk1) * base
    else:
        c = eta / (1.0 + eta)
        g = p + n - 1
        a1, a2 = 1.0 - c * x1, 1.0 - c * X2
        ssum = sum(a1 ** l * a2 ** (g - 1 - l) for l in range(g))
        logc0 = logk1 - math.log(p + n - 1) - math.log(eta) - (p - 1) * math.log1p(eta)
        dens = math.exp(logc0) * base * c * ssum / (a1 * a2) ** g
    return float((dens * w2d).sum())
