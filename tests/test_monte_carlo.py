import io
import math

import numpy as np
import pytest

from oracles import max_generalized_eigenvalue
from royroot.finite_cdf import (ProblemDims, SpikeParam, cdf_lambda_max, cdf_null,
                                cdf_test_statistic)
from royroot.monte_carlo import (CHUNK_TRIALS, EmpiricalCdf, McConfig, _chunk_lambda_max,
                                 _largest_root, dump_samples, joint_density_cdf_m2,
                                 ks_distance, sample_lambda_max)


def _direct_lambda_max(dims, trials, rng, root, chunk=10_000):
    """Reference sampler: draw X (m x p) and N (m x n) directly, X scaled by
    ``root`` = Sigma^{1/2}, and whiten W1 = X X^H by the Cholesky factor of
    W2 = N N^H.  Shares no code with the Bartlett-factor sampler."""
    m, n, p = dims.m, dims.n, dims.p
    lams = np.empty(trials)
    for c in range(0, trials, chunk):
        size = min(chunk, trials - c)
        x = (rng.normal(size=(size, m, p)) + 1j * rng.normal(size=(size, m, p))) / math.sqrt(2.0)
        x = root @ x
        nn = (rng.normal(size=(size, m, n)) + 1j * rng.normal(size=(size, m, n))) / math.sqrt(2.0)
        w1 = x @ x.conj().transpose(0, 2, 1)
        w2 = nn @ nn.conj().transpose(0, 2, 1)
        ll = np.linalg.cholesky(w2)
        y = np.linalg.solve(ll, w1)
        cc = np.linalg.solve(ll, y.conj().transpose(0, 2, 1)).conj().transpose(0, 2, 1)
        lams[c:c + size] = np.linalg.eigvalsh(cc)[:, -1]
    return lams


class TestConfigAndEmpirical:
    def test_config_validation(self):
        d = ProblemDims(2, 4, 4)
        with pytest.raises(ValueError):
            McConfig(d, SpikeParam(1.0), 0, 1)
        with pytest.raises(ValueError):
            McConfig(d, SpikeParam(1.0), 10, -1)
        with pytest.raises(ValueError):
            McConfig(d, SpikeParam(1.0), 10, 2 ** 64)
        with pytest.raises(ValueError):
            McConfig(d, SpikeParam(1.0), 10, 1, workers=0)

    def test_empirical_evaluate(self):
        emp = EmpiricalCdf([3.0, 1.0, 2.0])
        assert np.all(np.diff(emp.samples) >= 0)
        assert emp.count == 3
        assert emp.evaluate(0.5) == 0.0
        assert emp.evaluate(1.0) == pytest.approx(1 / 3)
        assert emp.evaluate(2.5) == pytest.approx(2 / 3)
        assert emp.evaluate(3.0) == 1.0
        np.testing.assert_allclose(emp.evaluate(np.array([1.0, 9.0])), [1 / 3, 1.0])

    def test_scaled(self):
        emp = EmpiricalCdf([1.0, 2.0]).scaled(0.5)
        np.testing.assert_allclose(emp.samples, [0.5, 1.0])
        with pytest.raises(ValueError):
            EmpiricalCdf([1.0]).scaled(0.0)

    def test_dump_samples(self):
        buf = io.StringIO()
        dump_samples(EmpiricalCdf([0.5, 1.25]), buf)
        lines = buf.getvalue().splitlines()
        assert [float(s) for s in lines] == [0.5, 1.25]


class TestKsDistance:
    def test_against_own_step_function(self):
        rng = np.random.default_rng(0)
        emp = EmpiricalCdf(rng.uniform(size=1000))
        # sup gap against the sample's own step function is exactly 1/N
        assert ks_distance(emp, emp.evaluate) == pytest.approx(1.0 / emp.count)

    def test_single_sample(self):
        emp = EmpiricalCdf([4.0])
        assert ks_distance(emp, lambda x: np.full_like(x, 0.5)) == pytest.approx(0.5)

    def test_uniform_vs_identity(self):
        rng = np.random.default_rng(123)
        emp = EmpiricalCdf(rng.uniform(size=100_000))
        assert ks_distance(emp, lambda x: np.clip(x, 0.0, 1.0)) < 0.01


class TestSampler:
    def test_scalar_law(self):
        # m = n = 1, p = 3, no spike: CDF is (t/(1+t))^3
        d = ProblemDims(1, 1, 3)
        emp = sample_lambda_max(McConfig(d, SpikeParam(0.0), 100_000, 42))
        ks = ks_distance(emp, lambda t: (t / (1.0 + t)) ** 3)
        assert ks < 0.006

    def test_spiked_law_matches_exact_cdf(self):
        d = ProblemDims(2, 4, 4)
        spike = SpikeParam(1.0)
        emp = sample_lambda_max(McConfig(d, spike, 50_000, 7))
        assert ks_distance(emp, lambda t: cdf_lambda_max(d, spike, t)) < 0.01

    def test_statistic_scale_matches_exact_cdf(self):
        d = ProblemDims(2, 4, 8)
        spike = SpikeParam(2.0)
        emp = sample_lambda_max(McConfig(d, spike, 50_000, 19)).scaled(d.n / d.p)
        assert ks_distance(emp, lambda x: cdf_test_statistic(d, spike, x)) < 0.01

    def test_worker_count_does_not_change_samples(self):
        d = ProblemDims(2, 4, 4)
        spike = SpikeParam(1.0)
        one = sample_lambda_max(McConfig(d, spike, 20_000, 5, workers=1))
        four = sample_lambda_max(McConfig(d, spike, 20_000, 5, workers=4))
        assert np.array_equal(one.samples, four.samples)

    def test_trial_prefix_stability(self):
        # first trials are unchanged when more are requested
        d = ProblemDims(2, 4, 4)
        spike = SpikeParam(1.0)
        small = sample_lambda_max(McConfig(d, spike, 3_000, 5))
        large = sample_lambda_max(McConfig(d, spike, 6_000, 5))
        assert np.isin(small.samples, large.samples).all()

    def test_unitary_invariance_of_spike_direction(self):
        # planting the spike along a random unit vector instead of e1 leaves
        # the law unchanged (two-sample KS on 100k draws each)
        from scipy.stats import ks_2samp

        d = ProblemDims(2, 3, 4)
        eta = 2.0
        emp = sample_lambda_max(McConfig(d, SpikeParam(eta), 100_000, 21))

        rng = np.random.default_rng(77)
        v = rng.normal(size=d.m) + 1j * rng.normal(size=d.m)
        v /= np.linalg.norm(v)
        # sqrt(I + eta v v^H) = I + (sqrt(1+eta) - 1) v v^H
        root = np.eye(d.m) + (math.sqrt(1 + eta) - 1.0) * np.outer(v, v.conj())
        lams = _direct_lambda_max(d, 100_000, rng, root)
        stat = ks_2samp(emp.samples, lams).statistic
        assert stat < 0.01

    def test_strong_spike_dominates_null(self):
        d = ProblemDims(4, 4, 4)
        null = sample_lambda_max(McConfig(d, SpikeParam(0.0), 20_000, 3))
        spiked = sample_lambda_max(McConfig(d, SpikeParam(100.0), 20_000, 3))
        assert spiked.samples.mean() > null.samples.mean()
        # one-sided KS: the null CDF sits far above the spiked one somewhere
        grid = np.concatenate([null.samples, spiked.samples])
        gap = null.evaluate(grid) - spiked.evaluate(grid)
        assert gap.max() > 0.5

    def test_batched_path_agrees_with_detmat(self):
        # the vectorized whitening must match the one-pair reference routine
        rng = np.random.default_rng(6)
        m, n, p = 3, 5, 6
        x = (rng.normal(size=(40, m, p)) + 1j * rng.normal(size=(40, m, p)))
        nn = (rng.normal(size=(40, m, n)) + 1j * rng.normal(size=(40, m, n)))
        w1 = x @ x.conj().transpose(0, 2, 1)
        w2 = nn @ nn.conj().transpose(0, 2, 1)
        ll = np.linalg.cholesky(w2)
        y = np.linalg.solve(ll, w1)
        cc = np.linalg.solve(ll, y.conj().transpose(0, 2, 1)).conj().transpose(0, 2, 1)
        batched = np.linalg.eigvalsh(cc)[:, -1]
        for k in range(40):
            ref = max_generalized_eigenvalue((w1[k] + w1[k].conj().T) / 2,
                                             (w2[k] + w2[k].conj().T) / 2)
            assert batched[k] == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("case,eta,trials", [
        ((1, 1, 3), 0.0, 40_000),
        ((3, 3, 5), 2.0, 40_000),   # n = m: the last T2 diagonal is Gamma(1)
        ((2, 4, 4), 1.0, 40_000),
        ((8, 12, 16), 1.0, 16_000),
    ])
    def test_matches_direct_sampler(self, case, eta, trials):
        # two-sample KS against the X/N construction, no exact CDF involved;
        # c = 2.5 in c sqrt(2/N) puts a correct sampler's failure odds near 1e-5
        from scipy.stats import ks_2samp

        d = ProblemDims(*case)
        emp = sample_lambda_max(McConfig(d, SpikeParam(eta), trials, 31))
        root = np.diag([math.sqrt(1.0 + eta)] + [1.0] * (d.m - 1))
        ref = _direct_lambda_max(d, trials, np.random.default_rng(32), root)
        assert ks_2samp(emp.samples, ref).statistic < 2.5 * math.sqrt(2.0 / trials)

    @pytest.mark.parametrize("m", [1, 8])
    def test_chunk_trials_do_not_depend_on_count(self, m):
        d = ProblemDims(m, m + 4, m + 8)
        full = _chunk_lambda_max(d, 1.0, 11, 2, CHUNK_TRIALS)
        assert full.shape == (CHUNK_TRIALS,)
        for count in (1, CHUNK_TRIALS - 1):
            part = _chunk_lambda_max(d, 1.0, 11, 2, count)
            assert np.array_equal(part, full[:count])

    @pytest.mark.parametrize("trials", [CHUNK_TRIALS + 1, 2 * CHUNK_TRIALS + 1])
    def test_partial_last_chunk_is_worker_independent(self, trials):
        d = ProblemDims(2, 4, 4)
        one = sample_lambda_max(McConfig(d, SpikeParam(1.0), trials, 9, workers=1))
        three = sample_lambda_max(McConfig(d, SpikeParam(1.0), trials, 9, workers=3))
        assert one.count == trials
        assert np.array_equal(one.samples, three.samples)

    def test_largest_root_matches_detmat(self):
        # the production whitening of Bartlett factors, pair by pair
        rng = np.random.default_rng(12)
        for m in (1, 2, 3, 5, 8):
            shape = (8, m, m)
            t1, t2 = (np.tril(rng.normal(size=shape) + 1j * rng.normal(size=shape), -1)
                      + np.eye(m) * rng.uniform(0.5, 2.0, size=(8, 1, m)) for _ in range(2))
            got = _largest_root(t1, t2)
            for k in range(8):
                w1 = t1[k] @ t1[k].conj().T
                w2 = t2[k] @ t2[k].conj().T
                assert got[k] == pytest.approx(max_generalized_eigenvalue(w1, w2), rel=1e-10)


class TestJointDensityQuadrature:
    def test_normalization_spiked(self):
        assert joint_density_cdf_m2(4, 5, 2.0, float("inf")) == pytest.approx(
            1.0, abs=1e-8)

    def test_normalization_null(self):
        assert joint_density_cdf_m2(3, 3, 0.0, float("inf")) == pytest.approx(
            1.0, abs=1e-8)

    def test_matches_null_cdf(self):
        got = joint_density_cdf_m2(3, 3, 0.0, 1.5)
        assert got == pytest.approx(cdf_null(ProblemDims(2, 3, 3), 1.5), abs=1e-7)

    def test_matches_spiked_cdf(self):
        got = joint_density_cdf_m2(4, 5, 2.0, 2.0)
        expected = cdf_lambda_max(ProblemDims(2, 4, 5), SpikeParam(2.0), 2.0)
        assert got == pytest.approx(expected, abs=1e-6)

    def test_envelope(self):
        with pytest.raises(ValueError):
            joint_density_cdf_m2(13, 5, 1.0, 2.0)
        with pytest.raises(ValueError):
            joint_density_cdf_m2(4, 1, 1.0, 2.0)
        with pytest.raises(ValueError):
            joint_density_cdf_m2(4, 5, -1.0, 2.0)
        with pytest.raises(ValueError):
            joint_density_cdf_m2(4, 5, 1.0, 0.0)
