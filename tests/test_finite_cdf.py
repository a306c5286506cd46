import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc

from oracles import binomial, jacobi_p
import royroot.finite_cdf as fc
from royroot.finite_cdf import (ConditioningError, ProblemDims, SpikeParam, _log_phi_column,
                                _log_psi_block, cdf_lambda_max, cdf_lambda_max_general, cdf_null,
                                cdf_test_statistic, phi_entry, psi_entry,
                                psi_minor_determinant)
from royroot.monte_carlo import joint_density_cdf_m2
from royroot.specfun import jacobi_p_log, log_pochhammer


def _log_phi_row(dims, eta, i, ts):
    """Reference: log Phi_i built term by term for one row, as a plain loop."""
    m, n, p, alpha = dims.m, dims.n, dims.p, dims.alpha
    logq = (math.lgamma(n + p + i - 1) + math.lgamma(p + i - 1)
            - math.lgamma(p + m + 2 * i - 2))
    log_eta_t = math.log(eta) + np.log(ts)
    log_grow = math.log1p(eta) + np.log1p(ts)
    log_den = np.log1p(eta + ts)
    terms = []
    for k in range(alpha - i + 2):
        logc = (log_pochhammer(p + i - 1, k) + math.lgamma(alpha - i + 2)
                - math.lgamma(k + 1) - log_pochhammer(p + m + 2 * i - 2, k)
                - math.lgamma(alpha - i + 2 - k))
        terms.append(logc + (k + i - 1) * log_eta_t + p * log_grow
                     - (p + k + i - 1) * log_den)
    stack = np.stack(terms)
    peak = stack.max(axis=0)
    return logq + peak + np.log(np.exp(stack - peak).sum(axis=0))


def _log_psi_by_column(dims, rows, ts):
    """Reference: the Psi block assembled one column at a time, from one
    scalar-parameter jacobi_p_log call per column."""
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
    axes = tuple(range(2, ts.ndim + 2)) + (0, 1)
    return logmag.transpose(axes), sign.transpose(axes)


class TestProblemDims:
    def test_derived(self):
        d = ProblemDims(2, 4, 8)
        assert (d.alpha, d.beta) == (2, 6)
        assert d.kappa == 2.0
        assert d.nu == 0.25

    @pytest.mark.parametrize("m,n,p", [(3, 2, 5), (3, 5, 2), (0, 1, 1), (65, 65, 65)])
    def test_rejects(self, m, n, p):
        with pytest.raises(ValueError):
            ProblemDims(m, n, p)

    def test_spike_param(self):
        assert SpikeParam(0.0).eta == 0.0
        with pytest.raises(ValueError):
            SpikeParam(-0.1)
        with pytest.raises(ValueError):
            SpikeParam(float("nan"))

    def test_spike_param_rejects_infinite_eta(self):
        # an infinite spike made every spiked CDF a nan, caught only later
        with pytest.raises(ValueError, match="finite"):
            SpikeParam(float("inf"))


class TestPsiEntry:
    def test_unit_pochhammer_at_j2(self):
        d = ProblemDims(2, 4, 5)
        for i in (1, 2, 3):
            t = 1.7
            expected = jacobi_p(d.m + i - 2, 0, d.beta, 2.0 / t + 1.0)
            assert psi_entry(d, i, 2, t) == pytest.approx(expected, rel=1e-13)

    def test_degree_one_from_finite_sum(self):
        # (m, beta, i, j, t) = (2, 1, 1, 2, 1): P_1^{(0,1)}(3) by the explicit sum
        d = ProblemDims(2, 3, 3)
        oracle = sum(binomial(1 + 0, 1 - k) * binomial(1 + k + 0 + 1, k) * 1.0 ** k
                     for k in range(2))
        assert psi_entry(d, 1, 2, 1.0) == pytest.approx(oracle, rel=1e-14)
        assert oracle == 4.0

    def test_degree_zero_is_pochhammer_prefactor(self):
        # degree m+i-j = 0 leaves only the (m+i+beta-1)_{j-2} prefactor
        d = ProblemDims(2, 4, 5)
        i, j = 1, 3
        assert d.m + i - j == 0
        poch = (d.m + i + d.beta - 1)  # (x)_1
        assert psi_entry(d, i, j, 0.8) == pytest.approx(poch, rel=1e-14)

    def test_index_validation(self):
        d = ProblemDims(2, 4, 5)
        with pytest.raises(ValueError):
            psi_entry(d, 0, 2, 1.0)
        with pytest.raises(ValueError):
            psi_entry(d, 1, 4, 1.0)
        with pytest.raises(ValueError):
            psi_entry(d, 1, 2, -1.0)


class TestPhiEntry:
    def test_alpha0_closed_form(self):
        # alpha = 0: Phi_1 = (p-1)! ((1+eta)(1+t)/(1+eta+t))^p
        d = ProblemDims(3, 3, 5)
        eta, t = 1.5, 2.0
        got = phi_entry(d, SpikeParam(eta), 1, t)
        expected = math.lgamma(d.p) + d.p * math.log((1 + eta) * (1 + t) / (1 + eta + t))
        assert got.sign == 1
        assert got.log_magnitude == pytest.approx(expected, rel=1e-13)

    def test_vanishes_as_eta_to_zero_for_i_ge_2(self):
        d = ProblemDims(2, 4, 5)
        big = phi_entry(d, SpikeParam(1e-2), 2, 1.0).log_magnitude
        small = phi_entry(d, SpikeParam(1e-9), 2, 1.0).log_magnitude
        # log magnitude tracks (i-1) log(eta), so the value tends to 0
        assert small < big - 14.0

    def test_matches_quadrature_of_jacobi_integral(self):
        # independent oracle: adaptive quadrature of
        #   int_0^1 x^beta (1 - (eta s/(1+eta)) x)^(-gexp) P_{m+i-2}^{(0,beta)}(2x-1) dx
        # where s = t/(1+t), gexp = n+p+1-m, rescaled by the bookkeeping
        # constants that turn it into Phi_i.
        m, n, p, eta, t = 2, 3, 4, 1.0, 2.0
        d = ProblemDims(m, n, p)
        beta, alpha = d.beta, d.alpha
        s = t / (1.0 + t)
        z = eta * s / (1.0 + eta)
        gexp = n + p + 1 - m
        for i in range(1, alpha + 2):
            integral, err = quad(
                lambda x: x ** beta * (1.0 - z * x) ** (-gexp)
                * jacobi_p(m + i - 2, 0, beta, 2.0 * x - 1.0), 0.0, 1.0,
                epsabs=1e-13, epsrel=1e-12)
            assert err < 1e-9
            logq = (math.lgamma(n + p + i - 1) + math.lgamma(p + i - 1)
                    - math.lgamma(p + m + 2 * i - 2))
            scale = (math.lgamma(gexp) + math.lgamma(beta + 2 * m + 2 * i - 2)
                     - math.lgamma(beta + m + i - 1) - math.lgamma(gexp + m + i - 2))
            expected = math.exp(logq + scale) * z ** (1 - m) * integral
            got = phi_entry(d, SpikeParam(eta), i, t)
            assert got.value() == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("case", [(2, 4, 5), (4, 10, 12), (2, 10, 4), (1, 17, 3), (2, 18, 4)])
    def test_column_equals_row_by_row_series(self, case):
        # same terms in the same order, so equal to the last bit, on grids and
        # on single points (where numpy sums 8 or more terms pairwise)
        d = ProblemDims(*case)
        grid = np.geomspace(0.05, 50.0, 40)
        for ts in (grid, grid[:2], np.array([0.1]), np.array([7.0])):
            for eta in (0.3, 3.0):
                col = _log_phi_column(d, eta, ts)
                ref = np.stack([_log_phi_row(d, eta, i, ts) for i in range(1, d.alpha + 2)], -1)
                assert np.array_equal(col, ref)

    def test_requires_positive_eta(self):
        d = ProblemDims(2, 4, 5)
        with pytest.raises(ValueError):
            phi_entry(d, SpikeParam(0.0), 1, 1.0)


class TestPsiBlock:
    """The Psi block from one recurrence over every column equals, bit for
    bit, the block built one column at a time, and so does every spiked CDF
    value built on it."""

    # the benchmark's grid dims, an alpha-10 case, and (1,17,4), whose
    # upper-right entries have negative degrees
    CASES = [((2, 4, 5), 0.1, 500.0), ((5, 8, 10), 1.0, 500.0), ((16, 20, 32), 10.0, 1400.0),
             ((4, 10, 12), 0.7, 60.0), ((2, 10, 4), 0.025, 10.0), ((2, 12, 4), 0.05, 200.0),
             ((1, 17, 4), 0.05, 200.0)]

    @staticmethod
    def _outcome(call):
        """call()'s value, or the message of the ConditioningError it raised."""
        try:
            return call()
        except ConditioningError as err:
            return str(err)

    def _same(self, monkeypatch, call):
        got = self._outcome(call)
        with monkeypatch.context() as patch:
            patch.setattr(fc, "_log_psi_block", _log_psi_by_column)
            want = self._outcome(call)
        return got == want if isinstance(got, str) else np.array_equal(got, want)

    @pytest.mark.parametrize("case,lo,hi", CASES)
    def test_block_and_cdf_equal_column_by_column(self, monkeypatch, case, lo, hi):
        d = ProblemDims(*case)
        rows = range(1, d.alpha + 2)
        for ts in (np.geomspace(lo, hi, 200), np.array([lo]), np.array([np.sqrt(lo * hi)])):
            block, ref = _log_psi_block(d, rows, ts), _log_psi_by_column(d, rows, ts)
            assert all(np.array_equal(u, v) for u, v in zip(block, ref))
            for eta in (1.0, 10.0):
                assert self._same(monkeypatch, lambda: cdf_lambda_max(d, SpikeParam(eta), ts))
        if case == (1, 17, 4):
            assert (block[1] == 0.0).any()      # the zero entries of negative degree

    @pytest.mark.parametrize("budget", [1, 700])
    def test_blocks_of_ts_change_nothing(self, monkeypatch, budget):
        # long grids are taken in blocks of ts, here one point or a few at a time
        for case in [(2, 4, 5), (2, 12, 4), (16, 20, 32)]:
            d, ts = ProblemDims(*case), np.geomspace(0.05, 200.0, 203)
            rows = range(1, d.alpha + 2)
            with monkeypatch.context() as patch:
                patch.setattr(fc, "_PSI_BLOCK", budget)
                block = _log_psi_block(d, rows, ts)
            ref = _log_psi_by_column(d, rows, ts)
            assert all(np.array_equal(u, v) for u, v in zip(block, ref))

    def test_rescaled_values_equal_column_by_column(self, monkeypatch):
        # at t = 1e-4 the degree-63 entries pass 1e250, so the recurrence rescales
        d = ProblemDims(60, 64, 64)
        ts = np.array([1e-4, 2e-4, 1e-3])
        block = _log_psi_block(d, range(1, d.alpha + 2), ts)
        assert block[0].max() > math.log(1e250)
        ref = _log_psi_by_column(d, range(1, d.alpha + 2), ts)
        assert all(np.array_equal(u, v) for u, v in zip(block, ref))
        for eta in (0.3, 3.0):
            assert self._same(monkeypatch, lambda: cdf_lambda_max(d, SpikeParam(eta), ts))
            assert self._same(monkeypatch, lambda: fc._general_grid(d, eta, ts))

    def test_same_conditioning_error(self, monkeypatch):
        d, ts = ProblemDims(8, 24, 16), np.geomspace(0.05, 200.0, 400)
        with pytest.raises(ConditioningError):
            cdf_lambda_max(d, SpikeParam(3.0), ts)
        assert self._same(monkeypatch, lambda: cdf_lambda_max(d, SpikeParam(3.0), ts))

    def test_parameter_arrays_equal_one_call_per_pair(self):
        a, b = np.array([0, 3, 1, 2.5]), np.array([0, 5, 60, 0.5])
        degs = np.array([[80, 2, -1, 7], [0, 40, 3, -2], [5, 1, 0, 12]])
        xs = np.array([1.0, 1.7, 41.0, 1e5])    # degree 80 at 1e5 passes 1e250
        logmag, sign = jacobi_p_log(degs, a, b, xs)
        assert logmag.shape == sign.shape == (3, 4, 4)
        assert logmag[0, 0, -1] > math.log(1e250)
        for col in range(4):
            one = jacobi_p_log(degs[:, col], a[col], b[col], xs)
            assert np.array_equal(logmag[:, col], one[0]) and np.array_equal(sign[:, col], one[1])


class TestCdfLambdaMax:
    def test_scalar_case_beta_prime(self):
        # m = n = 1: ratio of gamma variates, CDF (t/(1+eta+t))^p
        for p in (1, 4, 9):
            d = ProblemDims(1, 1, p)
            for eta in (0.0, 0.7, 5.0):
                for t in (0.2, 1.0, 7.0):
                    expected = (t / (1.0 + eta + t)) ** p
                    assert cdf_lambda_max(d, SpikeParam(eta), t) == pytest.approx(
                        expected, rel=1e-12)

    def test_m1_general_n_betainc_oracle(self):
        # m = 1, n > 1 exercises the full determinant including zero rows:
        # lambda/(1+eta) is a beta-prime(p, n) variate
        d = ProblemDims(1, 3, 4)
        eta = 1.5
        ts = np.linspace(0.2, 30, 25)
        got = cdf_lambda_max_general(d, SpikeParam(eta), ts)
        expected = betainc(d.p, d.n, ts / (1.0 + eta + ts))
        np.testing.assert_allclose(got, expected, rtol=0, atol=2e-13)

    def test_alpha0_closed_form_value(self):
        d = ProblemDims(3, 3, 5)
        got = cdf_lambda_max(d, SpikeParam(2.0), 4.0)
        assert got == pytest.approx((4.0 / 5.0) ** 15 / 1.4 ** 5, rel=1e-13)

    def test_normalization_limits(self):
        for (m, n, p) in [(1, 2, 3), (2, 4, 5), (3, 3, 7), (5, 8, 10)]:
            d = ProblemDims(m, n, p)
            for eta in (0.0, 3.0):
                assert cdf_lambda_max(d, SpikeParam(eta), 1e6) >= 1.0 - 1e-3
                assert cdf_lambda_max(d, SpikeParam(eta), float("inf")) == 1.0
                assert cdf_lambda_max(d, SpikeParam(eta), 0.0) == 0.0
                assert cdf_lambda_max(d, SpikeParam(eta), -2.0) == 0.0

    def test_monotone_in_t(self):
        rng = np.random.default_rng(1)
        for (m, n, p) in [(2, 4, 5), (3, 5, 7), (1, 4, 6)]:
            d = ProblemDims(m, n, p)
            for eta in (0.0, 0.5, 4.0):
                ts = np.sort(rng.uniform(0.01, 50, size=40))
                vals = cdf_lambda_max(d, SpikeParam(eta), ts)
                assert np.all(np.diff(vals) >= -1e-12)

    def test_spike_stochastic_ordering_alpha0(self):
        d = ProblemDims(4, 4, 6)
        for t in (0.5, 2.0, 10.0):
            f0 = cdf_lambda_max(d, SpikeParam(0.0), t)
            f1 = cdf_lambda_max(d, SpikeParam(1.0), t)
            f2 = cdf_lambda_max(d, SpikeParam(3.0), t)
            assert f2 < f1 < f0

    def test_general_path_agrees_with_alpha0(self):
        d = ProblemDims(3, 3, 5)
        ts = np.linspace(0.3, 40, 50)
        gen = cdf_lambda_max_general(d, SpikeParam(2.0), ts)
        closed = cdf_lambda_max(d, SpikeParam(2.0), ts)
        np.testing.assert_allclose(gen, closed, rtol=1e-10)

    def test_general_path_agrees_with_null_at_tiny_eta(self):
        d = ProblemDims(2, 4, 5)
        ts = np.linspace(0.3, 40, 50)
        gen = cdf_lambda_max_general(d, SpikeParam(1e-8), ts)
        null = cdf_null(d, ts)
        np.testing.assert_allclose(gen, null, rtol=0, atol=1e-6)

    def test_domain_transform_consistency(self):
        # evaluating at t and at s/(1-s) with s = t/(1+t) must agree to 1e-12;
        # the latter routes every internal argument through the x-domain form
        for (m, n, p, eta) in [(2, 4, 5, 2.0), (3, 5, 8, 0.7), (2, 3, 3, 0.0)]:
            d = ProblemDims(m, n, p)
            for t in (0.3, 1.0, 4.0, 25.0):
                s = t / (1.0 + t)
                t_alt = s / (1.0 - s)
                a = cdf_lambda_max(d, SpikeParam(eta), t)
                b = cdf_lambda_max(d, SpikeParam(eta), t_alt)
                assert b == pytest.approx(a, rel=1e-12)

    def test_rejects_nan(self):
        d = ProblemDims(2, 4, 5)
        with pytest.raises(ValueError):
            cdf_lambda_max(d, SpikeParam(1.0), float("nan"))

    def test_out_of_range_value_raises_conditioning_error(self, monkeypatch):
        # the [0,1] guard must reject assembled values beyond the 1e-9 slack
        # instead of silently clamping them: the single coefficient
        # c_0 = 0.5 * 2^16 gives F0(1) = 2^15 / 2^N = 2 at N = 14
        import royroot.finite_cdf as fc
        d = ProblemDims(2, 4, 5)
        monkeypatch.setattr(fc, "_minor_coefficients",
                            lambda m, n, p, drop_row: (np.array([0.5]), np.array([16])))
        assert fc._null_grid(d, np.array([1.0]))[0] == 2.0
        with pytest.raises(ConditioningError):
            fc.cdf_null(d, 1.0)


class TestCdfNull:
    def test_alpha0_power_law(self):
        d = ProblemDims(3, 3, 6)
        for t in (0.5, 2.0):
            assert cdf_null(d, t) == pytest.approx((t / (1 + t)) ** 18, rel=1e-13)

    def test_scalar_value(self):
        assert cdf_null(ProblemDims(1, 1, 2), 1.0) == pytest.approx(0.25, rel=1e-14)

    def test_matches_m2_quadrature(self):
        d = ProblemDims(2, 3, 3)
        got = cdf_null(d, 1.5)
        oracle = joint_density_cdf_m2(3, 3, 0.0, 1.5)
        assert got == pytest.approx(oracle, abs=1e-7)


class TestCdfTestStatistic:
    def test_kappa_one_identical(self):
        d = ProblemDims(2, 4, 4)
        for x in (0.5, 2.0, 9.0):
            assert cdf_test_statistic(d, SpikeParam(1.0), x) == cdf_lambda_max(
                d, SpikeParam(1.0), x)

    def test_kappa_two_rescale(self):
        d = ProblemDims(2, 4, 8)
        xs = np.array([0.4, 1.0, 3.0])
        np.testing.assert_allclose(cdf_test_statistic(d, SpikeParam(1.5), xs),
                                   cdf_lambda_max(d, SpikeParam(1.5), 2.0 * xs),
                                   rtol=1e-14)


class TestPsiMinorDeterminant:
    def test_empty_is_one(self):
        d = ProblemDims(3, 3, 5)
        det = psi_minor_determinant(d, 2.0, drop_row=1)
        assert det.sign == 1 and det.log_magnitude == 0.0

    @pytest.mark.parametrize("drop_row", [1, 2, 3])
    def test_matches_dense_determinant(self, drop_row):
        d = ProblemDims(2, 4, 5)
        t = 1.3
        rows = [i for i in range(1, d.alpha + 2) if i != drop_row]
        dense = np.array([[psi_entry(d, i, j, t) for j in range(2, d.alpha + 2)]
                          for i in rows])
        expected = np.linalg.det(dense)
        got = psi_minor_determinant(d, t, drop_row=drop_row)
        assert got.value() == pytest.approx(expected, rel=1e-10)

    def test_drop_row_validation(self):
        with pytest.raises(ValueError):
            psi_minor_determinant(ProblemDims(2, 4, 5), 1.0, drop_row=4)
