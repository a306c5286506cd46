import math

import numpy as np
import pytest

from royroot.asymptotic import (MAX_ALPHA, AsymptoticRegime, limit_cdf_fixed_alpha,
                                limit_cdf_scaled_snr)
from royroot.finite_cdf import ProblemDims, SpikeParam, cdf_lambda_max
from royroot.specfun import bessel_i


class TestRegime:
    def test_valid(self):
        r = AsymptoticRegime(0.5, 2.0)
        assert (r.c, r.theta) == (0.5, 2.0)

    @pytest.mark.parametrize("c,theta", [(0.0, 1.0), (1.5, 1.0), (0.5, -1.0)])
    def test_invalid(self, c, theta):
        with pytest.raises(ValueError):
            AsymptoticRegime(c, theta)


class TestFixedAlphaLimit:
    def test_alpha0_is_frechet(self):
        for x in (0.1, 1.0, 42.0):
            assert limit_cdf_fixed_alpha(0, x) == pytest.approx(math.exp(-1.0 / x),
                                                                rel=1e-15)

    def test_alpha1(self):
        assert limit_cdf_fixed_alpha(1, 4.0) == pytest.approx(
            math.exp(-0.25) * bessel_i(0, 1.0), rel=1e-13)

    def test_alpha2_determinant_expansion(self):
        # 2x2 Toeplitz determinant with the I_{-k} = I_k symmetry
        expected = math.exp(-1.0) * (bessel_i(0, 2.0) ** 2
                                     - bessel_i(1, 2.0) * bessel_i(-1, 2.0))
        assert limit_cdf_fixed_alpha(2, 1.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0, 1, 2, 3, 4])
    def test_cdf_shape(self, alpha):
        xs = np.geomspace(0.02, 1e4, 80)
        vals = np.array([limit_cdf_fixed_alpha(alpha, x) for x in xs])
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] < 1e-6
        assert vals[-1] >= 1.0 - 1e-3

    def test_tiny_x_underflows_to_zero(self):
        assert limit_cdf_fixed_alpha(3, 1e-6) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            limit_cdf_fixed_alpha(MAX_ALPHA + 1, 1.0)
        with pytest.raises(ValueError):
            limit_cdf_fixed_alpha(2, 0.0)

    def test_integral_float_alpha(self):
        assert limit_cdf_fixed_alpha(2.0, 1.5) == limit_cdf_fixed_alpha(2, 1.5)
        with pytest.raises(ValueError):
            limit_cdf_fixed_alpha(2.5, 1.5)

    @pytest.mark.parametrize("alpha", [1, 4, 8, 16])
    def test_alpha_bessel_values_fill_the_toeplitz_matrix(self, alpha, monkeypatch):
        # the matrix from alpha values I_0..I_{alpha-1} equals the one from all
        # alpha^2 entries I_{j-i}, so the limit law is unchanged bit for bit
        import royroot.asymptotic as asym_mod
        xs = np.geomspace(1e-3, 100, 60)      # z = 2/sqrt(x) stays below the cutoff
        expected = []
        for x in xs:
            z = 2.0 / math.sqrt(x)
            mat = np.array([[bessel_i(j - i, z) for j in range(alpha)] for i in range(alpha)])
            sign, logdet = np.linalg.slogdet(mat)
            val = sign * math.exp(min(-1.0 / x + logdet, 700.0))
            expected.append(float(min(max(val, 0.0), 1.0)))
        calls = []
        monkeypatch.setattr(asym_mod, "bessel_i",
                            lambda k, z: calls.append(k) or bessel_i(k, z))
        got = [limit_cdf_fixed_alpha(alpha, x) for x in xs]
        assert np.array_equal(got, expected)
        assert calls == list(range(alpha)) * xs.size


class TestScaledSnrLimit:
    def test_matches_alpha0_limit_at_theta0(self):
        regime = AsymptoticRegime(1.0, 0.0)
        for x in np.geomspace(0.05, 100, 40):
            assert limit_cdf_scaled_snr(regime, x) == pytest.approx(
                limit_cdf_fixed_alpha(0, x), rel=1e-15, abs=1e-300)

    def test_direct_value(self):
        assert limit_cdf_scaled_snr(AsymptoticRegime(1.0, 1.0), 2.0) == pytest.approx(
            math.exp(-1.0), rel=1e-15)

    def test_finite_cdf_approaches_limit_monotonically(self):
        # alpha = 0 finite law of (1 + lambda_max)/m^2 with eta = theta*m
        theta = 1.0
        regime = AsymptoticRegime(1.0, theta)
        xs = np.linspace(0.2, 10, 40)
        sups = []
        for m in (10, 20, 40):
            d = ProblemDims(m, m, m)
            fin = cdf_lambda_max(d, SpikeParam(theta * m), m * m * xs - 1.0)
            lim = np.array([limit_cdf_scaled_snr(regime, x) for x in xs])
            sups.append(np.abs(fin - lim).max())
        assert sups[0] > sups[1] > sups[2]
