import math

import numpy as np
import pytest
from scipy.special import iv as scipy_iv

from oracles import (binomial, gauss_2f1_b_equals_c, gauss_2f1_terminating, log_gamma,
                     pochhammer)
from royroot.specfun import LogScaled, bessel_i, jacobi_p_log, log_pochhammer


def jacobi_p(deg, a, b, x):
    """P_deg^{(a,b)}(x) as a plain value, from jacobi_p_log's (log|P|, sign)."""
    if deg < 0 or deg != int(deg):
        raise ValueError(f"jacobi_p requires a nonnegative integer degree, got {deg}")
    logmag, sign = jacobi_p_log(int(deg), a, b, x)
    out = sign * np.exp(logmag)
    return float(out) if np.ndim(x) == 0 else out


def jacobi_sum(deg, a, b, x):
    """Independent oracle: the explicit finite sum
    P_n^{(a,b)}(x) = sum_k C(n+a, n-k) C(n+k+a+b, k) ((x-1)/2)^k."""
    return sum(binomial(deg + a, deg - k) * binomial(deg + k + a + b, k)
               * ((x - 1.0) / 2.0) ** k for k in range(deg + 1))


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)
        # 20! accumulated exactly in integer arithmetic
        fact20 = 1
        for k in range(2, 21):
            fact20 *= k
        assert log_gamma(21.0) == pytest.approx(math.log(fact20), rel=1e-14)

    def test_factorials_up_to_20(self):
        fact = 1
        for k in range(1, 21):
            fact *= k
            assert math.exp(log_gamma(k + 1.0)) == pytest.approx(fact, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-2.5)

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for x in (0.5, 1.0, 3.7, 12.0, 145.5, 1e4, 1e6):
            ref = float(mpmath.loggamma(x))
            assert log_gamma(x) == pytest.approx(ref, rel=1e-13)


class TestPochhammer:
    def test_examples(self):
        assert pochhammer(2.7, 0) == 1.0
        assert pochhammer(-3.0, 4) == 0.0
        assert pochhammer(3.0, 2) == 12.0

    def test_negative_integer_base(self):
        # (-n)_k = (-1)^k n!/(n-k)! for k <= n, 0 beyond
        assert pochhammer(-3.0, 2) == 6.0
        assert pochhammer(-3.0, 3) == -6.0
        assert pochhammer(-3.0, 5) == 0.0

    def test_addition_formula(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = rng.uniform(-6, 6)
            j = rng.integers(0, 13)
            k = rng.integers(0, 13)
            lhs = pochhammer(a, int(j + k))
            rhs = pochhammer(a, int(j)) * pochhammer(a + j, int(k))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_log_pochhammer(self):
        assert log_pochhammer(3.0, 2) == pytest.approx(math.log(12.0), rel=1e-14)
        with pytest.raises(ValueError):
            log_pochhammer(-1.0, 2)


class TestJacobi:
    def test_trivial(self):
        assert jacobi_p(0, 2.0, 3.0, 1.7) == 1.0
        assert jacobi_p(1, 2.0, 3.0, 1.0) == pytest.approx(3.0, rel=1e-15)
        assert jacobi_p(2, 0.0, 1.0, 3.0) == pytest.approx(19.0, rel=1e-14)

    @pytest.mark.parametrize("deg", [0, 1, 2, 5, 13, 34, 60])
    @pytest.mark.parametrize("a,b", [(0, 0), (0, 10), (3, 5), (10, 10)])
    @pytest.mark.parametrize("x", [1.0, 1.5, 2.5, 10.0])
    def test_recurrence_matches_finite_sum(self, deg, a, b, x):
        assert jacobi_p(deg, a, b, x) == pytest.approx(jacobi_sum(deg, a, b, x),
                                                       rel=1e-10)

    @pytest.mark.parametrize("deg,a,b,x", [(4, 1.0, 2.0, 1.8), (9, 0.0, 5.0, 3.0),
                                           (17, 2.0, 2.0, 1.2)])
    def test_derivative_identity(self, deg, a, b, x):
        # d/dx P_n^{(a,b)} = (n+a+b+1)/2 * P_{n-1}^{(a+1,b+1)}
        h = 1e-5
        fd = (jacobi_p(deg, a, b, x + h) - jacobi_p(deg, a, b, x - h)) / (2 * h)
        exact = 0.5 * (deg + a + b + 1) * jacobi_p(deg - 1, a + 1, b + 1, x)
        assert fd == pytest.approx(exact, rel=1e-5)

    def test_array_input(self):
        xs = np.array([1.0, 2.0, 3.0])
        out = jacobi_p(3, 1.0, 2.0, xs)
        assert out.shape == (3,)
        assert out[2] == pytest.approx(jacobi_sum(3, 1, 2, 3.0), rel=1e-12)

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            jacobi_p(-1, 0.0, 0.0, 2.0)
        logmag, sign = jacobi_p_log(-1, 0.0, 0.0, np.array([2.0]))
        assert sign[0] == 0.0 and logmag[0] == -np.inf

    def test_log_form_handles_huge_values(self):
        # degree 80 at a large argument overflows a double but not the log form
        logmag, sign = jacobi_p_log(80, 0.0, 3.0, np.array([1e5]))
        assert sign[0] == 1.0 and np.isfinite(logmag[0])
        assert logmag[0] > 700.0


def jacobi_log_one_degree(deg, a, b, x):
    """Reference: the recurrence for a single degree, rescaling at every step
    where a value passes 1e250, exactly as jacobi_p_log evaluated before it
    took arrays of degrees."""
    xs = np.asarray(x, dtype=float)
    if deg < 0:
        return np.full(xs.shape, -np.inf), np.zeros(xs.shape)
    if deg == 0:
        return np.zeros(xs.shape), np.ones(xs.shape)
    logscale = np.zeros(xs.shape)
    pprev = np.ones_like(xs)
    pcurr = (a + 1) + (a + b + 2) * (xs - 1) / 2
    for nn in range(2, deg + 1):
        c1 = 2 * nn * (nn + a + b) * (2 * nn + a + b - 2)
        c2 = 2 * nn + a + b - 1
        c3 = (2 * nn + a + b) * (2 * nn + a + b - 2)
        c4 = a * a - b * b
        c5 = 2 * (nn + a - 1) * (nn + b - 1) * (2 * nn + a + b)
        pnext = (c2 * (c3 * xs + c4) * pcurr - c5 * pprev) / c1
        pprev, pcurr = pcurr, pnext
        big = np.abs(pcurr) > 1e250
        pcurr = np.where(big, pcurr / 1e250, pcurr)
        pprev = np.where(big, pprev / 1e250, pprev)
        logscale = np.where(big, logscale + math.log(1e250), logscale)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(pcurr)) + logscale, np.sign(pcurr)


class TestJacobiDegreeArray:
    """One recurrence over an array of degrees gives, bit for bit, what one
    recurrence per degree gives."""

    XS = np.array([1.0, 1.0001, 1.7, 3.0, 41.0, 1e5])

    @pytest.mark.parametrize("a,b", [(0, 0), (0, 3), (3, 5), (10, 10), (2.5, 0.5)])
    def test_every_degree_bit_for_bit(self, a, b):
        top = 80   # passes 1e250 at x = 1e5, so the rescaling runs
        logmag, sign = jacobi_p_log(np.arange(top + 1), a, b, self.XS)
        assert logmag.shape == sign.shape == (top + 1, self.XS.size)
        assert np.isfinite(logmag[top, -1]) and logmag[top, -1] > 700.0
        for k in range(top + 1):
            ref = jacobi_log_one_degree(k, a, b, self.XS)
            one = jacobi_p_log(k, a, b, self.XS)
            for got in ((logmag[k], sign[k]), one):
                assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1]), k

    def test_negative_and_unsorted_degrees(self):
        degs = np.array([[3, -2], [0, 5], [-1, 3]])
        logmag, sign = jacobi_p_log(degs, 1.0, 4.0, self.XS[:4])
        assert logmag.shape == (3, 2, 4)
        for idx in np.ndindex(degs.shape):
            ref = jacobi_log_one_degree(int(degs[idx]), 1.0, 4.0, self.XS[:4])
            assert np.array_equal(logmag[idx], ref[0]) and np.array_equal(sign[idx], ref[1])
        assert np.all(logmag[0, 1] == -np.inf) and np.all(sign[0, 1] == 0.0)

    def test_all_negative_and_scalar_x(self):
        logmag, sign = jacobi_p_log(np.array([-3, -1]), 0.0, 0.0, 2.0)
        assert logmag.shape == (2,) and np.all(logmag == -np.inf) and np.all(sign == 0.0)
        logmag, sign = jacobi_p_log(4, 1.0, 2.0, 2.0)
        ref = jacobi_log_one_degree(4, 1.0, 2.0, 2.0)
        assert np.shape(logmag) == () and logmag == ref[0] and sign == ref[1]


class TestGauss2F1:
    def test_single_term(self):
        assert gauss_2f1_terminating(2.3, 0, 1.7, 0.9) == 1.0

    def test_two_terms(self):
        for z in (0.1, 0.5, -2.0):
            assert gauss_2f1_terminating(1.0, -1, 1.0, z) == pytest.approx(1.0 - z,
                                                                           rel=1e-14)

    def test_b_equals_c_identity(self):
        assert gauss_2f1_b_equals_c(3.0, 0.5) == pytest.approx(8.0, rel=1e-14)

    def test_pole_detection(self):
        with pytest.raises(ValueError):
            gauss_2f1_terminating(1.5, -3, -1.0, 0.2)
        # pole beyond the summation range is fine
        gauss_2f1_terminating(1.5, -3, -4.0, 0.2)

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.uniform(0.5, 20)
            nn = int(rng.integers(0, 9))
            c = rng.uniform(0.5, 25)
            z = rng.uniform(-0.9, 0.9)
            ref = float(mpmath.hyp2f1(a, -nn, c, z))
            got = gauss_2f1_terminating(a, -nn, c, z)
            assert got == pytest.approx(ref, rel=1e-11, abs=1e-13)


class TestBesselI:
    def test_at_zero(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(1, 0.0) == 0.0
        assert bessel_i(5, 0.0) == 0.0

    def test_order_symmetry(self):
        assert bessel_i(-2, 1.3) == bessel_i(2, 1.3)
        assert bessel_i(-7, 24.0) == bessel_i(7, 24.0)

    @pytest.mark.parametrize("order", [0, 1, 2, 5, 11])
    @pytest.mark.parametrize("z", [0.05, 1.0, 7.5, 20.0, 50.0])
    def test_against_scipy(self, order, z):
        assert bessel_i(order, z) == pytest.approx(float(scipy_iv(order, z)),
                                                   rel=1e-12, abs=1e-12)


class TestLogScaled:
    def test_roundtrip(self):
        for v in (3.5, -120.0, 1e-200):
            ls = LogScaled.from_value(v)
            assert ls.value() == pytest.approx(v, rel=1e-15)

    def test_zero(self):
        z = LogScaled.from_value(0.0)
        assert z.sign == 0 and z.value() == 0.0

    def test_multiplication(self):
        a = LogScaled.from_value(-3.0)
        b = LogScaled.from_value(2.0)
        prod = a * b
        assert prod.sign == -1
        assert prod.log_magnitude == pytest.approx(math.log(6.0), rel=1e-15)
        assert (a * LogScaled.from_value(0.0)).sign == 0

    def test_no_overflow_composition(self):
        big = LogScaled(800.0, 1)  # e^800 overflows a double
        prod = big * big
        assert prod.log_magnitude == 1600.0 and prod.sign == 1
