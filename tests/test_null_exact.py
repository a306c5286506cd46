"""The eta = 0 CDF as an exact positive-coefficient polynomial, checked over
the envelope m, n, p <= 64, alpha <= 16 against the paper's determinant in
exact rational arithmetic (``oracles.null_cdf_exact``)."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import null_cdf_exact
import royroot.finite_cdf as fc
from royroot.finite_cdf import (ConditioningError, ProblemDims, SpikeParam, _minor_coefficients,
                                _minor_grid, _minor_polynomial, _null_determinant_at_zero,
                                _null_logit, _tail_coefficients, cdf_lambda_max, cdf_null,
                                cdf_test_statistic, psi_minor_determinant)
from royroot.roc import BracketingError, calibrate_threshold

# both tolerances were fixed before the sweep was first run
CDF_REL_TOL = 1e-12
CAL_ABS_TOL = 1e-12
SWEEP_PF = np.array([1e-6, 1e-3, 0.1, 0.5, 0.9])
# fixed before the calibration accuracy test was first run
CAL_REL_TOL = 1e-10
CAL_PF = [1e-15, 1e-12, 1e-9, 1e-6, 0.5, 1 - 1e-9, 1 - 1e-12]
# fixed before the one-pass evaluator was first checked: the logit to the
# solver's 1e-12 stop rule, its slope to 1e-11 relative
LOGIT_ABS_TOL = 1e-12
SLOPE_REL_TOL = 1e-11
LOGIT_PF = [1 - 1e-15, 0.9, 0.5, 1e-3, 1e-12]    # F0 from about 1e-15 to 1 - 1e-12

# every m the envelope allows in powers of two, alpha from 0 to 16 (five
# cases at 16), p from m to 64
SWEEP_DIMS = [(1, 17, 4), (1, 9, 64), (2, 18, 4), (2, 12, 64), (2, 8, 5), (3, 15, 40),
              (4, 20, 64), (4, 20, 8), (4, 14, 7), (5, 19, 9), (8, 24, 16), (8, 18, 11),
              (16, 26, 20), (32, 40, 64), (48, 56, 64), (64, 64, 64)]


@pytest.mark.parametrize("dims", SWEEP_DIMS, ids=lambda d: "-".join(map(str, d)))
def test_envelope_sweep(dims):
    d = ProblemDims(*dims)
    mant, expo = _minor_coefficients(*dims, 1)
    assert mant.size == d.m * d.alpha + 1
    # c_0 = 1: the paper's prefactor is 1 / d_0 exactly
    assert (mant[0], expo[0]) == (0.5, 1)
    assert np.all(mant >= 0), "a negative c_k: the positive-sum form does not hold here"
    ts = d.kappa * calibrate_threshold(d, SWEEP_PF)
    ts = np.append(ts, ts[-1] / 2)           # one point further into the lower tail
    exact = [float(null_cdf_exact(*dims, t)) for t in ts]
    for pf, f in zip(SWEEP_PF, exact):
        assert abs(f - (1 - pf)) <= CAL_ABS_TOL, pf
    np.testing.assert_allclose(cdf_null(d, ts), exact, rtol=CDF_REL_TOL, atol=0)


@pytest.mark.parametrize("dims", [(1, 1, 1), (1, 2, 1), (1, 9, 4), (1, 17, 64), (1, 25, 3)])
def test_m1_coefficients_are_binomials(dims):
    # m = 1: F0(t) = sum_{k <= alpha} C(N,k) u^k / (1+u)^N, a binomial tail
    d = ProblemDims(*dims)
    big_n = d.n + d.p - 1
    coefs = _minor_polynomial(d, 1)
    assert [Fraction(c, coefs[0]) for c in coefs] == [math.comb(big_n, k)
                                                      for k in range(d.alpha + 1)]


def test_small_cases_match_the_exact_determinant():
    for dims, t in [((2, 4, 5), 1.3), ((3, 3, 6), 2.0), ((2, 3, 3), 0.25), ((5, 8, 10), 7.5)]:
        exact = float(null_cdf_exact(*dims, t))
        assert cdf_null(ProblemDims(*dims), t) == pytest.approx(exact, rel=CDF_REL_TOL)


def test_null_paths_share_the_polynomial():
    d = ProblemDims(4, 10, 12)
    ts = np.geomspace(0.5, 80.0, 40)
    null = cdf_null(d, ts)
    assert np.array_equal(cdf_lambda_max(d, SpikeParam(0.0), ts), null)
    xs = ts / d.kappa
    assert np.array_equal(cdf_test_statistic(d, SpikeParam(0.0), xs), cdf_null(d, d.kappa * xs))


def test_coefficients_are_built_lazily_and_cached_per_dims():
    dims = (7, 11, 13)
    _minor_coefficients.cache_clear()
    d = ProblemDims(*dims)
    assert _minor_coefficients.cache_info().currsize == 0
    cdf_null(d, [0.5, 2.0])
    cdf_null(d, 3.0)
    calibrate_threshold(d, 0.1)
    info = _minor_coefficients.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits >= 2
    mant, expo = _minor_coefficients(*dims, 1)
    assert not mant.flags.writeable and not expo.flags.writeable


def test_coefficients_are_correctly_rounded():
    # the mantissa and power-of-two exponent hold every c_k to half an ulp,
    # however large it is (up to 2^200 here, about 1e375 at (32, 48, 64))
    d = ProblemDims(4, 20, 64)
    coefs = _minor_polynomial(d, 1)
    mant, expo = _minor_coefficients(4, 20, 64, 1)
    assert max(expo) > 200
    for k, c in enumerate(coefs):
        exact = Fraction(c, coefs[0])
        stored = Fraction(float(mant[k])) * Fraction(2) ** int(expo[k])
        assert 0.5 <= mant[k] < 1.0
        assert abs(stored - exact) <= exact * Fraction(1, 2 ** 53), k


@pytest.mark.parametrize("dims", [(2, 4, 5), (3, 5, 4), (4, 10, 12), (2, 12, 4)])
def test_slope_minor_matches_its_determinant(dims):
    # e_2(u) / d_0 against the paper's constant times the float minor, where
    # the float determinant is still accurate; every coefficient is >= 0
    d = ProblemDims(*dims)
    mant, _ = _minor_coefficients(*dims, 2)
    assert mant.size == d.m * d.alpha and np.all(mant >= 0)
    big_n = d.m * (d.n + d.p - d.m)
    for t in (0.7, 2.0, 9.0):
        minor = psi_minor_determinant(d, t, drop_row=2)
        k_const = math.exp(sum(math.lgamma(d.p + d.m + j) - math.lgamma(d.p + d.m + 2 * j + 1)
                               for j in range(d.alpha)))
        scale = k_const * math.exp(math.lgamma(d.n + d.p) - math.lgamma(d.m + d.p))
        expected = scale * (t / (1 + t)) ** (big_n + 1) * minor.value()
        got = _minor_grid(d, 2, big_n + 1, np.array([t]))[0]
        assert got == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("dims", SWEEP_DIMS, ids=lambda d: "-".join(map(str, d)))
def test_tail_coefficients_are_positive_and_complete(dims):
    # r_k = C(N,k) - c_k exactly, up to the one correct rounding of r_k, with
    # c_k = e_k / e_0 taken from the exact polynomial; no r_k is negative
    d = ProblemDims(*dims)
    big_n = d.m * (d.n + d.p - d.m)
    e = _minor_polynomial(d, 1)
    mant, expo = _tail_coefficients(*dims)
    assert mant.size == big_n + 1 and np.all(mant >= 0)
    for k in range(big_n + 1):
        exact = math.comb(big_n, k) - (Fraction(e[k], e[0]) if k < len(e) else 0)
        assert exact >= 0, k
        if exact == 0:
            assert (mant[k], expo[k]) == (0.0, -np.inf), k
            continue
        stored = Fraction(float(mant[k])) * Fraction(2) ** int(expo[k])
        assert abs(stored - exact) <= exact * Fraction(1, 2 ** 53), k


def test_negative_tail_coefficient_raises_at_build(monkeypatch):
    # c_1 = 100 > C(N,1) = 14 at (2,4,5) would put F0 above 1 near t = oo
    e0 = _minor_polynomial(ProblemDims(2, 4, 5), 1)[0]
    monkeypatch.setattr(fc, "_minor_polynomial", lambda dims, drop_row: (e0, 100 * e0))
    with pytest.raises(ConditioningError, match="negative tail coefficient r_1"):
        _tail_coefficients.__wrapped__(2, 4, 5)


@pytest.mark.parametrize("dims", [(2, 4, 5), (4, 10, 12), (16, 20, 32), (2, 18, 4)],
                         ids=lambda d: "-".join(map(str, d)))
def test_calibration_meets_both_tails(dims):
    # the solve runs on logit F0 as the ratio of two exact positive sums, so
    # both P_F and 1 - P_F are met to relative accuracy deep into either tail
    d = ProblemDims(*dims)
    ts = d.kappa * calibrate_threshold(d, CAL_PF)
    for pf, t in zip(map(Fraction, CAL_PF), ts):
        err = null_cdf_exact(*dims, t) - (1 - pf)
        assert abs(err) <= CAL_REL_TOL * min(pf, 1 - pf), float(pf)


def test_far_tail_targets_are_met_or_refused():
    # 1 - F0 falls like t^-(alpha+1): at (8,24,16) P_F = 1e-300 lies near
    # t = 1e18, inside the search range; at (2,4,5) it lies beyond t = 4^80
    d = ProblemDims(8, 24, 16)
    t = d.kappa * calibrate_threshold(d, 1e-300)
    tail = 1 - null_cdf_exact(8, 24, 16, t)
    assert abs(tail - Fraction(1e-300)) <= CAL_REL_TOL * Fraction(1e-300)
    with pytest.raises(BracketingError, match="no upper bracket"):
        calibrate_threshold(ProblemDims(2, 4, 5), 1e-300)


def exact_logit_and_slope(dims, t):
    """logit F0 and its slope in log t at the binary float t, exactly: with
    c_k = e_k / d_0, r_k = C(N,k) - c_k and u = 1/t, the log of
    sum c_k u^k / sum r_k u^k, and the mean of k under the r-terms less that
    under the c-terms, all as integer sums over a common denominator."""
    d = ProblemDims(*dims)
    big_n = d.m * (d.n + d.p - d.m)
    d0, e = _null_determinant_at_zero(d), _minor_polynomial(d, 1)
    c = [v * d0.denominator for v in e] + [0] * (big_n + 1 - len(e))
    r = [math.comb(big_n, k) * d0.numerator - ck for k, ck in enumerate(c)]
    num, den = float(t).as_integer_ratio()        # u = den / num
    powers = [den ** k * num ** (big_n - k) for k in range(big_n + 1)]
    s_c, s_r = (sum(a * q for a, q in zip(coefs, powers)) for coefs in (c, r))
    w_c, w_r = (sum(k * a * q for k, (a, q) in enumerate(zip(coefs, powers))) for coefs in (c, r))
    return math.log(s_c / s_r), float(Fraction(w_r * s_c - w_c * s_r, s_r * s_c))


@pytest.mark.parametrize("dims", [(2, 8, 5), (4, 14, 7), (16, 26, 20), (8, 24, 16), (4, 20, 64)],
                         ids=lambda d: "-".join(map(str, d)))
def test_null_logit_matches_exact_arithmetic(dims):
    # the one-pass evaluator of the solver, in one batch over both tails
    d = ProblemDims(*dims)
    ts = d.kappa * calibrate_threshold(d, LOGIT_PF)
    ts = np.append(ts, [ts[0] / 2, ts[-1] * 2])
    logit, slope, cdf = _null_logit(d, ts)
    assert np.array_equal(cdf, cdf_null(d, ts))       # F0 is the null CDF's, bit for bit
    for t, got_logit, got_slope in zip(ts, logit, slope):
        want_logit, want_slope = exact_logit_and_slope(dims, t)
        assert abs(got_logit - want_logit) <= LOGIT_ABS_TOL, t
        assert abs(got_slope - want_slope) <= SLOPE_REL_TOL * abs(want_slope), t
    # the ends of the range: F0 from about 1e-15 to 1 - 1e-12
    assert logit[0] < math.log(2e-15) and logit[4] > math.log(1e11)
