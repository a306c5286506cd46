import math

import numpy as np
import pytest

from royroot.finite_cdf import (ConditioningError, ProblemDims, SpikeParam, _logit_table,
                                cdf_null, cdf_test_statistic)
from royroot.roc import (_LOG_T_LIMIT, _TABLE_NODES, BracketingError, RocCurve, RocPoint,
                         _warm_start, asymptotic_roc_p_infinity,
                         asymptotic_roc_scaled, calibrate_threshold,
                         detection_probability, low_snr_slope, low_snr_slope_balanced,
                         optimize_pstar, pstar_approx, pstar_bounds,
                         roc_closed_form_alpha0, roc_curve, snr_from_db, snr_to_db)

# the dims at which the benchmark calibrates
BENCH_DIMS = [(2, 4, 5), (5, 8, 10), (4, 4, 8), (4, 10, 12), (16, 20, 32)]


class TestCalibrate:
    def test_scalar_case(self):
        # m = n = p = 1, P_F = 0.5: t/(1+t) = 0.5 at t = 1, kappa = 1
        assert calibrate_threshold(ProblemDims(1, 1, 1), 0.5) == pytest.approx(
            1.0, abs=1e-9)

    def test_alpha0_closed_form_inverse(self):
        # (kappa mu/(1+kappa mu))^{mp} = 1-P_F  =>  mu = u/(kappa(1-u))
        d = ProblemDims(3, 3, 7)
        pf = 0.2
        u = (1.0 - pf) ** (1.0 / (d.m * d.p))
        expected = u / (d.kappa * (1.0 - u))
        assert calibrate_threshold(d, pf) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("pf", [0.01, 0.1, 0.5, 0.9, 0.999])
    def test_round_trip(self, pf):
        d = ProblemDims(2, 3, 3)
        mu = calibrate_threshold(d, pf)
        achieved = 1.0 - cdf_test_statistic(d, SpikeParam(0.0), mu)
        assert achieved == pytest.approx(pf, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            calibrate_threshold(ProblemDims(2, 3, 3), 0.0)
        with pytest.raises(ValueError):
            calibrate_threshold(ProblemDims(2, 3, 3), 1.0)

    @staticmethod
    def flat_null_logit(f):
        # the solver's evaluator for a CDF that is f everywhere: logit f, slope 0, F0 f
        return lambda dims, t: (np.full(np.shape(t), math.log(f / (1 - f))),
                                np.zeros(np.shape(t)), np.full(np.shape(t), f))

    def test_bracketing_failure_is_reported(self, monkeypatch):
        # a flat CDF can never bracket the target; the error names the bracket
        import royroot.roc as roc_mod
        monkeypatch.setattr(roc_mod, "_null_logit", self.flat_null_logit(0.5))
        with pytest.raises(BracketingError, match="bracket"):
            calibrate_threshold(ProblemDims(2, 3, 3), 0.1)

    def test_lower_bracketing_failure_is_reported(self, monkeypatch):
        # a step below T = 4^-80 stops there, and the residual still points lower
        import royroot.roc as roc_mod
        monkeypatch.setattr(roc_mod, "_null_logit", self.flat_null_logit(0.95))
        with pytest.raises(BracketingError, match=r"no lower bracket: cdf\(6.84e-49\)"):
            calibrate_threshold(ProblemDims(2, 3, 3), 0.1)

    @pytest.mark.parametrize("dims", BENCH_DIMS)
    def test_final_check_takes_the_null_cdf_bit_for_bit(self, dims, monkeypatch):
        # the check's F0 comes from each element's last evaluation, not from
        # a separate cdf_null call, and must be cdf_null's value at the T returned
        import royroot.roc as roc_mod
        checked = []
        clamp = roc_mod._clamped
        monkeypatch.setattr(roc_mod, "_clamped",
                            lambda v, t: checked.append((v.copy(), t.copy())) or clamp(v, t))
        d = ProblemDims(*dims)
        pfs = np.array([1e-3, 1e-2, 0.1, 0.5])
        for pf in [*pfs, pfs]:
            checked.clear()
            T = roc_mod._invert_null_cdf(d, pf)
            (values, ts), = checked
            assert np.array_equal(ts, T)
            assert np.array_equal(values, cdf_null(d, T)), pf

    @staticmethod
    def null_logit_with_cdf(f0):
        # the solver's evaluator with its F0 replaced by f0(F0)
        import royroot.roc as roc_mod
        evaluate = roc_mod._null_logit

        def stub(dims, t):
            logit, slope, cdf = evaluate(dims, t)
            return logit, slope, f0(cdf)
        return stub

    def test_final_check_reports_a_missed_target(self, monkeypatch):
        import royroot.roc as roc_mod
        monkeypatch.setattr(roc_mod, "_null_logit", self.null_logit_with_cdf(lambda f: f + 1e-11))
        with pytest.raises(BracketingError, match=r"misses 1 - P_F by more than 1e-12"):
            calibrate_threshold(ProblemDims(2, 4, 5), 0.1)

    def test_final_check_rejects_a_value_beyond_one(self, monkeypatch):
        import royroot.roc as roc_mod
        monkeypatch.setattr(roc_mod, "_null_logit",
                            self.null_logit_with_cdf(lambda f: np.full_like(f, 1.0 + 1e-8)))
        with pytest.raises(ConditioningError, match=r"outside \[0,1\] beyond the 1e-09 slack"):
            calibrate_threshold(ProblemDims(2, 4, 5), 0.1)

    def test_array_of_targets(self):
        d = ProblemDims(2, 4, 5)
        pfs = np.array([[0.01, 0.2], [0.5, 0.9]])
        mus = calibrate_threshold(d, pfs)
        assert mus.shape == (2, 2)
        assert [calibrate_threshold(d, pf) for pf in pfs.ravel()] == mus.ravel().tolist()
        with pytest.raises(ValueError, match="got 1.0"):
            calibrate_threshold(d, [0.1, 1.0])
        assert calibrate_threshold(d, []).shape == (0,)
        assert roc_curve(d, 1.0, []).points == ()

    @pytest.mark.parametrize("dims", [(4, 10, 12), (16, 20, 32)])
    def test_null_cdf_call_counts(self, dims, monkeypatch):
        # the solver used 37 and 41 calls on these at worst before false
        # position on log T against logit F; each count here is deterministic
        # and counts the evaluations of the solver's residual
        import royroot.roc as roc_mod
        calls = []
        evaluate = roc_mod._null_logit
        monkeypatch.setattr(roc_mod, "_null_logit", lambda d, t: calls.append(1) or evaluate(d, t))
        worst = {(4, 10, 12): 37, (16, 20, 32): 41}[dims]
        for pf in (1e-3, 1e-2, 0.1, 0.5):
            calls.clear()
            calibrate_threshold(ProblemDims(*dims), pf)
            assert calls, pf
            assert len(calls) < worst, pf

    @pytest.mark.parametrize("dims", [(4, 10, 12), (16, 20, 32)])
    def test_exact_null_cdf_calibrates_in_few_calls(self, dims, monkeypatch):
        # the exact null CDF makes the 1e-12 stop rule reachable, so no
        # calibration ends on a collapsed bracket
        import royroot.roc as roc_mod
        calls = []
        evaluate = roc_mod._null_logit
        monkeypatch.setattr(roc_mod, "_null_logit", lambda d, t: calls.append(1) or evaluate(d, t))
        for pf in (1e-3, 1e-2, 0.1, 0.5):
            calls.clear()
            calibrate_threshold(ProblemDims(*dims), pf)
            assert calls, pf
            assert len(calls) <= 16, pf

    @pytest.mark.parametrize("dims", [(2, 4, 5), (5, 8, 10), (4, 10, 12), (16, 20, 32),
                                      (4, 4, 8)])
    def test_warm_start_takes_few_calls(self, dims, monkeypatch):
        # once the dims' logit table is cached, each solve starts a few steps
        # from its root; from T = 1 these took up to 10 calls
        import royroot.roc as roc_mod
        d = ProblemDims(*dims)
        calibrate_threshold(d, 0.5)
        calls = []
        evaluate = roc_mod._null_logit
        monkeypatch.setattr(roc_mod, "_null_logit", lambda d, t: calls.append(1) or evaluate(d, t))
        for pf in (1e-3, 1e-2, 0.1, 0.5):
            calls.clear()
            calibrate_threshold(d, pf)
            assert calls, pf
            assert len(calls) <= 6, pf

    def test_hermite_start_saves_evaluations(self, monkeypatch):
        # 44 scalar solves at each benchmark dims, tables cached: the linearly
        # interpolated start on 161 nodes took 659 evaluations on these
        # targets and the Hermite start 566; both bounds were fixed before
        # the 1281-node table was first run against them
        import royroot.roc as roc_mod
        rng = np.random.default_rng(20261018)
        pfs = np.concatenate([10.0 ** rng.uniform(-14, math.log10(0.99), 40),
                              [1e-3, 1e-2, 0.1, 0.5]])
        dims = [ProblemDims(*d) for d in BENCH_DIMS]
        for d in dims:
            calibrate_threshold(d, 0.5)
        calls = []
        evaluate = roc_mod._null_logit
        monkeypatch.setattr(roc_mod, "_null_logit", lambda d, t: calls.append(1) or evaluate(d, t))
        per_solve = []
        for d in dims:
            for pf in pfs:
                before = len(calls)
                calibrate_threshold(d, float(pf))
                per_solve.append(len(calls) - before)
        assert calls
        assert len(calls) <= 450
        assert max(per_solve) <= 3

    @pytest.mark.parametrize("dims", BENCH_DIMS + [(8, 24, 16), (1, 17, 4)])
    def test_hermite_start_stays_in_its_interval(self, dims):
        # every start lies in a node interval whose logit values bracket the
        # target; a target beyond the table starts exactly at the nearer end
        d = ProblemDims(*dims)
        nodes, table, _ = _logit_table(*dims, _LOG_T_LIMIT, _TABLE_NODES)
        rng = np.random.default_rng(3)
        targets = np.concatenate([rng.uniform(table[0], table[-1], 300), table,
                                  0.5 * (table[1:] + table[:-1])])
        for y, x in zip(targets, _warm_start(d, targets)):
            around = (table[:-1] <= y) & (y <= table[1:]) & (nodes[:-1] <= x) & (x <= nodes[1:])
            assert around.any(), (y, x)
        beyond = _warm_start(d, np.array([table[0] - 1.0, -np.inf, table[-1] + 1.0, np.inf]))
        assert beyond.tolist() == [-_LOG_T_LIMIT] * 2 + [_LOG_T_LIMIT] * 2

    def test_logit_table_is_built_once_per_dims(self, monkeypatch):
        import royroot.finite_cdf as fc
        sizes = []
        evaluate = fc._null_logit
        monkeypatch.setattr(fc, "_null_logit", lambda d, t: sizes.append(t.size) or evaluate(d, t))
        fc._logit_table.cache_clear()
        d = ProblemDims(3, 5, 7)
        calibrate_threshold(d, 0.1)
        roc_curve(d, 1.0, [0.01, 0.2])
        low_snr_slope(d, 0.3)
        assert sizes == [_TABLE_NODES]     # one vectorized call builds the table
        calibrate_threshold(ProblemDims(3, 6, 7), 0.1)
        assert sizes == [_TABLE_NODES] * 2
        assert fc._logit_table.cache_info().currsize == 2

    @pytest.mark.parametrize("dims", [(2, 12, 4), (2, 14, 4)])
    def test_noisy_null_cdf_still_calibrates(self, dims):
        # at alpha >= 10 the float determinant carried noise of 1e-10 to 1e-8,
        # which put 1e-12 out of reach; whatever the CDF's noise, the result
        # must stay within 1e-9
        d = ProblemDims(*dims)
        mu = calibrate_threshold(d, 0.1)
        assert abs(cdf_test_statistic(d, SpikeParam(0.0), mu) - 0.9) <= 1e-9


class TestDetectionProbability:
    def test_zero_snr_gives_false_alarm_rate(self):
        d = ProblemDims(2, 4, 5)
        mu = calibrate_threshold(d, 0.3)
        assert detection_probability(d, 0.0, mu) == pytest.approx(0.3, abs=1e-10)

    def test_tiny_threshold_detects_always(self):
        d = ProblemDims(2, 4, 5)
        assert detection_probability(d, 1.0, 1e-9) == pytest.approx(1.0, abs=1e-12)

    def test_alpha0_cross_path_equality(self):
        d = ProblemDims(3, 3, 8)
        gamma, pf = 2.5, 0.15
        mu = calibrate_threshold(d, pf)
        direct = detection_probability(d, gamma, mu)
        closed = roc_closed_form_alpha0(d.m, d.p, gamma, pf)
        assert direct == pytest.approx(closed, abs=1e-10)


class TestClosedFormRoc:
    def test_endpoints(self):
        assert roc_closed_form_alpha0(5, 10, 3.0, 0.0) == 0.0
        assert roc_closed_form_alpha0(5, 10, 3.0, 1.0) == pytest.approx(1.0)

    def test_chance_line_at_zero_snr(self):
        for pf in (0.05, 0.4, 0.9):
            assert roc_closed_form_alpha0(5, 10, 0.0, pf) == pytest.approx(pf,
                                                                           rel=1e-14)

    def test_increasing_in_snr(self):
        vals = [roc_closed_form_alpha0(5, 10, g, 0.1) for g in (0.5, 1.0, 3.0, 10.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_increasing_in_p(self):
        vals = [roc_closed_form_alpha0(5, p, 2.0, 0.1) for p in (5, 8, 15, 40)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("m,p,gamma", [(4, 8, 1.0), (5, 10, 3.0), (1, 1, 0.01),
                                           (32, 64, 1e-3), (10, 10_000, 10 ** 0.5)])
    def test_relative_accuracy_at_small_pf(self, m, p, gamma):
        # 1 - q/(...)^p cancels at small P_F: the old form was off by 1.07e-3
        # relative at (4, 8, 1) and P_F = 1e-12
        mpmath = pytest.importorskip("mpmath")
        for pf in (1e-12, 1e-8, 0.1):
            with mpmath.workdps(80):
                q = 1 - mpmath.mpf(pf)
                g = mpmath.mpf(gamma)
                exact = 1 - q / (1 + g - g * q ** (1 / mpmath.mpf(m * p))) ** p
                err = abs(roc_closed_form_alpha0(m, p, gamma, pf) - exact) / exact
            assert err < 1e-15, (pf, float(err))


class TestRocCurve:
    def test_chance_line(self):
        d = ProblemDims(2, 4, 5)
        grid = np.linspace(0.02, 0.98, 25)
        curve = roc_curve(d, 0.0, grid)
        for pt in curve.points:
            assert pt.p_detection == pytest.approx(pt.p_false_alarm, abs=1e-9)

    def test_alpha0_matches_closed_form(self):
        d = ProblemDims(3, 3, 6)
        grid = np.linspace(0.01, 0.99, 40)
        curve = roc_curve(d, 2.0, grid)
        for pt in curve.points:
            assert pt.p_detection == pytest.approx(
                roc_closed_form_alpha0(d.m, d.p, 2.0, pt.p_false_alarm), abs=1e-9)

    def test_curve_invariants(self):
        d = ProblemDims(2, 4, 6)
        curve = roc_curve(d, 3.0, np.linspace(0.05, 0.95, 19))
        pd_vals = [pt.p_detection for pt in curve.points]
        thr = [pt.threshold for pt in curve.points]
        assert all(b >= a for a, b in zip(pd_vals, pd_vals[1:]))
        assert all(b < a for a, b in zip(thr, thr[1:]))  # threshold falls as P_F rises

    @pytest.mark.parametrize("dims", [(2, 4, 5), (5, 8, 10), (4, 10, 12)])
    def test_thresholds_equal_scalar_calibration(self, dims):
        # the grid is solved in one batch, each element as it would be alone
        d = ProblemDims(*dims)
        grid = np.geomspace(1e-3, 0.8, 50)
        curve = roc_curve(d, 2.0, grid)
        assert [pt.threshold for pt in curve.points] == \
            [calibrate_threshold(d, pf) for pf in grid]
        for pt in curve.points[::7]:
            assert pt.p_detection == detection_probability(d, 2.0, pt.threshold)

    def test_one_batched_solve(self, monkeypatch):
        import royroot.roc as roc_mod
        calls = []
        evaluate = roc_mod._null_logit
        monkeypatch.setattr(roc_mod, "_null_logit", lambda d, t: calls.append(1) or evaluate(d, t))
        roc_curve(ProblemDims(5, 8, 10), 3.0, np.geomspace(1e-3, 0.8, 50))
        assert calls
        assert len(calls) <= 40   # 962 calls with one scalar solve per point

    def test_grid_validation(self):
        d = ProblemDims(2, 4, 6)
        with pytest.raises(ValueError):
            roc_curve(d, 1.0, [0.5, 0.4])
        with pytest.raises(ValueError):
            roc_curve(d, 1.0, [0.0, 0.5])

    def test_point_validation(self):
        with pytest.raises(ValueError):
            RocPoint(1.2, 0.5, 1.0)
        with pytest.raises(ValueError):
            RocPoint(0.5, 0.5, 0.0)
        d = ProblemDims(2, 4, 6)
        with pytest.raises(ValueError):
            RocCurve(d, 1.0, (RocPoint(0.5, 0.6, 1.0), RocPoint(0.4, 0.5, 2.0)))


class TestPstar:
    def test_bounds_ordering_on_grid(self):
        nus = np.linspace(0.1, 2.0, 10)
        gammas = np.geomspace(0.1, 100, 10)
        pfs = np.linspace(0.01, 0.95, 10)
        for nu in nus:
            for g in gammas:
                for pf in pfs:
                    lower, upper = pstar_bounds(nu, g, pf)
                    assert 0.0 < lower < upper

    def test_bracket_contains_optimum_at_small_snr(self):
        # the bracket holds for every gamma > 0 (proof in pstar_bounds),
        # small gamma included
        nu, gamma, pf = 1.0, 0.2, 0.1
        lower, upper = pstar_bounds(nu, gamma, pf)
        p_cont, _ = optimize_pstar(nu, gamma, pf)
        assert lower < p_cont < upper

    def test_optimum_below_upper_bound(self):
        # P_D is unimodal in p, so past the optimum it falls: P_D at the upper
        # end of the bracket is at most P_D at p*
        for (nu, gamma, pf) in [(1.0, 10 ** 0.5, 0.1), (0.5, 10.0, 0.3),
                                (0.25, 1.0, 0.01)]:
            lower, upper = pstar_bounds(nu, gamma, pf)
            p_cont, _ = optimize_pstar(nu, gamma, pf)
            assert p_cont < upper
            assert roc_closed_form_alpha0(nu * p_cont, p_cont, gamma, pf) >= \
                roc_closed_form_alpha0(nu * upper, upper, gamma, pf)

    def test_bracket_sweep(self):
        # h(x) has the sign of dP_D/dp at x = -ln(1-P_F)/(nu p^2): negative
        # at the upper end of the bracket in p, positive at the lower end
        def h(x, g):
            gu = -g * math.expm1(-x)
            return math.log1p(gu) - 2.0 * g * x * math.exp(-x) / (1.0 + gu)

        for nu in (0.05, 0.25, 1.0, 4.0):
            for pf in (1e-6, 0.01, 0.3, 0.9):
                a = -math.log1p(-pf)
                for g in np.geomspace(1e-4, 1e6, 61):
                    lower, upper = pstar_bounds(nu, g, pf)
                    p_cont, _ = optimize_pstar(nu, g, pf)
                    assert lower < p_cont < upper, (nu, g, pf)
                    assert h(a / (nu * upper ** 2), g) < 0.0 < h(a / (nu * lower ** 2), g)

    @pytest.mark.parametrize("nu,gamma", [(1.0, math.inf), (math.inf, 1.0), (math.inf, math.inf),
                                          (1.0, math.nan), (math.nan, 1.0)])
    def test_bounds_reject_non_finite_inputs(self, nu, gamma):
        # an infinite SNR or ratio sent the upper end through a division by 0
        with pytest.raises(ValueError, match="finite"):
            pstar_bounds(nu, gamma, 0.1)
        with pytest.raises(ValueError, match="finite"):
            optimize_pstar(nu, gamma, 0.1)

    def test_bounds_scale_like_sqrt_gamma(self):
        l1, u1 = pstar_bounds(0.5, 1e2, 0.1)
        l2, u2 = pstar_bounds(0.5, 1e4, 0.1)
        assert l2 / l1 == pytest.approx(10.0, rel=0.05)
        assert u2 / u1 == pytest.approx(10.0, rel=0.05)

    def test_approx_is_midpoint_and_inside(self):
        lower, upper = pstar_bounds(0.7, 3.0, 0.2)
        approx = pstar_approx(0.7, 3.0, 0.2)
        assert approx == pytest.approx(0.5 * (lower + upper), rel=1e-15)
        assert lower < approx < upper

    def test_approx_scaling_in_log_pf(self):
        # doubling -ln(1-P_F) scales the approximation by sqrt(2)
        pf = 0.3
        pf2 = 1.0 - (1.0 - pf) ** 2
        assert pstar_approx(0.5, 2.0, pf2) == pytest.approx(
            math.sqrt(2.0) * pstar_approx(0.5, 2.0, pf), rel=1e-12)

    def test_rounded_approx_near_integer_optimum(self):
        nu, gamma, pf = 1.0, snr_from_db(5.0), 0.1
        _, p_int = optimize_pstar(nu, gamma, pf)
        best = max(roc_closed_form_alpha0(nu * p, p, gamma, pf) for p in range(1, 60))
        approx_p = max(1, round(pstar_approx(nu, gamma, pf)))
        assert roc_closed_form_alpha0(nu * p_int, p_int, gamma, pf) == pytest.approx(
            best, abs=1e-12)
        assert roc_closed_form_alpha0(nu * approx_p, approx_p, gamma, pf) >= best - 1e-3


class TestLowSnrSlope:
    def test_balanced_closed_form_value(self):
        m, p, pf = 10, 15, 0.1
        expected = p * (1.0 - 0.9 ** (1.0 / (m * p))) * 0.9
        assert low_snr_slope(ProblemDims(m, m, p), pf) == pytest.approx(expected,
                                                                        rel=1e-12)
        assert low_snr_slope_balanced(m, p, pf) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("dims,pf", [
        ((10, 10, 15), 0.1), ((2, 3, 4), 0.2), ((3, 5, 6), 0.1),
        ((4, 6, 9), 0.05), ((5, 8, 10), 0.1), ((1, 3, 5), 0.25)])
    def test_matches_finite_difference(self, dims, pf):
        d = ProblemDims(*dims)
        gamma = 1e-4
        mu = calibrate_threshold(d, pf)
        achieved_pf = 1.0 - cdf_test_statistic(d, SpikeParam(0.0), mu)
        fd = (detection_probability(d, gamma, mu) - achieved_pf) / gamma
        assert low_snr_slope(d, pf) == pytest.approx(fd, rel=1e-3)

    def test_large_p_limit(self):
        for pf in (0.1, 0.5):
            limit = -math.log1p(-pf) / 10.0 * (1.0 - pf)
            assert low_snr_slope_balanced(10, 10 ** 8, pf) == pytest.approx(
                limit, rel=1e-6)

    def test_low_snr_sandwich_balanced(self):
        # P_F < P_D(gamma) < P_F - (1-P_F) ln(1-P_F) gamma / m + o(gamma)
        m, p, pf, gamma = 5, 40, 0.2, 1e-3
        d = ProblemDims(m, m, p)
        mu = calibrate_threshold(d, pf)
        pd = detection_probability(d, gamma, mu)
        upper = pf - (1.0 - pf) * math.log1p(-pf) * gamma / m
        assert pf < pd < upper + 1e-9


class TestAsymptoticRoc:
    def test_p_infinity_chance_line(self):
        assert asymptotic_roc_p_infinity(10, 0.0, 0.37) == pytest.approx(0.37,
                                                                         rel=1e-14)

    def test_p_infinity_equals_scaled_form(self):
        m, gamma, pf = 7, 4.0, 0.25
        assert asymptotic_roc_p_infinity(m, gamma, pf) == pytest.approx(
            asymptotic_roc_scaled(gamma / m, pf), rel=1e-14)

    def test_closed_form_approaches_p_infinity(self):
        m, gamma, pf = 10, snr_from_db(5.0), 0.1
        finite = roc_closed_form_alpha0(m, 10_000, gamma, pf)
        limit = asymptotic_roc_p_infinity(m, gamma, pf)
        assert finite == pytest.approx(limit, abs=1e-3)

    def test_scaled_theta_zero_and_slope(self):
        pf = 0.3
        assert asymptotic_roc_scaled(0.0, pf) == pytest.approx(pf, rel=1e-14)
        theta = 1e-6
        expansion = pf - (1.0 - pf) * math.log1p(-pf) * theta
        assert asymptotic_roc_scaled(theta, pf) == pytest.approx(expansion, rel=1e-5)

    def test_scaled_direct_value(self):
        assert asymptotic_roc_scaled(1.0, 0.19) == pytest.approx(0.3439, rel=1e-12)


class TestSnrMonotonicity:
    def test_pd_increases_with_snr(self):
        d = ProblemDims(2, 4, 5)
        mu = calibrate_threshold(d, 0.1)
        vals = [detection_probability(d, g, mu) for g in (0.1, 1.0, 10.0)]
        assert vals[0] < vals[1] < vals[2]


class TestSnrUnits:
    def test_db_round_trip(self):
        assert snr_from_db(5.0) == pytest.approx(10 ** 0.5, rel=1e-15)
        assert snr_to_db(snr_from_db(-3.0)) == pytest.approx(-3.0, rel=1e-12)
        with pytest.raises(ValueError):
            snr_to_db(0.0)
