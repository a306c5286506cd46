"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 5 asserts the closed-form bracketing of the optimal sample count;
the bracket and its proof are in the docstring of `royroot.roc.pstar_bounds`.
"""

import math

import numpy as np

from royroot.asymptotic import AsymptoticRegime, limit_cdf_fixed_alpha, limit_cdf_scaled_snr
from royroot.cli import main as cli_main
from royroot.finite_cdf import (ProblemDims, SpikeParam, cdf_lambda_max,
                                cdf_lambda_max_general, cdf_null, cdf_test_statistic)
from royroot.monte_carlo import McConfig, joint_density_cdf_m2, ks_distance, sample_lambda_max
from royroot.roc import (asymptotic_roc_p_infinity, calibrate_threshold,
                         detection_probability, low_snr_slope, low_snr_slope_balanced,
                         optimize_pstar, pstar_approx, pstar_bounds, roc_closed_form_alpha0)

SEED = 7


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_oracle_cdf_agreement():
    worst = 0.0
    details = []
    for (m, n, p, eta) in [(2, 4, 4, 1.0), (5, 8, 10, 3.1623), (4, 4, 8, 2.0),
                           (3, 5, 5, 0.0)]:
        dims = ProblemDims(m, n, p)
        spike = SpikeParam(eta)
        emp = sample_lambda_max(McConfig(dims, spike, 200_000, SEED, workers=2))
        ks = ks_distance(emp, lambda t: cdf_lambda_max(dims, spike, t))
        details.append(f"({m},{n},{p},{eta}): KS={ks:.5f}")
        worst = max(worst, ks)
    report(1, "oracle CDF agreement", worst < 0.005, "; ".join(details))


def test_criterion_2_closed_form_crosschecks():
    ts = np.linspace(0.3, 40.0, 50)
    d_bal = ProblemDims(3, 3, 5)
    gen = cdf_lambda_max_general(d_bal, SpikeParam(2.0), ts)
    closed = cdf_lambda_max(d_bal, SpikeParam(2.0), ts)
    err_alpha0 = np.max(np.abs(gen / closed - 1.0))

    d_gen = ProblemDims(2, 4, 5)
    near_null = cdf_lambda_max_general(d_gen, SpikeParam(1e-8), ts)
    err_null = np.max(np.abs(near_null - cdf_null(d_gen, ts)))

    d_scalar = ProblemDims(1, 1, 6)
    err_scalar = 0.0
    for eta in (0.5, 3.0):
        vals = cdf_lambda_max(d_scalar, SpikeParam(eta), ts)
        exact = (ts / (1.0 + eta + ts)) ** 6
        err_scalar = max(err_scalar, np.max(np.abs(vals / exact - 1.0)))

    ok = err_alpha0 < 1e-10 and err_null < 1e-6 and err_scalar < 1e-12
    report(2, "closed-form cross-checks", ok,
           f"alpha0 rel={err_alpha0:.2e}, eta->0 abs={err_null:.2e}, "
           f"m=1 rel={err_scalar:.2e}")


def test_criterion_3_quadrature_oracle():
    got = joint_density_cdf_m2(4, 5, 2.0, 2.0)
    ref = cdf_lambda_max(ProblemDims(2, 4, 5), SpikeParam(2.0), 2.0)
    err_cdf = abs(got - ref)
    err_norm = abs(joint_density_cdf_m2(4, 5, 2.0, float("inf")) - 1.0)
    ok = err_cdf < 1e-6 and err_norm < 1e-8
    report(3, "quadrature oracle", ok,
           f"cdf abs={err_cdf:.2e}, normalization abs={err_norm:.2e}")


def test_criterion_4_roc_identities():
    # chance line
    d = ProblemDims(2, 4, 5)
    grid = np.linspace(0.02, 0.98, 50)
    err_chance = max(abs(detection_probability(d, 0.0, calibrate_threshold(d, pf)) - pf)
                     for pf in grid)

    # calibrate+detect vs the closed form at n = m
    d0 = ProblemDims(3, 3, 5)
    grid200 = np.linspace(0.005, 0.995, 200)
    err_closed = max(abs(detection_probability(d0, 2.0, calibrate_threshold(d0, pf))
                         - roc_closed_form_alpha0(3, 5, 2.0, pf))
                     for pf in grid200)

    # Monte-Carlo ROC within 3 binomial sigmas pointwise
    dims = ProblemDims(5, 8, 10)
    gamma = 10.0 ** 0.5
    trials = 100_000
    scale = dims.n / dims.p
    h1 = sample_lambda_max(McConfig(dims, SpikeParam(gamma), trials, SEED + 1,
                                    workers=2)).scaled(scale)
    h0 = sample_lambda_max(McConfig(dims, SpikeParam(0.0), trials, SEED + 2,
                                    workers=2)).scaled(scale)
    mc_ok = True
    worst_sigma = 0.0
    for pf in np.linspace(0.02, 0.98, 25):
        mu = calibrate_threshold(dims, pf)
        pd = detection_probability(dims, gamma, mu)
        emp_pd = 1.0 - h1.evaluate(mu)
        emp_pf = 1.0 - h0.evaluate(mu)
        sig_d = math.sqrt(pd * (1.0 - pd) / trials)
        sig_f = math.sqrt(pf * (1.0 - pf) / trials)
        worst_sigma = max(worst_sigma, abs(emp_pd - pd) / sig_d,
                          abs(emp_pf - pf) / sig_f)
        if abs(emp_pd - pd) > 3.0 * sig_d or abs(emp_pf - pf) > 3.0 * sig_f:
            mc_ok = False
    ok = err_chance < 1e-9 and err_closed < 1e-9 and mc_ok
    report(4, "ROC identities", ok,
           f"chance abs={err_chance:.2e}, closed-form abs={err_closed:.2e}, "
           f"MC worst deviation={worst_sigma:.2f} sigma")


def test_criterion_5_pstar_analysis():
    # As stated: the golden-section optimum must lie strictly inside the
    # closed-form bounds, and P_D at round(midpoint) must be within 1e-3 of the
    # integer optimum, over the full (nu, gamma, P_F) grid.
    #
    # The bracket is derived from the stationarity condition of the n = m
    # closed form and holds for every gamma > 0; tests/test_roc.py sweeps it
    # over gamma in [1e-4, 1e6].
    bracket_failures = []
    approx_failures = []
    for nu in (0.25, 0.5, 1.0):
        for gamma in (1.0, 3.16, 10.0):
            for pf in (0.01, 0.1, 0.3):
                lower, upper = pstar_bounds(nu, gamma, pf)
                p_cont, _ = optimize_pstar(nu, gamma, pf)
                if not lower < p_cont < upper:
                    bracket_failures.append(
                        f"(nu={nu},g={gamma},pf={pf}): p*={p_cont:.4f} "
                        f"outside ({lower:.4f},{upper:.4f})")
                p_round = max(1, round(pstar_approx(nu, gamma, pf)))
                pd_round = roc_closed_form_alpha0(nu * p_round, p_round, gamma, pf)
                pd_best = max(roc_closed_form_alpha0(nu * p, p, gamma, pf)
                              for p in range(1, max(12, math.ceil(3 * upper)) + 1))
                if abs(pd_round - pd_best) > 1e-3:
                    approx_failures.append(
                        f"(nu={nu},g={gamma},pf={pf}): gap={pd_best - pd_round:.2e}")
    ok = not bracket_failures and not approx_failures
    detail = (f"{len(bracket_failures)}/27 outside bracket; "
              f"approx gaps: {approx_failures or 'none'}")
    report(5, "p* analysis", ok, detail)


def test_criterion_6_low_snr_slope():
    gamma = 1e-4
    worst_rel = 0.0
    for p in (15, 20):
        for pf in (0.1, 0.5):
            d = ProblemDims(10, 10, p)
            mu = calibrate_threshold(d, pf)
            achieved_pf = 1.0 - cdf_test_statistic(d, SpikeParam(0.0), mu)
            fd = (detection_probability(d, gamma, mu) - achieved_pf) / gamma
            cf = low_snr_slope(d, pf)
            worst_rel = max(worst_rel, abs(cf / fd - 1.0))
    limit_err = 0.0
    for pf in (0.1, 0.5):
        limit = -math.log1p(-pf) / 10.0 * (1.0 - pf)
        got = low_snr_slope_balanced(10, 10 ** 8, pf)
        limit_err = max(limit_err, abs(got - limit), abs(got / limit - 1.0))
    ok = worst_rel < 1e-3 and limit_err < 1e-4
    report(6, "low-SNR slope", ok,
           f"fd rel={worst_rel:.2e}, p->inf err={limit_err:.2e}")


def test_criterion_7_asymptotics():
    xs = np.linspace(0.1, 20.0, 100)

    # fixed (alpha, beta, eta) = (1, 2, 3.16): sup error decreases in m
    sups = []
    for m in (10, 20, 40):
        d = ProblemDims(m, m + 1, m + 2)
        fin = cdf_lambda_max(d, SpikeParam(3.16), m * m * xs - 1.0)
        lim = np.array([limit_cdf_fixed_alpha(1, x) for x in xs])
        sups.append(float(np.max(np.abs(fin - lim))))
    monotone = sups[0] > sups[1] > sups[2]

    # spike scaling with m: sup error < 0.02 at m = 40, c = 1, theta = 1
    m = 40
    regime = AsymptoticRegime(1.0, 1.0)
    d = ProblemDims(m, m, m)
    fin = cdf_lambda_max(d, SpikeParam(float(m)), m * m * xs - 1.0)
    lim = np.array([limit_cdf_scaled_snr(regime, x) for x in xs])
    sup_scaled = float(np.max(np.abs(fin - lim)))

    # theta = 0, c = 1 limit coincides with the alpha = 0 fixed limit
    reg0 = AsymptoticRegime(1.0, 0.0)
    err_consistency = max(abs(limit_cdf_scaled_snr(reg0, x)
                              - limit_cdf_fixed_alpha(0, x)) for x in xs)

    # large-p ROC: closed form at p = 1e4 vs its p -> infinity limit
    err_roc = abs(roc_closed_form_alpha0(10, 10_000, 10 ** 0.5, 0.1)
                  - asymptotic_roc_p_infinity(10, 10 ** 0.5, 0.1))

    ok = (monotone and sup_scaled < 0.02 and err_consistency <= 1e-15
          and err_roc < 1e-3)
    report(7, "asymptotic limits", ok,
           f"sup errors m=10,20,40: {sups[0]:.4f}>{sups[1]:.4f}>{sups[2]:.4f}, "
           f"scaled sup={sup_scaled:.4f}, consistency={err_consistency:.1e}, "
           f"large-p roc={err_roc:.2e}")


def test_criterion_8_determinism(capsys):
    args = ["mc-validate", "--m", "2", "--n", "4", "--p", "4", "--snr", "1",
            "--trials", "20000", "--seed", "7", "--tolerance", "0.02"]
    outputs = []
    for workers in ("1", "4", "1"):
        code = cli_main(args + ["--workers", workers])
        captured = capsys.readouterr().out
        assert code == 0
        # the workers parameter is echoed in no output column; compare bytes
        outputs.append(captured.encode())
    ok = outputs[0] == outputs[1] == outputs[2]
    with capsys.disabled():
        report(8, "deterministic mc-validate", ok,
               f"{len(outputs[0])} bytes, identical across reruns and workers")
