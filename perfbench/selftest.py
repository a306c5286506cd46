"""Self-tests of the benchmark, kept out of the package's test suite.

    python3 -m pytest -q perfbench/selftest.py

They take about a minute and a half: two short benchmark runs and one
run without sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import mpmath
import pytest

import probe

probe.prepare_process()  # royroot from this checkout, one BLAS thread

import royroot as R  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio", "worst_digits": "digits",
    "roc_points_per_s": "1/s", "calibrate_p50_ms": "ms", "calibrate_tail_ms": "ms",
    "cdf_points_per_s": "1/s", "cdf_call_p50_ms": "ms", "cdf_call_tail_ms": "ms",
    "mc_trials_per_s_w1": "1/s", "mc_trials_per_s_w2": "1/s",
}
PER_LAYER = {
    **{f"{f}.{k}": u
       for f in ("specfun.jacobi_p_log", "finite_cdf.cdf_null", "finite_cdf.cdf_lambda_max",
                 "finite_cdf.cdf_test_statistic")
       for k, u in (("calls", "count"), ("points", "count"), ("self_s", "s"))},
    **{f"finite_cdf.{f}.s": "s" for f in ("cdf_null", "cdf_lambda_max", "cdf_test_statistic")},
    "specfun.bessel_i.calls": "count", "specfun.bessel_i.self_s": "s",
    "asymptotic.limit_cdf_fixed_alpha.calls": "count", "asymptotic.limit_cdf_fixed_alpha.s": "s",
    "finite_cdf.entries": "count", "finite_cdf.conditioning_errors": "count",
    "finite_cdf.psi_minor_determinant.s": "s",
    "detmat.det_scaled.calls": "count", "detmat.det_scaled.s": "s",
    "roc.calibrate_threshold.calls": "count", "roc.calibrate_threshold.s": "s",
    "roc.calibrate_threshold.cdf_calls": "count",
    "roc.detection_probability.calls": "count", "roc.detection_probability.s": "s",
    "roc.roc_curve.s": "s", "roc.low_snr_slope.s": "s", "roc.bracketing_errors": "count",
    "monte_carlo.sample_lambda_max.s": "s", "monte_carlo.sample_lambda_max.trials": "count",
    "monte_carlo.sample_lambda_max.chunks": "count", "monte_carlo.ks_distance.s": "s",
    "monte_carlo.speedup_w2": "ratio",
    "setup.import_numpy_s": "s", "setup.import_royroot_s": "s",
    "trace.overhead_share": "ratio",
}


def _spec():
    return json.loads((probe.ROOT / "BENCHMARK.json").read_text())


def _op(plan, kind):
    return next(op for op in plan.primary(0) if op.kind == kind)


# -- the reference ------------------------------------------------------------

@pytest.mark.parametrize("n,p,eta,t", [(3, 4, 0.0, 0.7), (5, 2, 0.0, 2.0),
                                       (3, 4, 2.0, 0.7), (6, 9, 0.5, 1.3)])
def test_reference_is_the_beta_law_at_m1(n, p, eta, t):
    # m = 1: lambda = (1+eta) Gamma(p) / Gamma(n), a scaled beta-prime variable
    with mpmath.workdps(50):
        s = mpmath.mpf(t) / (1 + eta)
        exact = mpmath.betainc(p, n, 0, s / (1 + s), regularized=True)
    assert abs(reference.cdf(1, n, p, eta, t) - exact) < 1e-25


def test_reference_agrees_with_royroot_where_both_are_accurate():
    dims = R.finite_cdf.ProblemDims(2, 4, 5)
    for eta in (0.0, 1.0):
        for t in (0.5, 2.0, 8.0):
            got = R.finite_cdf.cdf_lambda_max(dims, R.finite_cdf.SpikeParam(eta), t)
            assert abs(got - reference.cdf(2, 4, 5, eta, t)) < 1e-13


# -- the checks ---------------------------------------------------------------

@pytest.mark.parametrize("kind", ["cdf", "cal", "roc"])
def test_check_flags_an_output_perturbed_by_1e_6(kind):
    plan = workloads.make_plan("cdf-grid" if kind == "cdf" else "roc-sweep", 7, R)
    op = _op(plan, kind)
    out = op.call()
    assert op.check(out).ok
    if kind == "roc":
        pts = list(out.points)
        pt = pts[0]
        pts[0] = R.roc.RocPoint(pt.p_false_alarm, pt.p_detection + 1e-6, pt.threshold)
        bad = R.roc.RocCurve(out.dims, out.gamma, tuple(pts))
    else:
        bad = out + 1e-6
        if kind == "cal":
            # a threshold error that moves the null CDF by about 1e-6
            t = out * R.finite_cdf.ProblemDims(*op.slot[1]).kappa
            bad = out + 1e-6 / float(mpmath.diff(lambda x: reference.cdf(*op.slot[1], 0.0, x), t))
    assert not op.check(bad).ok


def test_monte_carlo_check_holds_the_ks_bound():
    plan = workloads.make_plan("roc-sweep", 7, R)
    op = next(op for make, _ in plan.companions for op in make(0) if op.kind == "mc_w1")
    ks, samples, f = op.call()
    assert op.check((ks, samples, f)).ok
    assert not op.check((workloads.KS_BOUND / math.sqrt(samples.size) + 1e-9, samples, f)).ok


# -- rounds and timing --------------------------------------------------------

def test_rounds_are_reproducible_and_never_repeat_an_input():
    plan = workloads.make_plan("cdf-grid", 4, R)
    first, again, second = plan.primary(0), plan.primary(0), plan.primary(1)
    assert [op.slot for op in first] == [op.slot for op in second]
    for a, b, c in zip(first, again, second):
        out = a.call()
        assert run._same(out, b.call())
        assert not run._same(out, c.call())


def test_speed_factor_uses_the_probes_around_an_op():
    speed = run.SpeedProbe()
    speed.starts["scalar"], speed.times["scalar"] = [0.0, 1.0, 2.0], [1e-3, 2e-3, 4e-3]
    assert speed.factor(1.1, 1.9) == pytest.approx(run.SPEED_REF_S["scalar"] / 3e-3)
    assert speed.factor(2.5, 2.6) == pytest.approx(run.SPEED_REF_S["scalar"] / 4e-3)
    for form in run.SPEED_REF_S:
        speed.sample(form)
    assert len(speed.times["scalar"]) == 4 and len(speed.times["lapack"]) == 1
    assert speed.factor(0.0, 1.0, "lapack") > 0


# -- tracing ------------------------------------------------------------------

def test_traced_outputs_are_identical_to_untraced():
    plan = workloads.make_plan("cdf-grid", 3, R)
    ops = plan.primary(0) + [op for make, _ in plan.companions for op in make(0)]
    plain = [op.call() for op in ops]
    tracer = tracing.Tracer(R)
    tracer.install()
    try:
        assert R.roc.cdf_null is not R.finite_cdf.cdf_null.__wrapped__
        assert R.finite_cdf.jacobi_p_log.__wrapped__ is R.specfun.jacobi_p_log.__wrapped__
        traced = [op.call() for op in ops]
    finally:
        tracer.uninstall()
    assert not hasattr(R.roc.cdf_null, "__wrapped__")
    assert all(run._same(a, b) for a, b in zip(plain, traced))
    table = tracer.layer_table()
    assert table["specfun.jacobi_p_log"]["calls"] > 0
    assert all(0 <= row["self_s"] <= row["s"] + 1e-9 for row in table.values())


# -- the command --------------------------------------------------------------

def test_benchmark_json_lists_the_metrics():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,expected", [(0, END_TO_END), (1, PER_LAYER)])
def test_every_metric_is_printed_with_its_unit(trace, expected):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cdf-grid", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=probe.ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace == 0:
        assert result["metrics"]["fail_ratio"]["value"] > 1 / (result["attempted"] + 1)


def test_exits_nonzero_without_sources():
    # a bare copy of the benchmark, inside the checkout's ignored build directory
    bare = probe.ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(probe.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(probe.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "roc-sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
