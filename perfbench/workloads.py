"""The benchmark's workloads: inputs made from the seed, the calls into
royroot that one round of a workload makes, and the check on each output.

Every workload is a closed loop with one caller, run as rounds.  The cases,
calibration targets and slope targets are fixed.  The seed picks the SNRs;
the seed and the round index pick each round's grid offsets, Monte Carlo
seeds and a small relative jitter (ROUND_JITTER) on every SNR and target.
So no timed input repeats within a run, while every round costs about the
same.  A plan has three parts:

- ``primary``: round r of the workload's own calls; rounds repeat for the
  run's seconds;
- ``companions``: a small slice of the other two workloads' calls, run a
  fixed number of times, so that every workload reports every end-to-end
  metric;
- ``envelope`` (cdf-grid only): committed inputs with alpha 10 to 16, and
  alpha 8 at m = 32, where the double-precision determinant is known to
  lose accuracy or raise.  They run once, untimed, and count only toward
  ``fail_ratio`` and ``worst_digits``.

Each op's check compares its output with ``reference.py`` (mpmath, no
royroot code) and returns the absolute errors it found.  CDF values,
detection probabilities, slopes and limit laws are compared directly;
a threshold is checked by the reference null CDF at the threshold against
its target 1 - P_F.  A Monte Carlo op passes when its KS distance is below
KS_BOUND / sqrt(N) and its two worker counts return identical samples; the
exact-CDF values it used are compared with the reference for
``worst_digits`` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("roc-sweep", "cdf-grid", "mc-oracle")

# absolute tolerance on probabilities and slopes: flags a 1e-6 error while
# every primary case passes today with more than 10x margin
TOL = 1e-7
# errors below this read as full double precision in worst_digits
ERR_FLOOR = 1e-16
# a run checks a few dozen KS distances on fresh samples; at 3 / sqrt(N)
# each passes a correct sampler with probability 1 - 3e-8
KS_BOUND = 3.0
# relative jitter each round puts on SNRs, P_F targets and Monte Carlo SNRs
ROUND_JITTER = 1e-3

# 50-point curves on the three cheaper ROC cases; the two expensive ones,
# whose curves take 3 to 5 s, are timed through their calibrations, which
# are 94% of a curve's time
ROC_CURVE_CASES = ((2, 4, 5), (5, 8, 10), (4, 4, 8))
ROC_CAL_CASES = ((2, 4, 5), (5, 8, 10), (4, 10, 12), (16, 20, 32), (4, 4, 8))
ROC_POINTS = 50
ROC_PF = (1e-3, 0.8)          # P_F grid ends, before the round's offset
ROC_PF_SHIFT = 0.05           # largest offset, in decades
# the targets are fixed up to the jitter: a calibration's cost depends on
# its target through the solver's iteration count
CAL_PF = (1e-3, 1e-2, 0.1, 0.5)
SLOPE_PF = 0.1
ROC_CHECK_EVERY = 7           # thresholds and P_D checked at every 7th point

# (m, n, p): t range from about the 1e-8 to the 1 - 1e-6 null quantile
CDF_CASES = (((2, 4, 5), 0.1, 500.0), ((5, 8, 10), 1.0, 500.0),
             ((16, 20, 32), 10.0, 1400.0), ((4, 10, 12), 0.7, 60.0),
             ((2, 10, 4), 0.025, 10.0))
CDF_ETAS = (0.0, 1.0, 10.0)
CDF_POINTS = 200
CDF_VARIANTS = 4              # grids per case and function in a round
CDF_CHECKED = 3               # points checked per grid
# limit_cdf_fixed_alpha over the x grid of the README's asymptotic example
LIMIT_ALPHAS = (1, 4, 8)
LIMIT_GRID = (0.1, 20.0, 100)

# trials per case, at least two chunks of 4096 where the matrices are large
# enough for the second worker to help; (16, 20, 32) stands for the large
# case, whose (32, 40, 64) form takes about 10 s a call on two cores
MC_CASES = (((2, 4, 4), 16 * 4096), ((8, 12, 16), 3 * 4096), ((16, 20, 32), 2 * 4096))
MC_RANKS = (0.05, 0.25, 0.5, 0.75, 0.95)   # samples whose CDF value is checked

# companion slices, made of short calls: (cases, ROC points, times run),
# (cases, grid variants, times run) and (cases, times run)
ROC_COMPANION = (ROC_CURVE_CASES[:1], 10, 30)
CDF_COMPANION = (CDF_CASES[:2], 1, 30)
MC_COMPANION = ((((4, 8, 8), 2 * 4096),), 30)

# envelope part: alpha 10 to 16, and the alpha = 8 case at m = 32
ENV_CDF = (((2, 12, 4), 0.0, (0.5, 2.0, 8.0)), ((2, 14, 4), 0.0, (0.5, 2.0, 8.0)),
           ((2, 18, 4), 0.0, (0.5, 2.0, 8.0)), ((8, 24, 16), 0.0, (0.5, 2.0, 8.0)),
           ((4, 20, 64), 0.0, (0.5, 2.0, 8.0)), ((2, 12, 4), 3.0, (0.5, 2.0, 8.0)),
           ((2, 14, 4), 3.0, (0.5, 2.0, 8.0)), ((4, 20, 64), 1.0, (0.5, 2.0, 8.0)),
           ((32, 40, 64), 2.0, (60.0, 120.0, 240.0)))
ENV_GRID = ((2, 12, 4), 3.0, 0.05, 200.0, 400)
ENV_CAL = (((2, 12, 4), 0.1), ((2, 14, 4), 0.1), ((1, 17, 4), 0.1),
           ((2, 18, 4), 0.01), ((2, 18, 4), 0.1), ((2, 18, 4), 0.5),
           ((4, 20, 8), 0.1), ((8, 24, 16), 0.1))


@dataclass(frozen=True)
class Verdict:
    ok: bool
    errors: tuple  # absolute errors against the reference


@dataclass(frozen=True)
class Op:
    """One call into royroot.

    ``kind`` names the metric family it is timed under.  ``slot`` is its
    place in a round: the same in every round, with new inputs each time.
    ``points`` is the ROC points, CDF points or MC trials it produces,
    and ``probe`` the form of the benchmark's speed probe whose work is
    most like its own.  Ops with the same ``pair`` must return identical
    outputs (the two worker counts of one Monte Carlo draw).
    ``cheap_check`` ops are checked in every round, the others in round 0
    and by sample.
    """

    kind: str
    slot: tuple
    call: Callable[[], object]
    points: int
    check: Callable[[object], Verdict]
    pair: tuple = ()
    cheap_check: bool = False
    probe: str = "scalar"


@dataclass(frozen=True)
class Plan:
    primary: Callable[[int], list]   # round index -> that round's ops
    companions: list                 # (repetition index -> ops, repetitions)
    envelope: list


def _ref():
    import reference  # deferred so that set-up time does not include mpmath
    return reference


def _verdict(errors, ok=True) -> Verdict:
    errs = tuple(math.inf if math.isnan(e) else e for e in map(float, errors))
    return Verdict(ok and all(e <= TOL for e in errs), errs)


def _jitter(rng) -> float:
    return 1.0 + ROUND_JITTER * rng.uniform()


def _cdf_check(case, eta, ts, idx, kappa=1.0):
    """Check CDF outputs at ts[idx]; royroot evaluates at kappa * ts."""
    def check(out):
        ref = _ref()
        return _verdict(abs(out[i] - ref.cdf(*case, eta, kappa * ts[i])) for i in idx)
    return check


def _threshold_check(case, pf):
    """A threshold mu passes when the null CDF at it is 1 - pf."""
    def check(mu):
        m, n, p = case
        return _verdict([abs(_ref().cdf(m, n, p, 0.0, (p / n) * mu) - (1 - pf))])
    return check


def _roc_ops(R, base, jit, curve_cases, cal_cases, points=ROC_POINTS):
    ops = []
    lo, hi = np.log10(ROC_PF)
    step = (hi - lo) / (points - 1)
    for case in curve_cases:
        dims = R.finite_cdf.ProblemDims(*case)
        gamma = float(10 ** base.uniform(-0.3, 1.0)) * _jitter(jit)
        grid = 10 ** (lo + ROC_PF_SHIFT * jit.uniform() + step * np.arange(points))

        def check_curve(curve, case=case, gamma=gamma, grid=grid):
            ref = _ref()
            m, n, p = case
            pts = curve.points
            errs = []
            for i in range(0, len(grid), ROC_CHECK_EVERY):
                t = (p / n) * pts[i].threshold
                errs.append(abs(ref.cdf(m, n, p, 0.0, t) - (1 - grid[i])))
                errs.append(abs(1 - ref.cdf(m, n, p, gamma, t) - pts[i].p_detection))
            same_grid = [pt.p_false_alarm for pt in pts] == list(grid)
            return _verdict(errs, same_grid)

        ops.append(Op("roc", ("roc", case),
                      lambda dims=dims, gamma=gamma, grid=grid: R.roc.roc_curve(dims, gamma, grid),
                      points, check_curve))
    for case in cal_cases:
        dims = R.finite_cdf.ProblemDims(*case)
        for target in CAL_PF:
            pf = target * _jitter(jit)
            ops.append(Op("cal", ("cal", case, target),
                          lambda dims=dims, pf=pf: R.roc.calibrate_threshold(dims, pf), 1,
                          _threshold_check(case, pf)))
        pf = SLOPE_PF * _jitter(jit)
        ops.append(Op("slope", ("slope", case, SLOPE_PF),
                      lambda dims=dims, pf=pf: R.roc.low_snr_slope(dims, pf), 1,
                      lambda s, case=case, pf=pf:
                      _verdict([abs(s - _ref().low_snr_slope(*case, pf))])))
    return ops


def _cdf_ops(R, base, jit, cases, variants, with_limits):
    """Each variant is one grid per case and function, offset anew each round."""
    fc = R.finite_cdf
    ops = []
    for v in range(variants):
        for case, lo, hi in cases:
            dims = fc.ProblemDims(*case)
            ts = lo * (hi / lo) ** ((jit.uniform() + np.arange(CDF_POINTS)) / CDF_POINTS)
            idx = np.sort(jit.choice(CDF_POINTS, CDF_CHECKED, replace=False))
            for eta in CDF_ETAS:
                spike = fc.SpikeParam(eta)
                ops.append(Op("cdf", ("cdf_lambda_max", case, eta, v),
                              lambda dims=dims, spike=spike, ts=ts:
                              R.finite_cdf.cdf_lambda_max(dims, spike, ts),
                              CDF_POINTS, _cdf_check(case, eta, ts, idx)))
            ops.append(Op("cdf", ("cdf_null", case, v),
                          lambda dims=dims, ts=ts: R.finite_cdf.cdf_null(dims, ts),
                          CDF_POINTS, _cdf_check(case, 0.0, ts, idx)))
            snr = float(10 ** base.uniform(-0.3, 1.0)) * _jitter(jit)
            spike = fc.SpikeParam(snr)
            xs = ts / dims.kappa
            ops.append(Op("cdf", ("cdf_test_statistic", case, v),
                          lambda dims=dims, spike=spike, xs=xs:
                          R.finite_cdf.cdf_test_statistic(dims, spike, xs),
                          CDF_POINTS, _cdf_check(case, snr, xs, idx, dims.kappa)))
        if with_limits:
            lo, hi, count = LIMIT_GRID
            step = (hi - lo) / (count - 1)
            xs = lo + step * (jit.uniform() + np.arange(count))
            idx = np.sort(jit.choice(count, CDF_CHECKED, replace=False))
            for alpha in LIMIT_ALPHAS:
                def check_limit(out, alpha=alpha, xs=xs, idx=idx):
                    ref = _ref()
                    return _verdict(abs(out[i] - ref.limit_cdf_fixed_alpha(alpha, xs[i])) for i in idx)
                ops.append(Op("cdf", ("limit_cdf_fixed_alpha", alpha, v),
                              lambda alpha=alpha, xs=xs:
                              [R.asymptotic.limit_cdf_fixed_alpha(alpha, float(x)) for x in xs],
                              count, check_limit))
    return ops


def _mc_ops(R, base, jit, cases, pair):
    """Both worker counts of one draw per case; ``pair`` tells rounds apart."""
    mc, fc = R.monte_carlo, R.finite_cdf
    ops = []
    for case, trials in cases:
        dims = fc.ProblemDims(*case)
        spike = fc.SpikeParam(float(10 ** base.uniform(0.0, 0.5)) * _jitter(jit))
        seed = int(jit.integers(2 ** 63))
        ranks = [int(q * (trials - 1)) for q in MC_RANKS]

        def call(dims=dims, spike=spike, trials=trials, seed=seed, ranks=ranks, workers=1):
            used = {}

            def exact(x):
                used["f"] = R.finite_cdf.cdf_lambda_max(dims, spike, x)
                return used["f"]
            emp = R.monte_carlo.sample_lambda_max(
                mc.McConfig(dims, spike, trials, seed, workers))
            ks = R.monte_carlo.ks_distance(emp, exact)
            return ks, emp.samples, used["f"][ranks]

        def check(out, case=case, eta=spike.eta, trials=trials, ranks=ranks):
            ks, samples, f = out
            ref = _ref()
            errs = [abs(f[j] - ref.cdf(*case, eta, samples[r])) for j, r in enumerate(ranks)]
            ok = samples.size == trials and ks <= KS_BOUND / math.sqrt(trials)
            return Verdict(ok, _verdict(errs).errors)

        for workers in (1, 2):
            ops.append(Op(f"mc_w{workers}", ("mc", case),
                          lambda call=call, workers=workers: call(workers=workers),
                          trials, check, pair=("mc", case, *pair), cheap_check=True,
                          probe="lapack"))
    return ops


def _envelope_ops(R):
    fc = R.finite_cdf
    ops = []
    for case, eta, ts in ENV_CDF:
        dims, spike = fc.ProblemDims(*case), fc.SpikeParam(eta)
        for t in ts:
            ops.append(Op("env", ("cdf_lambda_max", case, eta, t),
                          lambda dims=dims, spike=spike, t=t: R.finite_cdf.cdf_lambda_max(dims, spike, t), 1,
                          lambda v, case=case, eta=eta, t=t:
                          _verdict([abs(v - _ref().cdf(*case, eta, t))])))
    case, eta, lo, hi, count = ENV_GRID
    dims, spike = fc.ProblemDims(*case), fc.SpikeParam(eta)
    ts = np.geomspace(lo, hi, count)
    ops.append(Op("env", ("cdf_lambda_max", case, eta, "grid"),
                  lambda: R.finite_cdf.cdf_lambda_max(dims, spike, ts), count,
                  _cdf_check(case, eta, ts, range(0, count, count // 8))))
    for case, pf in ENV_CAL:
        dims = fc.ProblemDims(*case)
        ops.append(Op("env", ("cal", case, pf),
                      lambda dims=dims, pf=pf: R.roc.calibrate_threshold(dims, pf), 1,
                      _threshold_check(case, pf)))
    return ops


def make_plan(workload: str, seed: int, R) -> Plan:
    """Build a workload's rounds from its seed; R is the imported royroot package.

    Each stream of ops (the primary rounds, each companion) draws its base
    values from (seed, stream) and round r's offsets from (seed, stream, r),
    so round r is the same whenever it is built.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")

    def stream(index, build):
        def ops(r):
            base = np.random.default_rng([seed, index])
            jit = np.random.default_rng([seed, index, r + 1])
            return build(base, jit, r)
        return ops

    roc = stream(1, lambda base, jit, r: _roc_ops(R, base, jit, ROC_COMPANION[0], ROC_COMPANION[0],
                                                  ROC_COMPANION[1]))
    cdf = stream(2, lambda base, jit, r: _cdf_ops(R, base, jit, CDF_COMPANION[0], CDF_COMPANION[1],
                                                  False))
    mc = stream(3, lambda base, jit, r: _mc_ops(R, base, jit, MC_COMPANION[0], ("companion", r)))
    if workload == "roc-sweep":
        primary = stream(0, lambda base, jit, r: _roc_ops(R, base, jit, ROC_CURVE_CASES, ROC_CAL_CASES))
        return Plan(primary, [(cdf, CDF_COMPANION[2]), (mc, MC_COMPANION[1])], [])
    if workload == "cdf-grid":
        primary = stream(0, lambda base, jit, r: _cdf_ops(R, base, jit, CDF_CASES, CDF_VARIANTS, True))
        return Plan(primary, [(roc, ROC_COMPANION[2]), (mc, MC_COMPANION[1])], _envelope_ops(R))
    primary = stream(0, lambda base, jit, r: _mc_ops(R, base, jit, MC_CASES, ("primary", r)))
    return Plan(primary, [(roc, ROC_COMPANION[2]), (cdf, CDF_COMPANION[2])], [])
