"""royroot benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload {roc-sweep,cdf-grid,mc-oracle} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; royroot is imported from its ``src/``.
The run

1. repeats rounds of the workload's primary ops, each round with new
   inputs, until S seconds have passed (whole rounds, at least one), with
   the companion slices and SETUP_PROBES fresh-process runs of ``probe.py``
   spread over the same time;
2. runs the envelope part once, on cdf-grid (see ``workloads.py``);
3. checks outputs against the mpmath reference: every op of the first
   round and of the first companion repetition, one seed-chosen op of
   every later round or repetition, and every Monte Carlo op;
4. prints machine facts and details as JSON lines, then one JSON line
   ``{"correct", "attempted", "failed", "metrics"}``.

Timings are normalized to the machine's speed at the moment they were
taken.  A machine shared with other guests runs the same call up to twice
as long while they load the host, for seconds to minutes at a time.  A
speed probe (``SpeedProbe``, fixed work that calls no royroot code) runs
in the form that matches each op: scalar and small-array numpy work
between ops at least every SPEED_EVERY_S seconds, and batched LAPACK work
just before and just after every Monte Carlo op.  The LAPACK form runs on
one thread also for the two-worker ops: under heavy host load a two-thread
form slows about three times as much as those ops do.
Each op's wall time is scaled by its form's SPEED_REF_S over the mean of
the probe times just before and just after it: the time it would take on
a machine where the probe takes SPEED_REF_S.  ``setup_s`` is scaled the
same way.  The info line also gives the unscaled figures.

A slot is an op's place in a round; its inputs change every round.  Rates
are points over the summed medians of each slot's normalized times.
``*_p50_ms`` is the median over slots of those slot medians: slots differ
in cost by design, and the median slot is the typical call.  ``*_tail_ms``
is the CAL_TAIL / CDF_TAIL percentile of the normalized times of all
executions of the kind, so that costs that vary from input to input (a
calibration's iteration count) show.  ``setup_s`` is the median over the
set-up probes.

``attempted`` and ``failed`` count executions of primary and companion ops.
An execution fails when it raises, when its output differs from its
pair's, or when it is checked and fails its check.  Envelope ops are known
to fail today; they count only toward ``fail_ratio`` and ``worst_digits``.
``fail_ratio`` is taken over slots, envelope ops included, as
(failed + 1) / (attempted + 1): the pseudo-count keeps a clean run at its
resolution limit instead of 0, so relative bounds apply.

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1``
the side tasks run first, then untraced and traced rounds alternate, the
first round untraced and left out of the comparison.  The per-layer
metrics are per traced round; the two error counts also add the envelope
part's errors.  ``trace.overhead_share`` is the median normalized traced
round time over the median untraced one, minus 1.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import probe

SETUP_PROBES = 11
# tail percentiles over all executions of a kind; the info line gives the
# number of executions behind each (a run makes a few hundred calibrations)
CAL_TAIL = 90
CDF_TAIL = 90
# the speed probe: how often its scalar form runs between ops, how much
# work that form does, and per form the probe time that normalized figures
# refer to (round values near its time on a 2-core x86-64 VM)
SPEED_EVERY_S = 0.1
SPEED_LOOPS = 100
SPEED_REF_S = {"scalar": 1e-3, "lapack": 2e-3}


def _same(a, b) -> bool:
    import numpy as np
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


class SpeedProbe:
    """Fixed work in the style of royroot's, but no royroot code.

    Two forms: ``scalar``, small numpy arrays, scalar special functions
    and a small batched determinant, as the CDF and ROC code runs them;
    ``lapack``, a batched eigensolve, as the Monte Carlo sampler runs its
    chunks.  Each sample is the median of three timings of the work,
    stamped with its start time.  ``factor`` turns a wall time into a
    normalized one.
    """

    def __init__(self):
        import numpy as np
        self._np = np
        rng = np.random.default_rng(0)
        self._x = np.linspace(0.1, 2.0, 40)
        self._mats = rng.standard_normal((16, 6, 6))
        a = rng.standard_normal((400, 8, 8))
        self._spd = a @ a.transpose(0, 2, 1) + 8 * np.eye(8)
        self._work = {"scalar": self._scalar, "lapack": self._lapack}
        self.starts = {form: [] for form in SPEED_REF_S}
        self.times = {form: [] for form in SPEED_REF_S}

    def _scalar(self) -> None:
        np = self._np
        s = 0.0
        for i in range(SPEED_LOOPS):
            s += float(np.sum(np.log1p(self._x * (1.0 + i * 1e-9)) ** 2))
            s += math.lgamma(3.5 + i) - math.lgamma(2.5 + i)
        np.linalg.slogdet(self._mats)

    def _lapack(self) -> None:
        self._np.linalg.eigvalsh(self._spd)

    def sample(self, form: str = "scalar") -> None:
        work = self._work[form]
        stamp, times = time.perf_counter(), []
        for _ in range(3):
            start = time.perf_counter()
            work()
            times.append(time.perf_counter() - start)
        self.starts[form].append(stamp)
        self.times[form].append(statistics.median(times))

    def due(self) -> bool:
        starts = self.starts["scalar"]
        return not starts or time.perf_counter() - starts[-1] >= SPEED_EVERY_S

    def factor(self, start: float, end: float, form: str = "scalar") -> float:
        """SPEED_REF_S over the mean probe time just before start and just after end."""
        starts, times = self.starts[form], self.times[form]
        i = bisect.bisect_right(starts, start)
        j = bisect.bisect_left(starts, end)
        before = times[i - 1] if i else times[j]
        after = times[j] if j < len(times) else before
        return SPEED_REF_S[form] / ((before + after) / 2)


@dataclass
class Record:
    """One execution; it keeps no reference to the op, whose inputs are freed."""

    kind: str
    slot: tuple
    points: int
    probe: str
    start: float
    seconds: float
    error: Exception | None
    matches: bool       # equal to its pair's output, when it has one


class Runner:
    """Executes ops, times them, and keeps the outputs chosen for checking."""

    def __init__(self, speed: SpeedProbe):
        self.speed = speed
        self.records = []
        self.checked = []   # (record index, op, output)
        self._pending = {}  # pair -> output of its first op

    def execute(self, op, check: bool) -> int:
        if op.probe != "scalar":
            self.speed.sample(op.probe)
        elif self.speed.due():
            self.speed.sample()
        start = time.perf_counter()
        try:
            out, err = op.call(), None
        except Exception as exc:  # a failed op is a measured outcome
            out, err = exc, exc
        dt = time.perf_counter() - start
        if op.probe != "scalar":
            self.speed.sample(op.probe)
        matches = True
        if op.pair:
            if op.pair in self._pending:
                matches = err is None and _same(out, self._pending.pop(op.pair))
            else:
                self._pending[op.pair] = out
        self.records.append(Record(op.kind, op.slot, op.points, op.probe, start, dt, err, matches))
        if check and err is None:
            self.checked.append((len(self.records) - 1, op, out))
        return len(self.records) - 1

    def run_batch(self, ops, pick: int, after=None) -> list:
        """Execute ops, calling `after` after each; returns their record indices.

        All ops of a stream's first batch (pick < 0) are checked, then the
        op at index `pick` and every op with a cheap check.
        """
        indices = []
        for i, op in enumerate(ops):
            indices.append(self.execute(op, pick < 0 or i == pick or op.cheap_check))
            if after:
                after()
        return indices

    def normalized(self, index: int) -> float:
        rec = self.records[index]
        return rec.seconds * self.speed.factor(rec.start, rec.start + rec.seconds, rec.probe)


def _pick(seed: int, stream: int, rep: int, ops) -> int:
    """The op checked in full in a stream's later batches: -1 (all) in the first."""
    import numpy as np
    return -1 if rep == 0 else int(np.random.default_rng([seed, 100 + stream, rep]).integers(len(ops)))


def run_probe(workload: str, seed: int, speed: SpeedProbe) -> dict:
    """One fresh set-up process: its normalized start-to-exit time and its import times."""
    speed.sample()
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(Path(probe.__file__)), workload, str(seed)],
                          capture_output=True, text=True, timeout=120, check=True)
    wall = time.perf_counter() - start
    speed.sample()
    inner = json.loads(done.stdout.strip().splitlines()[-1])
    return {"setup_s": wall * speed.factor(start, start + wall), "setup_wall_s": wall,
            "setup.import_numpy_s": inner["import_numpy_s"],
            "setup.import_royroot_s": inner["import_royroot_s"]}


def side_tasks(runner: Runner, plan, workload: str, seed: int, probes: list) -> list:
    """Set-up probes and companion repetitions, interleaved in a fixed order."""
    tasks = []
    for rep in range(max(times for _, times in plan.companions)):
        for stream, (make, times) in enumerate(plan.companions, start=1):
            if rep < times:
                def task(make=make, rep=rep, stream=stream):
                    ops = make(rep)
                    runner.run_batch(ops, _pick(seed, stream, rep, ops))
                tasks.append(task)
    every = len(tasks) / SETUP_PROBES
    for i in reversed(range(SETUP_PROBES)):
        tasks.insert(round(i * every), lambda: probes.append(run_probe(workload, seed, runner.speed)))
    return tasks


def timed_loop(runner: Runner, plan, seed: int, seconds: float, side: list, tracer=None) -> list:
    """Whole primary rounds within `seconds`, at least one; returns (traced, record indices) per round.

    Another round starts only when the last one would still fit.  The side
    tasks are spread evenly over the same seconds, so that they meet the
    same machine load as the primary ops.  With a tracer, the side tasks
    must be empty, and rounds alternate untraced and traced, starting
    untraced, until at least one of each has run after the first.
    """
    start = time.perf_counter()
    done = 0

    def catch_up(until):
        nonlocal done
        while done < until:
            side[done]()
            done += 1

    rounds = []
    last = 0.0
    while (len(rounds) < (3 if tracer else 1)
           or time.perf_counter() - start + last <= seconds):
        r = len(rounds)
        traced = tracer is not None and r % 2 == 1
        ops = plan.primary(r)
        begun = time.perf_counter()
        if traced:
            tracer.install()
        try:
            indices = runner.run_batch(ops, _pick(seed, 0, r, ops), side and (lambda: catch_up(
                min(len(side), math.ceil(len(side) * (time.perf_counter() - start) / seconds)))))
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((traced, indices))
        last = time.perf_counter() - begun
    catch_up(len(side))
    runner.speed.sample()  # the probe after the last op
    return rounds


def machine_facts() -> dict:
    import mpmath
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ[v] for v in probe.BLAS_THREAD_VARS},
            "machine": platform.machine()}


def warm_up(R) -> None:
    """First-call costs (lazy imports, LAPACK dispatch) paid before timing."""
    fc = R.finite_cdf
    dims = fc.ProblemDims(2, 4, 5)
    fc.cdf_lambda_max(dims, fc.SpikeParam(1.0), [0.5, 2.0])
    R.roc.calibrate_threshold(dims, 0.1)
    R.monte_carlo.sample_lambda_max(R.monte_carlo.McConfig(dims, fc.SpikeParam(1.0), 64, 1, 2))


def check_all(runner: Runner) -> dict:
    """Verdict per checked record index."""
    return {index: op.check(out) for index, op, out in runner.checked}


def summarize(runner: Runner, verdicts: dict):
    """(executions, failed executions, slots, failed slots, failure notes)."""
    failed, slots, notes = 0, {}, []
    for index, rec in enumerate(runner.records):
        v = verdicts.get(index)
        bad = rec.error is not None or not rec.matches or (v is not None and not v.ok)
        failed += bad
        ident = (rec.kind, rec.slot)
        slots[ident] = slots.get(ident, False) or bad
        if bad and len(notes) < 50:
            why = (type(rec.error).__name__ if rec.error is not None else
                   "output differs from its pair's" if not rec.matches else
                   "check failed: max error %.3g" % max(v.errors, default=0.0))
            notes.append({"kind": rec.kind, "slot": repr(rec.slot), "why": why})
    return len(runner.records), failed, len(slots), sum(slots.values()), notes


def family_metrics(runner: Runner, normalize: bool) -> tuple:
    """Throughput and latency per metric family.

    Rates are points over the summed medians of each slot's times; the
    median latency is over the slot medians, the tail over all executions.
    """
    import numpy as np
    times = {}
    for index, rec in enumerate(runner.records):
        if rec.error is None:
            dt = runner.normalized(index) if normalize else rec.seconds
            times.setdefault((rec.kind, rec.slot), (rec.points, []))[1].append(dt)
    by_kind = {}
    for (kind, _), (points, dts) in times.items():
        by_kind.setdefault(kind, []).append((points, dts))

    def rate(kind):
        rows = by_kind[kind]
        return sum(p for p, _ in rows) / sum(statistics.median(dts) for _, dts in rows)

    def p50(kind):
        return statistics.median(statistics.median(dts) for _, dts in by_kind[kind]) * 1e3

    def tail(kind, q):
        return float(np.percentile([dt for _, dts in by_kind[kind] for dt in dts], q)) * 1e3

    return {
        "roc_points_per_s": rate("roc"),
        "calibrate_p50_ms": p50("cal"),
        "calibrate_tail_ms": tail("cal", CAL_TAIL),
        "cdf_points_per_s": rate("cdf"),
        "cdf_call_p50_ms": p50("cdf"),
        "cdf_call_tail_ms": tail("cdf", CDF_TAIL),
        "mc_trials_per_s_w1": rate("mc_w1"),
        "mc_trials_per_s_w2": rate("mc_w2"),
    }, {k: {"slots": len(v), "executions": sum(len(dts) for _, dts in v)} for k, v in by_kind.items()}


def layer_metrics(R, tracer, traced: int, env_records, wall: dict) -> dict:
    table = tracer.layer_table()
    counts = tracer.counts

    def span(name, field):
        return table.get(name, {}).get(field, 0) / traced

    out = {}
    for name in ("specfun.jacobi_p_log", "finite_cdf.cdf_null", "finite_cdf.cdf_lambda_max",
                 "finite_cdf.cdf_test_statistic"):
        out[name + ".calls"] = span(name, "calls")
        out[name + ".points"] = counts[name + ".points"] / traced
        out[name + ".self_s"] = span(name, "self_s")
    for name in ("finite_cdf.cdf_null", "finite_cdf.cdf_lambda_max", "finite_cdf.cdf_test_statistic",
                 "asymptotic.limit_cdf_fixed_alpha", "finite_cdf.psi_minor_determinant",
                 "detmat.det_scaled", "roc.calibrate_threshold", "roc.detection_probability",
                 "roc.roc_curve", "roc.low_snr_slope", "monte_carlo.sample_lambda_max",
                 "monte_carlo.ks_distance"):
        out[name + ".s"] = span(name, "s")
    for name in ("specfun.bessel_i", "asymptotic.limit_cdf_fixed_alpha", "detmat.det_scaled",
                 "roc.calibrate_threshold", "roc.detection_probability"):
        out[name + ".calls"] = span(name, "calls")
    out["specfun.bessel_i.self_s"] = span("specfun.bessel_i", "self_s")
    out["finite_cdf.entries"] = counts["finite_cdf.entries"] / traced
    cal_calls = table.get("roc.calibrate_threshold", {}).get("calls", 0)
    out["roc.calibrate_threshold.cdf_calls"] = (
        counts["roc.calibrate_threshold.cdf_calls"] / cal_calls if cal_calls else 0.0)
    out["monte_carlo.sample_lambda_max.trials"] = counts["monte_carlo.sample_lambda_max.trials"] / traced
    out["monte_carlo.sample_lambda_max.chunks"] = counts["monte_carlo.sample_lambda_max.chunks"] / traced
    out["monte_carlo.speedup_w2"] = wall["mc_trials_per_s_w2"] / wall["mc_trials_per_s_w1"]
    # per pass: a traced round plus the envelope part, which runs once
    env_errors = [rec.error for rec in env_records if rec.error is not None]
    out["finite_cdf.conditioning_errors"] = (
        counts["finite_cdf.conditioning_errors"] / traced
        + sum(isinstance(e, R.finite_cdf.ConditioningError) for e in env_errors))
    out["roc.bracketing_errors"] = (
        counts["roc.bracketing_errors"] / traced
        + sum(isinstance(e, R.roc.BracketingError) for e in env_errors))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    probe.prepare_process()
    import numpy as np
    import royroot as R
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {workloads.WORKLOADS}")

    phases = {}
    mark = time.perf_counter()

    def phase(name):
        nonlocal mark
        now = time.perf_counter()
        phases[name] = now - mark
        mark = now

    plan = workloads.make_plan(args.workload, args.seed, R)
    warm_up(R)
    phase("plan")

    runner = Runner(SpeedProbe())
    tracer = tracing.Tracer(R)
    probes = []
    side = side_tasks(runner, plan, args.workload, args.seed, probes)
    if args.trace:
        for task in side:
            task()
        phase("side")
        rounds = timed_loop(runner, plan, args.seed, args.seconds - phases["side"], [], tracer)
    else:
        rounds = timed_loop(runner, plan, args.seed, args.seconds, side)
    phase("timed")
    env = Runner(runner.speed)
    env.run_batch(plan.envelope, -1)
    phase("envelope")
    setup = {k: statistics.median(p[k] for p in probes) for k in probes[0]}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdicts = check_all(runner)
    env_verdicts = check_all(env)
    phase("checks")
    attempted, failed, slots, slots_failed, notes = summarize(runner, verdicts)
    _, _, env_ops, env_failed, env_notes = summarize(env, env_verdicts)
    errors = [e for v in (*verdicts.values(), *env_verdicts.values()) for e in v.errors]
    worst_err = max(max(errors, default=0.0), workloads.ERR_FLOOR)
    fam, per_kind = family_metrics(runner, normalize=True)
    wall = family_metrics(runner, normalize=False)[0]
    round_s = {key: [sum(runner.normalized(i) for i in indices)
                     for r, (traced, indices) in enumerate(rounds)
                     if traced == (key == "traced") and (r or not args.trace)]
               for key in ("untraced", "traced")}

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "machine": machine_facts(), "phase_s": phases,
            "rounds": {k: len(v) for k, v in round_s.items()}, "normalized_round_s": round_s,
            "speed_probe_s": {form: {"samples": len(times), "reference": SPEED_REF_S[form],
                                     "median": statistics.median(times) if times else None}
                              for form, times in runner.speed.times.items()},
            "wall": {**wall, "setup_s": setup["setup_wall_s"]},
            "per_kind": per_kind, "checked": len(verdicts),
            "tail_percentiles": {"calibrate": CAL_TAIL, "cdf_call": CDF_TAIL},
            "slots": slots, "failures": notes,
            "envelope": {"ops": env_ops, "failed": env_failed, "failures": env_notes}}
    print(json.dumps(info))

    if args.trace:
        metrics = layer_metrics(R, tracer, len(round_s["traced"]), env.records, wall)
        metrics["setup.import_numpy_s"] = setup["setup.import_numpy_s"]
        metrics["setup.import_royroot_s"] = setup["setup.import_royroot_s"]
        metrics["trace.overhead_share"] = float(
            np.median(round_s["traced"]) / np.median(round_s["untraced"]) - 1.0)
        print(json.dumps({"spans": len(tracer.spans), "layers": tracer.layer_table()}))
    else:
        metrics = {"setup_s": setup["setup_s"], "peak_rss_mb": peak_rss_mb,
                   "fail_ratio": (slots_failed + env_failed + 1) / (slots + env_ops + 1),
                   "worst_digits": -float(np.log10(worst_err)), **fam}
    spec = json.loads((probe.ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in listed} != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json's {listed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
