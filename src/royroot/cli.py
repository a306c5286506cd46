"""Command-line interface: CDF evaluation, threshold calibration, ROC curves,
sample-count optimization, asymptotic comparison, low-SNR slope, and
Monte-Carlo validation.  Emits CSV (default) or JSON on stdout.

Exit status: 0 success, 1 validation failure (mc-validate over tolerance),
2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import asymptotic, monte_carlo, roc
from .finite_cdf import (ConditioningError, ProblemDims, SpikeParam, cdf_lambda_max,
                         cdf_test_statistic)

__all__ = ["main"]

_ENV_WORKERS = "ROYROOT_WORKERS"


def _cell(v):
    """A table cell as its JSON value: "pass"/"fail", an int or a float."""
    if isinstance(v, bool):
        return "pass" if v else "fail"
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(v)


def _fmt(v) -> str:
    """A table cell as CSV text; floats keep all 17 significant digits."""
    c = _cell(v)
    return f"{c:.17g}" if isinstance(c, float) else str(c)


def _parse_snr(text: str) -> float:
    """'5dB' -> 10**0.5, '3.162' -> 3.162 (linear).  Unit is the dB suffix."""
    t = text.strip()
    if t.lower().endswith("db"):
        return roc.snr_from_db(float(t[:-2]))
    gamma = float(t)
    if gamma < 0:
        raise argparse.ArgumentTypeError(f"linear SNR must be >= 0, got {gamma}")
    return gamma


def _parse_tolerance(text: str) -> float:
    """A KS tolerance: finite and > 0, or no run could pass or fail by it."""
    tol = float(text)
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and > 0, got {text}")
    return tol


def _parse_grid(text: str) -> np.ndarray:
    """'start:stop:count:spacing' with spacing 'linear' or 'log'."""
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"grid must be start:stop:count:spacing, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    spacing = parts[3]
    if count < 2:
        raise argparse.ArgumentTypeError(f"grid count must be >= 2, got {count}")
    if spacing == "linear":
        return np.linspace(start, stop, count)
    if spacing == "log":
        if start <= 0:
            raise argparse.ArgumentTypeError("log grid requires start > 0")
        return np.geomspace(start, stop, count)
    raise argparse.ArgumentTypeError(f"spacing must be linear or log, got {spacing!r}")


def _emit(args, command: str, params: dict, columns, rows, extra=None) -> None:
    extra = extra or {}
    if args.format == "json":
        payload = {
            "command": command,
            "params": params,
            "columns": list(columns),
            "rows": [[_cell(v) for v in row] for row in rows],
            "extra": {k: float(v) for k, v in extra.items()},
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        return
    for k in sorted(extra):
        sys.stdout.write(f"# {k} = {_fmt(extra[k])}\n")
    sys.stdout.write(",".join(columns) + "\n")
    for row in rows:
        sys.stdout.write(",".join(_fmt(v) for v in row) + "\n")


def _dims(args) -> ProblemDims:
    return ProblemDims(args.m, args.n, args.p)


def _cmd_cdf(args) -> int:
    dims = _dims(args)
    spike = SpikeParam(args.snr)
    grid = args.grid
    fn = cdf_test_statistic if args.statistic else cdf_lambda_max
    vals = fn(dims, spike, grid)
    _emit(args, "cdf",
          {"m": dims.m, "n": dims.n, "p": dims.p, "snr": args.snr,
           "scale": "statistic" if args.statistic else "lambda"},
          ("t", "cdf"), list(zip(grid, vals)))
    return 0


def _cmd_roc(args) -> int:
    dims = _dims(args)
    curve = roc.roc_curve(dims, args.snr, args.grid)
    rows = [(pt.p_false_alarm, pt.p_detection, pt.threshold) for pt in curve.points]
    _emit(args, "roc", {"m": dims.m, "n": dims.n, "p": dims.p, "snr": args.snr},
          ("p_false_alarm", "p_detection", "threshold"), rows)
    return 0


def _cmd_calibrate(args) -> int:
    dims = _dims(args)
    mu = roc.calibrate_threshold(dims, args.pf)
    _emit(args, "calibrate", {"m": dims.m, "n": dims.n, "p": dims.p, "pf": args.pf},
          ("p_false_alarm", "threshold"), [(args.pf, mu)])
    return 0


def _cmd_pstar(args) -> int:
    lower, upper = roc.pstar_bounds(args.nu, args.snr, args.pf)
    approx = roc.pstar_approx(args.nu, args.snr, args.pf)
    p_cont, p_int = roc.optimize_pstar(args.nu, args.snr, args.pf)
    if args.grid is None:
        hi = max(10, math.ceil(2.0 * upper) + 5)
        grid = np.arange(1.0, hi + 1.0)
    else:
        grid = args.grid
    rows = [(p, roc.roc_closed_form_alpha0(args.nu * p, p, args.snr, args.pf)) for p in grid]
    _emit(args, "pstar", {"nu": args.nu, "snr": args.snr, "pf": args.pf},
          ("p", "p_detection"), rows,
          extra={"pstar_lower": lower, "pstar_upper": upper,
                 "pstar_approx": approx, "pstar_continuous": p_cont,
                 "pstar_integer": p_int})
    return 0


def _cmd_asymptotic(args) -> int:
    if args.fixed_alpha and args.scaled_snr:
        raise _Usage("choose one of --fixed-alpha or --scaled-snr")
    if not (args.fixed_alpha or args.scaled_snr):
        raise _Usage("one of --fixed-alpha or --scaled-snr is required")
    if args.scaled_snr:
        if args.m is None or args.c is None or args.theta is None:
            raise _Usage("--scaled-snr requires --m, --c and --theta")
        regime = asymptotic.AsymptoticRegime(args.c, args.theta)
        m = args.m
        dims = ProblemDims(m, m, max(m, round(m / regime.c)))
        eta = regime.theta * m
        params = {"m": m, "c": regime.c, "theta": regime.theta, "mode": args.mode}
        if args.mode == "cdf":
            rows = [(x,
                     cdf_lambda_max(dims, SpikeParam(eta), m * m * x - 1.0),
                     asymptotic.limit_cdf_scaled_snr(regime, x))
                    for x in args.grid]
            _emit(args, "asymptotic", params, ("x", "finite_cdf", "limit_cdf"), rows)
        else:
            pd = roc.detection_probability(dims, eta, roc.calibrate_threshold(dims, args.grid))
            rows = [(pf, d, roc.asymptotic_roc_scaled(regime.theta, pf))
                    for pf, d in zip(args.grid, pd)]
            _emit(args, "asymptotic", params,
                  ("p_false_alarm", "p_detection_finite", "p_detection_limit"), rows)
        return 0
    if args.m is None or args.n is None or args.p is None:
        raise _Usage("--fixed-alpha requires --m, --n and --p")
    dims = _dims(args)
    spike = SpikeParam(args.snr)
    params = {"m": dims.m, "n": dims.n, "p": dims.p, "snr": args.snr, "mode": args.mode}
    if args.mode == "cdf":
        rows = [(x,
                 cdf_lambda_max(dims, spike, dims.m * dims.m * x - 1.0),
                 asymptotic.limit_cdf_fixed_alpha(dims.alpha, x))
                for x in args.grid]
        _emit(args, "asymptotic", params, ("x", "finite_cdf", "limit_cdf"), rows)
    else:
        # in this regime the limiting ROC is the chance line
        pd = roc.detection_probability(dims, args.snr, roc.calibrate_threshold(dims, args.grid))
        rows = list(zip(args.grid, pd, args.grid))
        _emit(args, "asymptotic", params,
              ("p_false_alarm", "p_detection_finite", "p_detection_limit"), rows)
    return 0


def _cmd_mc_validate(args) -> int:
    dims = _dims(args)
    spike = SpikeParam(args.snr)
    config = monte_carlo.McConfig(dims, spike, args.trials, args.seed, args.workers)
    try:    # opened before sampling, so a bad path costs no run
        dump = None if args.dump is None else open(args.dump, "w", encoding="ascii")
    except OSError as exc:
        raise _Usage(f"cannot write --dump {args.dump!r}: {exc.strerror}") from None
    with dump or contextlib.nullcontext():
        emp = monte_carlo.sample_lambda_max(config)
        ks = monte_carlo.ks_distance(emp, lambda x: cdf_lambda_max(dims, spike, x))
        if dump is not None:
            monte_carlo.dump_samples(emp, dump)
    passed = ks < args.tolerance
    _emit(args, "mc-validate",
          {"m": dims.m, "n": dims.n, "p": dims.p, "snr": args.snr,
           "trials": args.trials, "seed": args.seed, "workers": args.workers},
          ("ks_distance", "tolerance", "trials", "result"),
          [(ks, args.tolerance, args.trials, passed)])
    return 0 if passed else 1


def _cmd_slope(args) -> int:
    dims = _dims(args)
    val = roc.low_snr_slope(dims, args.pf)
    _emit(args, "slope", {"m": dims.m, "n": dims.n, "p": dims.p, "pf": args.pf},
          ("p_false_alarm", "slope"), [(args.pf, val)])
    return 0


class _Usage(Exception):
    pass


def _add_dims(sub, required=True):
    sub.add_argument("--m", type=int, required=required, help="system dimension m")
    sub.add_argument("--n", type=int, required=required, help="noise-only sample count n")
    sub.add_argument("--p", type=int, required=required, help="signal-plus-noise sample count p")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="royroot",
        description="Largest-root detection in colored noise: exact CDFs, "
                    "ROC analysis and Monte-Carlo validation.")
    ap.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="output format (default csv)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cdf", help="CDF rows (t, F) for the largest eigenvalue")
    _add_dims(p)
    p.add_argument("--snr", type=_parse_snr, required=True,
                   help="spike strength, linear or with dB suffix (e.g. 5dB)")
    p.add_argument("--grid", type=_parse_grid, required=True,
                   help="t grid start:stop:count:{linear|log}")
    p.add_argument("--statistic", action="store_true",
                   help="evaluate the p/n-rescaled test statistic instead")
    p.set_defaults(func=_cmd_cdf)

    p = sub.add_parser("roc", help="ROC rows (P_F, P_D, threshold)")
    _add_dims(p)
    p.add_argument("--snr", type=_parse_snr, required=True)
    p.add_argument("--grid", type=_parse_grid, required=True,
                   help="P_F grid start:stop:count:{linear|log}")
    p.set_defaults(func=_cmd_roc)

    p = sub.add_parser("calibrate", help="threshold for a target false-alarm rate")
    _add_dims(p)
    p.add_argument("--pf", type=float, required=True, help="target P_F in (0,1)")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("pstar", help="P_D vs sample count at fixed m/p, with optimum")
    p.add_argument("--nu", type=float, required=True, help="ratio m/p > 0")
    p.add_argument("--snr", type=_parse_snr, required=True)
    p.add_argument("--pf", type=float, required=True)
    p.add_argument("--grid", type=_parse_grid, default=None,
                   help="p grid start:stop:count:{linear|log} (default: integer sweep)")
    p.set_defaults(func=_cmd_pstar)

    p = sub.add_parser("asymptotic", help="finite-vs-limit CDF or ROC columns")
    _add_dims(p, required=False)
    p.add_argument("--snr", type=_parse_snr, default=0.0)
    p.add_argument("--fixed-alpha", action="store_true",
                   help="fixed alpha, beta, spike regime")
    p.add_argument("--scaled-snr", action="store_true",
                   help="spike scaling with m; needs --c and --theta")
    p.add_argument("--c", type=float, default=None, help="limit of m/p in (0,1]")
    p.add_argument("--theta", type=float, default=None, help="limit of snr/m >= 0")
    p.add_argument("--mode", choices=("cdf", "roc"), default="cdf")
    p.add_argument("--grid", type=_parse_grid, required=True,
                   help="x grid (cdf mode) or P_F grid (roc mode)")
    p.set_defaults(func=_cmd_asymptotic)

    p = sub.add_parser("mc-validate", help="KS distance of Monte-Carlo law vs exact CDF")
    _add_dims(p)
    p.add_argument("--snr", type=_parse_snr, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    # a string default is converted by type=int only when mc-validate parses it
    p.add_argument("--workers", type=int, default=os.environ.get(_ENV_WORKERS, "1"),
                   help=f"parallel workers (default ${_ENV_WORKERS} or 1)")
    p.add_argument("--tolerance", type=_parse_tolerance, default=0.005,
                   help="largest KS distance that passes, finite and > 0 (default 0.005)")
    p.add_argument("--dump", type=str, default=None,
                   help="write raw samples to this file, one per line")
    p.set_defaults(func=_cmd_mc_validate)

    p = sub.add_parser("slope", help="low-SNR slope of P_D(gamma) at gamma = 0")
    _add_dims(p)
    p.add_argument("--pf", type=float, required=True)
    p.set_defaults(func=_cmd_slope)

    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except _Usage as exc:
        print(f"royroot: {exc}", file=sys.stderr)
        return 2
    except (ValueError, roc.BracketingError, ConditioningError) as exc:
        print(f"royroot: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
