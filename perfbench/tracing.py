"""Spans around royroot's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every
royroot module that holds it, including the names callers re-import
(``finite_cdf.jacobi_p_log``, ``roc.cdf_null``, ``roc.cdf_test_statistic``,
``roc.psi_minor_determinant``, ``asymptotic.bessel_i``), so calls between
modules are seen as well as the benchmark's own.  Each call appends one
span (name, parent span, start, end) to a list kept in memory; counts of
work are taken at the same boundary.  ``uninstall`` restores the originals.

A span's self time is its duration minus the durations of its direct
children.  Spans in worker threads are not recorded: royroot's Monte Carlo
pool runs only private chunk functions.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function): the traced layer boundaries
TARGETS = (
    ("specfun", "jacobi_p_log"),
    ("specfun", "bessel_i"),
    ("detmat", "det_scaled"),
    ("finite_cdf", "cdf_null"),
    ("finite_cdf", "cdf_lambda_max"),
    ("finite_cdf", "cdf_test_statistic"),
    ("finite_cdf", "psi_minor_determinant"),
    ("roc", "calibrate_threshold"),
    ("roc", "detection_probability"),
    ("roc", "roc_curve"),
    ("roc", "low_snr_slope"),
    ("monte_carlo", "sample_lambda_max"),
    ("monte_carlo", "ks_distance"),
    ("asymptotic", "limit_cdf_fixed_alpha"),
)
MODULES = ("specfun", "detmat", "finite_cdf", "roc", "monte_carlo", "asymptotic")


def _positive(t) -> int:
    ts = np.asarray(t, dtype=float)
    return int(np.count_nonzero((ts > 0) & np.isfinite(ts)))


class Tracer:
    def __init__(self, R):
        self._R = R
        self.spans = []          # (name, parent index or -1, start, end)
        self.counts = Counter()  # work counted at span entry, by metric name
        self._stack = []         # indices of open spans
        self._open = Counter()   # open spans by name
        self._saved = []         # (module, attribute, original)

    # -- counting at span entry ------------------------------------------------

    def _count(self, name, args):
        c = self.counts
        if name == "specfun.jacobi_p_log":
            c["specfun.jacobi_p_log.points"] += int(np.size(args[3]))
        elif name in ("finite_cdf.cdf_null", "finite_cdf.cdf_lambda_max"):
            dims, t = args[0], args[-1]
            c[name + ".points"] += int(np.size(t))
            if name == "finite_cdf.cdf_null" or args[1].eta == 0.0:
                order = dims.alpha
            else:
                order = dims.alpha + 1 if dims.alpha else 0
            c["finite_cdf.entries"] += _positive(t) * order * order
            if name == "finite_cdf.cdf_null" and self._open["roc.calibrate_threshold"]:
                c["roc.calibrate_threshold.cdf_calls"] += 1
        elif name == "finite_cdf.cdf_test_statistic":
            c[name + ".points"] += int(np.size(args[2]))
        elif name == "finite_cdf.psi_minor_determinant":
            c["finite_cdf.entries"] += args[0].alpha ** 2
        elif name == "monte_carlo.sample_lambda_max":
            trials = args[0].trials
            c["monte_carlo.sample_lambda_max.trials"] += trials
            c["monte_carlo.sample_lambda_max.chunks"] += math.ceil(
                trials / self._R.monte_carlo.CHUNK_TRIALS)

    def _count_error(self, name, exc):
        if (isinstance(exc, self._R.finite_cdf.ConditioningError)
                and name in ("finite_cdf.cdf_null", "finite_cdf.cdf_lambda_max")):
            self.counts["finite_cdf.conditioning_errors"] += 1
        if (isinstance(exc, self._R.roc.BracketingError)
                and name in ("roc.calibrate_threshold", "roc.low_snr_slope")):
            self.counts["roc.bracketing_errors"] += 1

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, open_ = self.spans, self._stack, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self._count(name, args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            open_[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._count_error(name, exc)
                raise
            finally:
                end = clock()
                open_[name] -= 1
                stack.pop()
                spans[idx] = (name, parent, start, end)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [self._R] + [getattr(self._R, m) for m in MODULES]
        for home, fname in TARGETS:
            orig = getattr(getattr(self._R, home), fname)
            wrapper = self._wrap(f"{home}.{fname}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    # -- aggregation -------------------------------------------------------------

    def layer_table(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[1] >= 0:
                child[span[1]] += span[3] - span[2]
        table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            row = table[span[0]]
            row["calls"] += 1
            row["s"] += span[3] - span[2]
            row["self_s"] += span[3] - span[2] - child[i]
        return dict(table)
