"""Workload and metric names, the closed-loop op runner and the
tail-percentile rule.

Pure Python: nothing here imports the library, so `run.py`, the workload
process and the self-tests share it without paying the library's import.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback

WORKLOADS = ("tail", "support", "calibrate", "estimate")

# name -> unit; the end-to-end set is printed by an untraced run, the
# per-layer set by a traced run.  BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "ise_max_rel_err": "ratio",
    "ok_frac": "ratio",
}

# Per-layer times and counts are per traced op, so they do not grow with
# the run length or with the speed of the other layers.
PER_LAYER = {
    "signals.pdf.s": "s/op",
    "signals.pdf.points": "count/op",
    "risk.ise.self_s": "s/op",
    "risk.ise.grid_points": "count/op",
    "risk.grid.coarsened": "count/op",
    "risk.grid.useful_frac": "ratio",
    "kernel.fit_kernel.s": "s/op",
    "kernel.fit_kernel.pairs": "count/op",
    "kernel.eval_kernel.s": "s/op",
    "kernel.eval_kernel.points": "count/op",
    "estimator.estimate.s": "s/op",
    "estimator.estimate.calls": "count/op",
    "estimator.kept_cells": "count/op",
    "estimator.evaluate.s": "s/op",
    "estimator.evaluate.points": "count/op",
    "signals.sample.s": "s/op",
    "signals.sample.draws": "count/op",
    "cli.main.self_s": "s/op",
    "cli.bytes_io": "B/op",
    "setup.import_s": "s",
    "basis.spline_basis.s": "s",
    "trace.overhead_frac": "ratio",
}

TAIL_BEYOND = 10
# An untraced run lasts at least this many ops.  Fewer would put op_ms_tail
# at the median; on `tail`, whose cases differ tenfold in cost, 20 and 24
# ops put the tail percentile in different cases' clusters.
MIN_OPS = 24


def tail_percentile(samples) -> tuple[int, float]:
    """Highest whole percentile whose nearest-rank value has at least
    ``TAIL_BEYOND`` samples ranked above it, with that value.  With too
    few samples for any percentile the maximum is returned as percentile
    100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return 100, xs[-1]
    p = 100 * (n - TAIL_BEYOND) // n
    rank = max(1, -(-p * n // 100))  # ceil(p n / 100)
    return p, xs[rank - 1]


def run_ops(cases, run, check, seconds: float, seed_for, tracer=None,
            min_ops: int = 0):
    """Closed loop, one caller: run whole rounds over ``cases`` until the
    summed op time reaches ``seconds`` and at least ``min_ops`` ops ran.

    ``run(case, master_seed)`` is the timed op; ``check(case, result, op)``
    runs untimed after it.  An op fails when it raises or its check
    returns False.  Whole rounds keep every case equally represented, so
    the percentiles do not depend on where the clock ran out.  Returns the
    op durations in seconds and the number of failed ops.
    """
    durations = []
    failed = 0
    op = 0
    busy = 0.0
    while busy < seconds or len(durations) < min_ops:
        for case in cases:
            master = seed_for(op)
            if tracer is not None:
                tracer.begin_op(op)
            t0 = time.perf_counter()
            try:
                result = run(case, master)
                ok = True
            except Exception:  # an op that raises is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                ok = False
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            if ok:
                try:
                    ok = bool(check(case, result, op))
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    ok = False
            if not ok:
                failed += 1
            durations.append(dt)
            busy += dt
            op += 1
    return durations, failed


def end_to_end_values(durations, failed: int, setups, peak_rss_mb: float,
                      sentinel: dict) -> tuple[dict, int]:
    """Every END_TO_END metric of one untraced run, plus the percentile
    that op_ms_tail reports."""
    ms = [1000.0 * d for d in durations]
    pct, tail = tail_percentile(ms)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": len(durations) / math.fsum(durations),
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": tail,
        "peak_rss_mb": peak_rss_mb,
        "ise_max_rel_err": max(sentinel.values()),
        "ok_frac": (len(durations) - failed) / len(durations),
    }
    return values, pct


def per_layer_values(layers: dict, setups, durations, traced) -> dict:
    """Every PER_LAYER metric: the tracer's per-op layer figures, the
    set-up split and the traced run's slowdown over the untraced one."""
    values = dict(layers)
    values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    values["basis.spline_basis.s"] = statistics.median(s["cascade_s"] for s in setups)
    values["trace.overhead_frac"] = (
        (math.fsum(traced) / len(traced)) / (math.fsum(durations) / len(durations))
        - 1.0)
    return values
