"""Span tracer that times the library's layers from outside.

``Tracer.installed`` replaces each public entry point named in
``_layers`` with a wrapper that records a span (name, start, end, parent
span, op id) and adds the call's work counts.  Spans stay in memory until
``write``; self time is a span's duration minus that of its direct
children.  Nothing inside the library changes.
"""

from __future__ import annotations

import inspect
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counts = defaultdict(float)
        self.ops = 0
        self._stack = []
        self._op = None  # id of the open op; spans are recorded only then
        self._op_span = None

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op: int) -> None:
        self._op = op
        self._op_span = self._open("op")

    def end_op(self) -> None:
        self._close(self._op_span)
        self._op = None
        self.ops += 1

    def wrap(self, name: str, fn, counter=None):
        """``fn`` recording a span while an op is open; ``counter(tracer,
        arguments, result)`` adds counts after the span closes."""
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            if self._op is None:  # checks and set-up run between ops
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every layer binding for the duration of the block."""
        saved = []
        try:
            for name, bindings, counter in _layers():
                present = [(o, a) for o, a in bindings if a in vars(o)]
                if not present:
                    raise RuntimeError(f"no binding left to trace for {name}")
                for owner, attr in present:
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def times(self) -> tuple[dict, dict]:
        """Inclusive and self seconds per span name.  A span nested in a
        span of the same name adds to that name's self time only."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        inclusive, own = defaultdict(float), defaultdict(float)
        for i, (name, t0, t1, parent, _op) in enumerate(self.spans):
            own[name] += t1 - t0 - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                inclusive[name] += t1 - t0
        return inclusive, own

    def layer_metrics(self) -> dict:
        """Per-op layer times and counts under the names of
        ``harness.PER_LAYER`` (set-up and overhead are added by the
        caller)."""
        if self.ops == 0:
            raise ValueError("no traced ops")
        inclusive, own = self.times()
        c = self.counts
        per_op = {
            "signals.pdf.s": inclusive["signals.pdf"],
            "signals.pdf.points": c["signals.pdf.points"],
            "risk.ise.self_s": own["risk.ise"],
            "risk.ise.grid_points": c["risk.ise.grid_points"],
            "risk.grid.coarsened": c["risk.grid.coarsened"],
            "kernel.fit_kernel.s": inclusive["kernel.fit_kernel"],
            "kernel.fit_kernel.pairs": c["kernel.fit_kernel.pairs"],
            "kernel.eval_kernel.s": inclusive["kernel.eval_kernel"],
            "kernel.eval_kernel.points": c["kernel.eval_kernel.points"],
            "estimator.estimate.s": inclusive["estimator.estimate"],
            "estimator.estimate.calls": c["estimator.estimate.calls"],
            "estimator.kept_cells": c["estimator.kept_cells"],
            "estimator.evaluate.s": inclusive["estimator.evaluate"],
            "estimator.evaluate.points": c["estimator.evaluate.points"],
            "signals.sample.s": inclusive["signals.sample"],
            "signals.sample.draws": c["signals.sample.draws"],
            "cli.main.self_s": own["cli.main"],
            "cli.bytes_io": c["cli.bytes_io"],
        }
        out = {k: v / self.ops for k, v in per_op.items()}
        grid = c["risk.ise.grid_points"]
        out["risk.grid.useful_frac"] = c["risk.ise.useful_points"] / grid if grid else 0.0
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
            fh.write("\n")


# ---------------------------------------------------------------------------
# the traced layers: (span name, [(owner, attribute), ...], counter)

def _points(key):
    def count(tracer, args, result):
        tracer.counts[key] += np.size(result)
    return count


def _count_sample(tracer, args, result):
    tracer.counts["signals.sample.draws"] += result.n


def _count_estimate(tracer, args, result):
    tracer.counts["estimator.estimate.calls"] += 1
    tracer.counts["estimator.kept_cells"] += len(result.kept)


def _count_fit_kernel(tracer, args, result):
    n = result.sample.n
    tracer.counts["kernel.fit_kernel.pairs"] += n * (n - 1) // 2


def _count_default_grid(tracer, args, result):
    if result.step > args["step"]:
        tracer.counts["risk.grid.coarsened"] += 1


def _count_ise(tracer, args, result):
    grid = args["grid"]
    tracer.counts["risk.ise.grid_points"] += grid.npoints
    hull = args["est"].support_hull()
    if hull is not None:
        first = max(0, math.ceil((hull[0] - grid.lo) / grid.step))
        last = min(grid.npoints - 1, math.floor((hull[1] - grid.lo) / grid.step))
        tracer.counts["risk.ise.useful_points"] += max(0, last - first + 1)


def _count_cli(tracer, args, result):
    argv = list(args["argv"])
    paths = []
    if "--input" in argv:
        paths.append(Path(argv[argv.index("--input") + 1]))
    if "-o" in argv:
        paths.extend(p for p in Path(argv[argv.index("-o") + 1]).iterdir()
                     if p.is_file())
    tracer.counts["cli.bytes_io"] += sum(p.stat().st_size for p in paths)


def _layers():
    from wavedens import cli, estimator, kernel, risk, signals

    pdf_owners = [cls for cls in vars(signals).values()
                  if isinstance(cls, type) and issubclass(cls, signals.TestSignal)
                  and "pdf" in vars(cls)]
    return [
        ("signals.pdf", [(cls, "pdf") for cls in pdf_owners],
         _points("signals.pdf.points")),
        ("signals.sample", [(signals.TestSignal, "sample")], _count_sample),
        ("estimator.estimate",
         [(estimator, "estimate"), (risk, "estimate"), (cli, "estimate")],
         _count_estimate),
        ("estimator.evaluate", [(estimator.DensityEstimate, "evaluate")],
         _points("estimator.evaluate.points")),
        ("kernel.fit_kernel", [(kernel, "fit_kernel")], _count_fit_kernel),
        ("kernel.eval_kernel", [(kernel, "eval_kernel")],
         _points("kernel.eval_kernel.points")),
        ("risk.default_grid", [(risk, "default_grid")], _count_default_grid),
        ("risk.ise", [(risk, "ise")], _count_ise),
        ("risk.mise_sweep", [(risk, "mise_sweep")], None),
        ("cli.main", [(cli, "main")], _count_cli),
    ]
