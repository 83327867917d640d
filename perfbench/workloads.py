"""The four workloads: inputs made from the seed, the timed op, its check,
and the accuracy sentinel.

Every op is one call into the library's public API with inputs the
benchmark generated.  The sentinel recomputes fixed replications (master
seed ``SENTINEL_SEED``, replication 0) outside the timed region and
compares the library's ISE with an independent reference, so its value
depends on the code alone and repeats exactly from run to run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from wavedens import cli, risk, signals
from wavedens.estimator import Sample, estimate, practical_gamma
from wavedens.kernel import fit_kernel

from reference import reference_ise, relative_error

N = 1024
ESTIMATE_N = 2 ** 16
SENTINEL_SEED = 1
SWEEP_METHODS = ("S", "H", "S*", "K")
TAIL_DF = (2.0, 4.0, 8.0, 16.0)
SUPPORT_D = (10.0, 30.0, 50.0, 70.0)
CALIBRATE_GAMMAS = tuple(0.25 * i for i in range(1, 9))  # 0.25:2:0.25


def op_seed(seed: int, op: int) -> int:
    """Master seed of op ``op`` in a run seeded by ``seed``."""
    return int(np.random.SeedSequence([seed, op]).generate_state(1)[0])


@dataclass(frozen=True)
class SweepCase:
    """One sweep parameter: the signal it draws from and the single
    replication sweep call that is the op."""

    label: str
    signal: object
    methods: tuple
    sweep: Callable[[int], list]  # master seed -> one report per method


class SweepWorkload:
    """One op = one sweep call with a single replication: one seeded
    sample, every method fitted, one ISE per method."""

    def __init__(self, cases):
        self.cases = list(cases)

    def run(self, case: SweepCase, master: int):
        return case.sweep(master)

    def check(self, case: SweepCase, reports, op: int) -> bool:
        if len(reports) != len(case.methods):
            return False
        values = [r.ise_values[0] for r in reports]
        return all(math.isfinite(v) and v >= 0.0 for v in values)

    def sentinel_errors(self) -> dict:
        """|ISE - ref| / ref for every method of every case, replication 0
        under ``SENTINEL_SEED``."""
        out = {}
        for case in self.cases:
            reports = case.sweep(SENTINEL_SEED)
            sample = case.signal.sample(risk.replication_seed(SENTINEL_SEED, 0), N)
            for method, report in zip(case.methods, reports):
                if method.kind == "kernel":
                    fitted = fit_kernel(sample)
                else:
                    fitted = estimate(sample, method.config())
                ref = reference_ise(fitted, case.signal)
                out[f"{case.label} {method.code}"] = relative_error(
                    report.ise_values[0], ref)
        return out


def tail_workload() -> SweepWorkload:
    methods = tuple(risk.resolve_methods(SWEEP_METHODS))
    return SweepWorkload(
        SweepCase(f"hk({df:g})", signals.mixture_hk(df), methods,
                  lambda master, df=df: risk.tail_sweep([df], N, methods, 1, master))
        for df in TAIL_DF)


def support_workload() -> SweepWorkload:
    # support_sweep widens each grid to [-10, d + 10], as the CLI does
    methods = tuple(risk.resolve_methods(SWEEP_METHODS))
    return SweepWorkload(
        SweepCase(f"gd({d:g})", signals.mixture_gd(d), methods,
                  lambda master, d=d: risk.support_sweep([d], N, methods, 1, master))
        for d in SUPPORT_D)


def calibrate_workload() -> SweepWorkload:
    # the same method list as `wavedens calibrate --basis spline`
    methods = tuple(
        risk.MethodSpec(code=f"PG{g:g}", kind="wavelet", basis_name="spline",
                        mode=practical_gamma(g), parameter=g)
        for g in CALIBRATE_GAMMAS)
    bumps = signals.Bumps()
    return SweepWorkload([SweepCase(
        "bumps", bumps, methods,
        lambda master: risk.mise_sweep(bumps, N, methods, 1, master))])


class EstimateWorkload:
    """One op = one in-process ``wavedens estimate`` on a 2^16-row CSV
    drawn from hk(2).  The CSV is the same for every op of a run."""

    def __init__(self, seed: int, workdir: Path):
        signal = signals.mixture_hk(2.0)
        # a practitioner's file is unsorted: shuffle the sorted draw
        drawn = signal.sample(np.random.SeedSequence([seed, 0]), ESTIMATE_N)
        values = np.random.default_rng([seed, 1]).permutation(drawn.observations)
        self.csv = workdir / "input.csv"
        self.csv.write_text("".join(f"{float(v)!r}\n" for v in values),
                            encoding="ascii")
        self.outdir = workdir / "out"
        self.rerun_dir = workdir / "rerun"
        config = risk.method_from_code("S").config()  # spline, practical
        expected = estimate(Sample.from_data(values), config)
        self.expected = json.loads(json.dumps(expected.to_json_dict()))
        self.cases = [None]  # one case: the same CSV every op

    def run(self, case, master: int) -> int:
        return cli.main(["estimate", "--input", str(self.csv),
                         "--basis", "spline", "-o", str(self.outdir)])

    def check(self, case, rc: int, op: int) -> bool:
        if rc != 0:
            return False
        doc = json.loads((self.outdir / "estimate.json").read_text(encoding="ascii"))
        if doc != self.expected:
            return False
        if any(abs(value) < thr for _j, _k, value, thr in doc["kept"]):
            return False
        if op == 0:
            return self._rerun_identical()
        return True

    def _rerun_identical(self) -> bool:
        rc = cli.main(["rerun", str(self.outdir / "manifest.json"),
                       "-o", str(self.rerun_dir)])
        if rc != 0:
            return False
        want = sorted(p.name for p in self.outdir.iterdir())
        got = sorted(p.name for p in self.rerun_dir.iterdir())
        return want == got and all(
            (self.outdir / name).read_bytes() == (self.rerun_dir / name).read_bytes()
            for name in want)

    def sentinel_errors(self) -> dict:
        """The library's ISE of the 2^16-point spline estimate on hk(2),
        replication 0 under ``SENTINEL_SEED``, against the reference."""
        signal = signals.mixture_hk(2.0)
        method = risk.method_from_code("S")
        (report,) = risk.mise_sweep(signal, ESTIMATE_N, [method], 1, SENTINEL_SEED)
        sample = signal.sample(risk.replication_seed(SENTINEL_SEED, 0), ESTIMATE_N)
        ref = reference_ise(estimate(sample, method.config()), signal)
        return {"hk(2) S n=65536": relative_error(report.ise_values[0], ref)}


def build(name: str, seed: int, workdir: Path):
    if name == "tail":
        return tail_workload()
    if name == "support":
        return support_workload()
    if name == "calibrate":
        return calibrate_workload()
    if name == "estimate":
        return EstimateWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
