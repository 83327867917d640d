"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
from reference import (  # noqa: E402
    gaussian_kernel_ise, lattice_ise, reference_ise, relative_error)
from tracing import Tracer  # noqa: E402


class TestTailPercentile:
    @pytest.mark.parametrize("n, pct, index", [
        (100, 90, 89), (20, 50, 9), (11, 9, 0), (1000, 99, 989)])
    def test_known_sizes(self, n, pct, index):
        assert harness.tail_percentile(range(n)) == (pct, index)

    def test_highest_percentile_with_ten_beyond(self):
        for n in range(11, 400):
            pct, value = harness.tail_percentile(range(n))
            assert n - (value + 1) >= 10, n
            # one percentile higher leaves fewer than ten samples beyond
            assert n - math.ceil((pct + 1) * n / 100) < 10, n

    def test_too_few_samples_reports_the_maximum(self):
        assert harness.tail_percentile([3.0, 1.0, 2.0]) == (100, 3.0)


class TestReference:
    @pytest.fixture(scope="class")
    def spline_case(self):
        from wavedens import Gauss, estimate, risk
        signal = Gauss(0.5, 0.25)
        method = risk.method_from_code("S")
        (report,) = risk.mise_sweep(signal, 256, [method], 1, 3)
        est = estimate(signal.sample(risk.replication_seed(3, 0), 256),
                       method.config())
        return est, signal, report.ise_values[0]

    def test_agrees_with_library_on_a_smooth_case(self, spline_case):
        est, signal, ise = spline_case
        assert relative_error(ise, reference_ise(est, signal)) < 1e-4

    def test_flags_a_perturbed_ise(self, spline_case):
        est, signal, ise = spline_case
        assert relative_error(1.01 * ise, reference_ise(est, signal)) > 9e-3

    def test_kernel_closed_form_matches_lattice(self):
        from wavedens import fit_kernel, mixture_gd
        signal = mixture_gd(3.0)
        est = fit_kernel(signal.sample(5, 128))
        exact = gaussian_kernel_ise(est, signal)
        assert relative_error(lattice_ise(est, signal), exact) < 1e-8


class TestRunOps:
    def test_failed_ops_are_counted(self):
        def run(case, master):
            if case == "raises":
                raise RuntimeError("boom")
            return case

        def check(case, result, op):
            if case == "check-raises":
                raise ValueError("bad check")
            return result != "wrong"

        cases = ["ok", "raises", "wrong", "check-raises", "ok"]
        durations, failed = harness.run_ops(cases, run, check, 1e-9, lambda op: op)
        assert len(durations) == len(cases)
        assert failed == 3

    def test_minimum_op_count_in_whole_rounds(self):
        durations, failed = harness.run_ops(
            ["a", "b", "c", "d"], lambda case, master: case, lambda *a: True,
            1e-9, lambda op: op, min_ops=harness.MIN_OPS + 1)
        assert len(durations) == harness.MIN_OPS + 4 and failed == 0

    def test_whole_rounds_and_distinct_seeds(self):
        seen = []
        durations, failed = harness.run_ops(
            ["a", "b", "c"], lambda case, master: seen.append(master), lambda *a: True,
            1e-9, lambda op: 100 + op)
        assert len(durations) == 3 and failed == 0
        assert seen == [100, 101, 102]


class TestTracer:
    def test_self_time_excludes_children(self):
        tracer = Tracer()
        tracer.spans = [["op", 0.0, 10.0, -1, 0], ["risk.ise", 1.0, 9.0, 0, 0],
                        ["signals.pdf", 2.0, 5.0, 1, 0],
                        ["estimator.evaluate", 5.0, 8.0, 1, 0]]
        inclusive, own = tracer.times()
        assert own["risk.ise"] == pytest.approx(2.0)
        assert inclusive["risk.ise"] == pytest.approx(8.0)
        assert own["op"] == pytest.approx(2.0)

    def test_traced_op_records_layers(self):
        from wavedens import Gauss, risk
        tracer = Tracer()
        with tracer.installed():
            tracer.begin_op(0)
            risk.mise_sweep(Gauss(0.5, 0.25), 128, risk.resolve_methods(["H", "K"]),
                            1, 0)
            tracer.end_op()
        names = {s[0] for s in tracer.spans}
        assert {"op", "signals.sample", "estimator.estimate", "kernel.fit_kernel",
                "risk.ise", "signals.pdf"} <= names
        layers = tracer.layer_metrics()
        assert layers["estimator.estimate.calls"] == 1
        assert layers["signals.sample.draws"] == 128
        assert layers["kernel.fit_kernel.pairs"] == 128 * 127 // 2
        assert 0.0 < layers["risk.grid.useful_frac"] <= 1.0
        assert not hasattr(risk.ise, "__wrapped__")  # patches restored


class TestMetricNames:
    @pytest.fixture(scope="class")
    def declared(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
                {m["name"]: m["unit"] for m in doc["per_layer"]})

    def test_benchmark_json_workloads_exist(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert {w["name"] for w in doc["workloads"]} <= set(harness.WORKLOADS)

    def test_units_match_benchmark_json(self, declared):
        assert harness.END_TO_END == declared[0]
        assert harness.PER_LAYER == declared[1]

    def test_end_to_end_values_cover_every_metric(self):
        setups = [{"setup_s": 1.0, "import_s": 0.9, "cascade_s": 0.01}]
        values, pct = harness.end_to_end_values(
            [0.1] * 12, 1, setups, 100.0, {"case": 0.5})
        assert set(values) == set(harness.END_TO_END)
        assert values["ok_frac"] == pytest.approx(11 / 12)

    def test_per_layer_values_cover_every_metric(self):
        tracer = Tracer()
        tracer.ops = 1
        setups = [{"setup_s": 1.0, "import_s": 0.9, "cascade_s": 0.01}]
        values = harness.per_layer_values(tracer.layer_metrics(), setups,
                                          [0.1], [0.11])
        assert set(values) == set(harness.PER_LAYER)
        assert values["trace.overhead_frac"] == pytest.approx(0.1)
