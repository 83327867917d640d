"""Golden-file regressions for the CLI commands.

The committed files under ``tests/golden/`` pin the outputs of a small
estimation run (integer day counts rescaled by 250, the real-data
ingestion path), a small benchmark sweep and a small ``calibrate`` sweep
(bumps under the spline basis: the one golden that pins spline
reconstruction and many rules scored on one grid).  Pure dyadic outputs
are compared byte for byte; Monte-Carlo outputs are compared as parsed
values at 1e-12 so ulp-level library changes do not mask real
regressions.
"""

import csv
import json
from pathlib import Path

import pytest
from numpy.testing import assert_allclose

from wavedens.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _run_estimate(outdir):
    rc = main([
        "estimate", "--input", str(GOLDEN / "input_days.csv"),
        "--rescale", "250", "--basis", "haar",
        "--grid-step", "0.0625", "--grid-lo", "-1.0", "--grid-hi", "4.0",
        "-o", str(outdir),
    ])
    assert rc == 0


def _run_bench(outdir):
    rc = main([
        "bench", "--sweep", "support", "--values", "10", "--methods", "H,K",
        "--n", "64", "--reps", "2", "--seed", "3", "-o", str(outdir),
    ])
    assert rc == 0


def _run_calibrate(outdir):
    rc = main([
        "calibrate", "--signal", "bumps", "--basis", "spline", "--n", "256",
        "--gammas", "0.25:2:0.25", "--reps", "2", "--seed", "3",
        "-o", str(outdir),
    ])
    assert rc == 0


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _compare_csv_values(got_path, want_path):
    got, want = _csv_rows(got_path), _csv_rows(want_path)
    assert got[0] == want[0]
    assert len(got) == len(want)
    for grow, wrow in zip(got[1:], want[1:]):
        for gcell, wcell in zip(grow, wrow):
            try:
                assert_allclose(float(gcell), float(wcell), rtol=1e-12)
            except ValueError:
                assert gcell == wcell


def _compare_summary(got_path, want_path):
    got = json.loads(got_path.read_text())
    want = json.loads(want_path.read_text())
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for key in w:
            if isinstance(w[key], float):
                assert_allclose(g[key], w[key], rtol=1e-12)
            else:
                assert g[key] == w[key]


class TestEstimateGolden:
    def test_outputs_match_golden_bytes(self, tmp_path):
        _run_estimate(tmp_path)
        for name in ("estimate.json", "estimate_grid.csv"):
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.fixture(scope="module")
def bench_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    _run_bench(out)
    return out


class TestBenchGolden:

    def test_quartiles_match(self, bench_out):
        _compare_csv_values(bench_out / "quartiles.csv",
                            GOLDEN / "bench_quartiles.csv")

    @pytest.mark.parametrize("method", ["H", "K"])
    def test_replications_match(self, bench_out, method):
        _compare_csv_values(bench_out / f"replications_{method}_10.csv",
                            GOLDEN / f"bench_replications_{method}_10.csv")

    def test_summary_values_match(self, bench_out):
        _compare_summary(bench_out / "summary.json",
                         GOLDEN / "bench_summary.json")


@pytest.fixture(scope="module")
def calibrate_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("calibrate")
    _run_calibrate(out)
    return out


CALIBRATE_GOLDEN = GOLDEN / "calibrate"


class TestCalibrateGolden:
    def test_same_files(self, calibrate_out):
        got = {p.name for p in calibrate_out.iterdir()} - {"manifest.json"}
        assert got == {p.name for p in CALIBRATE_GOLDEN.iterdir()}

    @pytest.mark.parametrize("name", sorted(
        p.name for p in CALIBRATE_GOLDEN.glob("*.csv")))
    def test_csv_values_match(self, calibrate_out, name):
        _compare_csv_values(calibrate_out / name, CALIBRATE_GOLDEN / name)

    def test_summary_values_match(self, calibrate_out):
        _compare_summary(calibrate_out / "summary.json",
                         CALIBRATE_GOLDEN / "summary.json")
