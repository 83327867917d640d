"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from wavedens.cli import main
from wavedens.signals import Gauss


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    obs = Gauss(0.5, 0.25).sample(1, 200).observations
    path.write_text("".join(f"{float(v)!r}\n" for v in obs))
    return path


def _read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


class TestEstimateCommand:
    def test_produces_outputs(self, data_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(["estimate", "--input", str(data_csv), "--basis", "haar",
                   "-o", str(out)])
        assert rc == 0
        doc = json.loads((out / "estimate.json").read_text())
        assert doc["format"] == "wavedens-estimate-v1"
        assert doc["n"] == 200
        assert doc["positive_part"] is True
        grid = (out / "estimate_grid.csv").read_text().splitlines()
        assert grid[0] == "x,density"
        assert len(grid) > 100
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "estimate"
        assert manifest["params"]["basis"] == "haar"

    def test_byte_identical_reruns(self, data_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["estimate", "--input", str(data_csv), "--basis", "spline"]
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert _read_tree(out1) == _read_tree(out2)

    def test_rescale_divides_data(self, tmp_path):
        raw = tmp_path / "raw.csv"
        obs = 250.0 * Gauss(0.5, 0.2).sample(5, 120).observations
        raw.write_text("".join(f"{float(v)!r}\n" for v in obs))
        scaled = tmp_path / "scaled.csv"
        scaled.write_text("".join(f"{float(v / 250.0)!r}\n" for v in obs))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["estimate", "--input", str(raw), "--rescale", "250",
                     "--basis", "haar", "-o", str(out1)]) == 0
        assert main(["estimate", "--input", str(scaled),
                     "--basis", "haar", "-o", str(out2)]) == 0
        a = json.loads((out1 / "estimate.json").read_text())
        b = json.loads((out2 / "estimate.json").read_text())
        assert a["kept"] == b["kept"]

    def test_j0_override_recorded(self, data_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["estimate", "--input", str(data_csv), "--j0", "7",
                     "--basis", "spline", "-o", str(out)]) == 0
        doc = json.loads((out / "estimate.json").read_text())
        assert doc["j0"] == 7

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0\n2.0\noops\n")
        assert main(["estimate", "--input", str(bad), "-o", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err

    def test_empty_file_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["estimate", "--input", str(empty),
                     "-o", str(tmp_path / "o")]) == 2
        assert "at least 2" in capsys.readouterr().err

    def test_practical_rejects_gamma(self, data_csv, tmp_path, capsys):
        rc = main(["estimate", "--input", str(data_csv), "--mode", "practical",
                   "--gamma", "2", "-o", str(tmp_path / "out")])
        assert rc == 2
        assert "practical-gamma" in capsys.readouterr().err
        assert not (tmp_path / "out" / "estimate.json").exists()

    def test_dyadic_overflow_errors(self, tmp_path, capsys):
        path = tmp_path / "wild.csv"
        path.write_text("1e308\n-1e308\n0\n1\n")
        rc = main(["estimate", "--input", str(path), "-o", str(tmp_path / "o")])
        assert rc == 2
        assert "2^52" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--j0", "-3"],
        ["--mode", "theoretical-gamma", "--gamma", "1.5", "--c-prime", "-10"],
        ["--mode", "theoretical-gamma", "--gamma", "1.5", "--c-prime", "-1000"],
    ])
    def test_j0_below_father_errors(self, flags, data_csv, tmp_path, capsys):
        rc = main(["estimate", "--input", str(data_csv), *flags,
                   "-o", str(tmp_path / "out")])
        assert rc == 2
        assert "below -1" in capsys.readouterr().err
        assert not (tmp_path / "out" / "estimate.json").exists()

    def test_j0_overflow_errors(self, data_csv, tmp_path, capsys):
        rc = main(["estimate", "--input", str(data_csv), "--mode",
                   "theoretical-gamma", "--gamma", "1.5", "--c", "400",
                   "-o", str(tmp_path / "out")])
        assert rc == 2
        assert "overflows for n = 200, c = 400.0" in capsys.readouterr().err
        assert not (tmp_path / "out" / "estimate.json").exists()

    def test_single_row_errors(self, tmp_path):
        one = tmp_path / "one.csv"
        one.write_text("0.5\n")
        assert main(["estimate", "--input", str(one),
                     "-o", str(tmp_path / "o")]) == 2


class TestCalibrateCommand:
    def test_minimal_run(self, tmp_path):
        out = tmp_path / "cal"
        rc = main(["calibrate", "--signal", "uniform", "--basis", "haar",
                   "--n", "64", "--gammas", "1.5", "--reps", "1",
                   "--seed", "9", "-o", str(out)])
        assert rc == 0
        plot = (out / "calibration.csv").read_text().splitlines()
        assert plot[0] == "gamma,n_mise"
        assert len(plot) == 2
        reps = (out / "replications_gamma_1.5.csv").read_text().splitlines()
        assert len(reps) == 2  # header + one replication

    def test_gamma_range_parsing(self, tmp_path):
        out = tmp_path / "cal"
        rc = main(["calibrate", "--signal", "uniform", "--basis", "haar",
                   "--n", "64", "--gammas", "0.5:1.5:0.5", "--reps", "1",
                   "--seed", "9", "-o", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["params"]["gammas"] == [0.5, 1.0, 1.5]


class TestBenchCommand:
    def test_support_sweep_single_cell(self, tmp_path):
        out = tmp_path / "bench"
        rc = main(["bench", "--sweep", "support", "--values", "10",
                   "--methods", "S", "--n", "64", "--reps", "1",
                   "--seed", "4", "-o", str(out)])
        assert rc == 0
        rows = (out / "replications_S_10.csv").read_text().splitlines()
        assert len(rows) == 2
        q = (out / "quartiles.csv").read_text().splitlines()
        assert len(q) == 2

    def test_method_star_filename_sanitized(self, tmp_path):
        out = tmp_path / "bench"
        rc = main(["bench", "--sweep", "support", "--values", "10",
                   "--methods", "S*", "--n", "64", "--reps", "1",
                   "--seed", "4", "-o", str(out)])
        assert rc == 0
        assert (out / "replications_Sstar_10.csv").exists()

    def test_unknown_method_lists_valid(self, tmp_path, capsys):
        rc = main(["bench", "--sweep", "support", "--values", "10",
                   "--methods", "Z", "--n", "64", "--reps", "1",
                   "-o", str(tmp_path / "o")])
        assert rc == 2
        assert "valid methods" in capsys.readouterr().err

    def test_tail_sweep_runs(self, tmp_path):
        out = tmp_path / "tail"
        rc = main(["bench", "--sweep", "tail", "--values", "16",
                   "--methods", "H", "--n", "64", "--reps", "1",
                   "--seed", "4", "-o", str(out)])
        assert rc == 0
        assert (out / "replications_H_16.csv").exists()

    def test_outputs_independent_of_worker_count(self, tmp_path):
        # manifests written before the thread pool was removed carry a
        # "workers" key; rerun ignores it and reproduces every byte
        out1 = tmp_path / "orig"
        rc = main(["bench", "--sweep", "support", "--values", "10",
                   "--methods", "H,K", "--n", "128", "--reps", "4",
                   "--seed", "5", "-o", str(out1)])
        assert rc == 0
        manifest = out1 / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["params"]["workers"] = 3
        manifest.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        out2 = tmp_path / "redo"
        assert main(["rerun", str(manifest), "-o", str(out2)]) == 0
        assert _read_tree(out1) == _read_tree(out2)


class TestSampleCommand:
    def test_deterministic_sample(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        args = ["sample", "--signal", "bumps", "--n", "50", "--seed", "3"]
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert (out1 / "sample.csv").read_bytes() == (out2 / "sample.csv").read_bytes()
        values = np.loadtxt(out1 / "sample.csv")
        assert len(values) == 50
        assert np.all(np.diff(values) >= 0)


class TestManifestRerun:
    def test_round_trip_reproduces_outputs(self, tmp_path):
        out1 = tmp_path / "orig"
        rc = main(["calibrate", "--signal", "gauss", "--basis", "spline",
                   "--n", "64", "--gammas", "0.5,1.0", "--reps", "2",
                   "--seed", "21", "-o", str(out1)])
        assert rc == 0
        out2 = tmp_path / "redo"
        rc = main(["rerun", str(out1 / "manifest.json"), "-o", str(out2)])
        assert rc == 0
        assert _read_tree(out1) == _read_tree(out2)

    def test_rerun_estimate(self, data_csv, tmp_path):
        out1 = tmp_path / "orig"
        assert main(["estimate", "--input", str(data_csv), "--basis", "haar",
                     "-o", str(out1)]) == 0
        out2 = tmp_path / "redo"
        assert main(["rerun", str(out1 / "manifest.json"), "-o", str(out2)]) == 0
        assert _read_tree(out1) == _read_tree(out2)

    def test_bad_manifest(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text("{}")
        assert main(["rerun", str(path), "-o", str(tmp_path / "o")]) == 2
        assert "manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, message", [
        (lambda doc: [doc], "not a JSON object"),
        (lambda doc: {k: v for k, v in doc.items() if k != "params"},
         "no params"),
        (lambda doc: {**doc, "params": {k: v for k, v in doc["params"].items()
                                        if k != "mu"}},
         "lack 'mu'"),
    ], ids=["list", "no-params", "no-mu"])
    def test_malformed_manifest(self, damage, message, tmp_path, capsys):
        out = tmp_path / "orig"
        assert main(["sample", "--signal", "gauss", "--n", "5",
                     "-o", str(out)]) == 0
        path = out / "manifest.json"
        path.write_text(json.dumps(damage(json.loads(path.read_text()))))
        assert main(["rerun", str(path), "-o", str(tmp_path / "redo")]) == 2
        assert message in capsys.readouterr().err

    def test_outdir_env_var(self, data_csv, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("WAVEDENS_OUTDIR", str(target))
        assert main(["estimate", "--input", str(data_csv),
                     "--basis", "haar"]) == 0
        assert (target / "estimate.json").exists()
