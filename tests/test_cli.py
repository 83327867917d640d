"""End-to-end tests of the command-line interface."""

import argparse
import ast
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from wavedens import cli
from wavedens.basis import BASES
from wavedens.cli import main
from wavedens.estimator import MODE_KINDS, practical_gamma
from wavedens.risk import (
    MethodSpec,
    RiskReport,
    mise_sweep,
    resolve_methods,
    support_sweep,
)
from wavedens.signals import Bumps, Gauss, Uniform01, mixture_gd, mixture_hk

GOLDEN = Path(__file__).parent / "golden"


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

    @pytest.mark.parametrize("basis", sorted(BASES))
    def test_row_order_does_not_matter(self, basis, tmp_path):
        lines = (GOLDEN / "input_days.csv").read_text().splitlines(True)
        shuffled = list(lines)
        np.random.default_rng(5).shuffle(shuffled)
        trees = []
        for name, rows in [("given", lines), ("reversed", lines[::-1]),
                           ("shuffled", shuffled)]:
            path = tmp_path / f"{name}.csv"
            path.write_text("".join(rows))
            out = tmp_path / name
            # --rescale 250 as in the golden run: unscaled, no cell is kept
            assert main(["estimate", "--input", str(path), "--basis", basis,
                         "--rescale", "250", "-o", str(out)]) == 0
            trees.append({f: (out / f).read_bytes()
                          for f in ("estimate.json", "estimate_grid.csv")})
        assert shuffled != lines
        assert json.loads(trees[0]["estimate.json"])["kept"]
        assert trees[0] == trees[1] == trees[2]

    def test_rerun_replaces_outputs(self, data_csv, tmp_path):
        # each output is a new file: a hard link to the last run's file
        # keeps its bytes, and a symlink at an output's name is replaced,
        # its target untouched
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        args = ["estimate", "--input", str(data_csv), "--basis", "haar"]
        assert main(args + ["--grid-step", "0.01", "-o", str(out)]) == 0
        first_grid = (out / "estimate_grid.csv").read_bytes()
        (tmp_path / "kept.csv").hardlink_to(out / "estimate_grid.csv")
        target = tmp_path / "target.json"
        target.write_bytes(b"not an estimate\n")
        (out / "estimate.json").unlink()
        (out / "estimate.json").symlink_to(target)
        assert main(args + ["--grid-step", "0.02", "-o", str(out)]) == 0
        assert main(args + ["--grid-step", "0.02", "-o", str(fresh)]) == 0
        assert (tmp_path / "kept.csv").read_bytes() == first_grid
        assert not (out / "estimate.json").is_symlink()
        assert target.read_bytes() == b"not an estimate\n"
        assert _read_tree(out) == _read_tree(fresh)
        assert (out / "estimate_grid.csv").read_bytes() != first_grid

    def test_outdir_is_a_file_errors(self, data_csv, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["estimate", "--input", str(data_csv),
                     "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("wavedens: error: ") and str(out) in err

    def test_directory_at_output_name_errors(self, data_csv, tmp_path,
                                             capsys):
        out = tmp_path / "out"
        (out / "estimate.json").mkdir(parents=True)
        assert main(["estimate", "--input", str(data_csv),
                     "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("wavedens: error: ")
        assert str(out / "estimate.json") in err
        assert (out / "estimate.json").is_dir()
        assert not (out / "manifest.json").exists()

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
        # c and c' would be echoed into estimate.json without any effect
        for mode in ("practical", "practical-gamma"):
            for flags in (["--c", "5"], ["--c-prime", "3"]):
                rc = main(["estimate", "--input", str(data_csv), "--mode",
                           mode, *flags, "-o", str(tmp_path / "out")])
                assert rc == 2
                assert "theoretical-gamma" in capsys.readouterr().err
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

    @pytest.mark.parametrize("flags, message", [
        (["--grid-hi", "inf"], "grid lo, hi and step must be finite"),
        (["--grid-step", "nan"], "grid lo, hi and step must be finite"),
        (["--grid-step", "1e-320"], "cap"),
        (["--grid-lo=-1e308", "--grid-hi=1e308"], "cap"),
        (["--mode", "practical-gamma", "--gamma", "inf"],
         "gamma must be finite, got inf"),
        (["--mode", "theoretical-gamma", "--c", "nan"],
         "c must be finite, got nan"),
        (["--mode", "theoretical-gamma", "--c-prime=-inf"],
         "c' must be finite, got -inf"),
        (["--rescale", "inf"], "rescale factor must be positive and finite"),
        (["--rescale", "nan"], "rescale factor must be positive and finite"),
    ])
    def test_non_finite_numbers_exit_2(self, flags, message, data_csv,
                                       tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["estimate", "--input", str(data_csv), *flags,
                   "-o", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_single_row_errors(self, tmp_path):
        one = tmp_path / "one.csv"
        one.write_text("0.5\n")
        assert main(["estimate", "--input", str(one),
                     "-o", str(tmp_path / "o")]) == 2


def _read_both_ways(path, monkeypatch):
    """The CSV reader's values from its bulk parse and from its line loop,
    which it falls back to when the bulk parse fails."""
    bulk = cli._read_one_column_csv(str(path))

    def refuse(*args, **kwargs):
        raise ValueError("bulk parse refused")

    with monkeypatch.context() as m:
        m.setattr(cli.np, "loadtxt", refuse)
        lines = cli._read_one_column_csv(str(path))
    return bulk, lines


class TestReadCsv:
    """One number per line; blank lines are skipped, and the first line
    that is not one number is named."""

    @pytest.mark.parametrize("text, want", [
        ("\n\n1.5\n\n-2\n\n\n", [1.5, -2.0]),
        ("1.5\r\n-2\r\n\r\n0.25\r\n", [1.5, -2.0, 0.25]),
        ("  1.5 \n\t-2\t\n \t 0.25\t \n", [1.5, -2.0, 0.25]),
        ("1_000\n+1e3\n", [1000.0, 1000.0]),
        ("+1e3\n-0\n.5\n1E-3\n", [1000.0, -0.0, 0.5, 0.001]),
        ("0.1\n0.2", [0.1, 0.2]),
    ])
    def test_bulk_parse_reads_what_the_line_loop_reads(
            self, text, want, tmp_path, monkeypatch):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        bulk, lines = _read_both_ways(path, monkeypatch)
        assert bulk.tobytes() == lines.tobytes()
        assert bulk.tobytes() == np.array(want).tobytes()

    def test_bulk_parse_reads_shortest_reprs_exactly(self, tmp_path,
                                                    monkeypatch):
        values = np.random.default_rng(5).standard_cauchy(5000)
        path = tmp_path / "in.csv"
        path.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        bulk, lines = _read_both_ways(path, monkeypatch)
        assert bulk.tobytes() == lines.tobytes() == values.tobytes()

    @pytest.mark.parametrize("text, line", [
        ("\ufeff1.0\n2.0\n", 1),
        ("\n\n1.0\n\n1.0 2.0\n3.0\n", 5),
        ("1.0\n2.0\n# note\n", 3),
        ("1.0, 2.0\n3.0\n", 1),
        ("1.0 2.0\n", 1),
        ("1 2\n3 4\n5 6\n", 1),
    ])
    def test_bad_line_is_named(self, text, line, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode("utf-8"))
        assert main(["estimate", "--input", str(path),
                     "-o", str(tmp_path / "o")]) == 2
        assert f"line {line}: expected a single number" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_values_exit_2(self, bad, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(f"0.5\n{bad}\n0.25\n")
        assert main(["estimate", "--input", str(path),
                     "-o", str(tmp_path / "o")]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_non_utf8_file_is_named(self, tmp_path, capsys):
        path = tmp_path / "utf16.csv"
        path.write_bytes(b"\xff\xfe1.0\n2.0\n")
        assert main(["estimate", "--input", str(path),
                     "-o", str(tmp_path / "o")]) == 2
        assert f"{path}: not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "o" / "estimate.json").exists()


class TestWriteCsv:
    def test_grid_bytes_match_per_line_repr(self, tmp_path):
        # more rows than one written block, and the reprs that switch to
        # exponent form or carry a sign
        xs = np.linspace(-3.0, 5.0, 3 * cli._CSV_BLOCK + 7)
        ys = np.random.default_rng(2).random(len(xs)) ** 9
        ys[:6] = [-0.0, 0.0, 5e-324, 1e-5, 1e16, 123456789.125]
        path = tmp_path / "grid.csv"
        cli._write_csv(path, "x,density\n", xs, ys)
        want = "x,density\n" + "".join(
            f"{float(x)!r},{float(y)!r}\n" for x, y in zip(xs, ys))
        assert path.read_bytes() == want.encode("ascii")
        cli._write_csv(path, "x,density\n", xs[:0], ys[:0])
        assert path.read_bytes() == b"x,density\n"


def test_json_refuses_non_finite(tmp_path):
    # NaN and Infinity are not JSON; the file is not even created
    for bad in (float("inf"), float("nan")):
        path = tmp_path / "doc.json"
        with pytest.raises(ValueError):
            cli._write_json(path, {"gamma": bad})
        assert not path.exists()


def _replications_text(report):
    return "replication,ise\n" + "".join(
        f"{i},{v!r}\n" for i, v in enumerate(report.ise_values))


def _summary_text(reports):
    return json.dumps([
        {"signal": r.signal_id, "method": r.method_id,
         "parameter": r.parameter, "n": r.n, "replications": r.replications,
         "master_seed": r.master_seed, "mean": r.mean, "median": r.median,
         "q25": r.q25, "q75": r.q75}
        for r in reports
    ], indent=2, sort_keys=True) + "\n"


class TestReportFiles:
    """The bytes of every sweep output, rebuilt from the library's reports
    in the formats the files have always had, and each manifest's list of
    outputs."""

    def test_bench_bytes(self, tmp_path):
        assert main(["bench", "--sweep", "support", "--values", "10,30",
                     "--methods", "S*,K", "--n", "64", "--reps", "2",
                     "--seed", "6", "-o", str(tmp_path)]) == 0
        reports = support_sweep([10.0, 30.0], 64, resolve_methods(["S*", "K"]),
                                2, 6)
        want = {"quartiles.csv": "method,parameter,mean,q25,median,q75\n" + "".join(
                    f"{r.method_id},{r.parameter!r},{r.mean!r},{r.q25!r},"
                    f"{r.median!r},{r.q75!r}\n" for r in reports),
                "summary.json": _summary_text(reports)}
        for r in reports:
            code = r.method_id.replace("*", "star")
            want[f"replications_{code}_{r.parameter:g}.csv"] = \
                _replications_text(r)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"] == [
            "quartiles.csv", "replications_K_10.csv", "replications_K_30.csv",
            "replications_Sstar_10.csv", "replications_Sstar_30.csv",
            "summary.json"]
        assert _read_tree(tmp_path) == {
            "manifest.json": (tmp_path / "manifest.json").read_bytes(),
            **{name: text.encode("ascii") for name, text in want.items()}}

    def test_calibrate_bytes(self, tmp_path):
        assert main(["calibrate", "--signal", "uniform", "--basis", "haar",
                     "--n", "64", "--gammas", "0.5:1.5:0.5", "--reps", "2",
                     "--seed", "9", "-o", str(tmp_path)]) == 0
        gammas = [0.5, 1.0, 1.5]
        reports = mise_sweep(Uniform01(), 64, [
            MethodSpec(f"PG{g:g}", "wavelet", "haar", practical_gamma(g), g)
            for g in gammas], 2, 9)
        want = {"calibration.csv": "gamma,n_mise\n" + "".join(
                    f"{g!r},{64 * r.mean!r}\n" for g, r in zip(gammas, reports)),
                "summary.json": _summary_text(reports)}
        for g, r in zip(gammas, reports):
            want[f"replications_gamma_{g:g}.csv"] = _replications_text(r)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"] == [
            "calibration.csv", "replications_gamma_0.5.csv",
            "replications_gamma_1.5.csv", "replications_gamma_1.csv",
            "summary.json"]
        assert _read_tree(tmp_path) == {
            "manifest.json": (tmp_path / "manifest.json").read_bytes(),
            **{name: text.encode("ascii") for name, text in want.items()}}

    def test_writers_deterministic(self, tmp_path, rng):
        r = RiskReport("sig", "S*", 2.0, 99, 7, tuple(rng.random(10).tolist()))
        trees = []
        for out in (tmp_path / "a", tmp_path / "b"):
            out.mkdir()
            assert cli._write_reports(out, [r], ["reps.csv"]) == [
                "reps.csv", "summary.json"]
            trees.append(_read_tree(out))
        assert trees[0] == trees[1]
        assert trees[0]["reps.csv"] == _replications_text(r).encode("ascii")
        assert trees[0]["summary.json"] == _summary_text([r]).encode("ascii")


_RUNS = {
    "estimate": ["--basis", "haar"],
    "calibrate": ["--signal", "uniform", "--n", "64", "--gammas", "1",
                  "--reps", "1"],
    "bench": ["--sweep", "support", "--values", "10", "--methods", "H",
              "--n", "64", "--reps", "1"],
    "sample": ["--signal", "gauss", "--n", "5"],
}


class TestParams:
    @pytest.mark.parametrize("command", sorted(_RUNS))
    def test_manifest_keys_are_flag_dests(self, command, data_csv, tmp_path):
        flags = ["--input", str(data_csv)] if command == "estimate" else []
        assert main([command, *flags, *_RUNS[command],
                     "-o", str(tmp_path)]) == 0
        params = json.loads((tmp_path / "manifest.json").read_text())["params"]
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices[command]._actions}
        assert set(params) == dests - {"help", "outdir"}

    @pytest.mark.parametrize("command, flag, text, message", [
        ("bench", "--values", "10,x", "could not convert string to float"),
        ("bench", "--methods", "H,Z", "valid methods"),
        ("calibrate", "--gammas", "0.5,y", "could not convert string to float"),
        ("calibrate", "--gammas", "0.5:1", "start:stop:step"),
        ("calibrate", "--gammas", "1:0.5:0.5", "bad gamma range"),
        *[("calibrate", "--gammas", text, "bad gamma range") for text in (
            "nan:1:0.5", "0:inf:0.5", "0:1:inf", "0:1:nan", "0:1:0",
            "0:1e308:1e-10")],
        # counted before it is built: 10^17 values would take 711 PiB
        ("calibrate", "--gammas", "0:1:1e-17",
         "gamma range holds 100000000000000000 values, more than 10000"),
        ("calibrate", "--gammas", "0:1:1e-4",
         "gamma range holds 10001 values, more than 10000"),
        ("bench", "--values", ",", "no values in ','"),
        ("bench", "--methods", ",", "no values in ','"),
        ("calibrate", "--gammas", ",", "no values in ','"),
    ])
    def test_bad_list_flag_is_a_usage_error(self, command, flag, text,
                                            message, tmp_path, capsys):
        # the flag's last occurrence overrides its valid value in _RUNS
        assert main([command, *_RUNS[command], flag, text,
                     "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err and message in err
        assert not (tmp_path / "manifest.json").exists()

    def test_choice_lists_come_from_the_library(self):
        # a literal list of basis names or rule kinds would be a second
        # copy of basis.BASES or estimator.MODE_KINDS; --sweep names the
        # cli's own sweep functions
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        literal = [node.args[0].value for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   for kw in node.keywords
                   if kw.arg == "choices"
                   and isinstance(kw.value, (ast.List, ast.Tuple))]
        assert literal == ["--sweep"]
        for command, dest, table in (("estimate", "basis", BASES),
                                     ("calibrate", "basis", BASES),
                                     ("estimate", "mode", MODE_KINDS)):
            (action,) = [a for a in cli._flag_actions(command)
                         if a.dest == dest]
            assert list(action.choices) == list(table)


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


    def test_colliding_file_names_exit_2(self, tmp_path, capsys,
                                         monkeypatch):
        # both gammas print as 0.123456 under the file names' ``:g``
        monkeypatch.setattr(cli, "mise_sweep", _no_sweep)
        out = tmp_path / "cal"
        rc = main(["calibrate", "--signal", "uniform", "--n", "64",
                   "--gammas", "0.1234561,0.1234562", "--reps", "1",
                   "-o", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "0.1234561" in err and "0.1234562" in err
        assert "replications_gamma_0.123456.csv" in err
        assert list(out.iterdir()) == []

    def test_non_finite_gamma_exit_2(self, tmp_path, capsys):
        out = tmp_path / "cal"
        rc = main(["calibrate", "--signal", "uniform", "--gammas", "inf",
                   "--n", "64", "--reps", "1", "-o", str(out)])
        assert rc == 2
        assert "gamma must be finite, got inf" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_non_finite_ise_exit_2(self, tmp_path, capsys, monkeypatch):
        # a valid normal whose pdf overflows on the ISE grid: the run
        # fails on the ISE and writes no CSV
        def overflowing(params):
            signal = Gauss(params["mu"], params["sigma"])
            signal.pdf = lambda x: np.full(np.shape(x), np.inf)
            return signal

        monkeypatch.setitem(cli._SIGNALS, "gauss", overflowing)
        out = tmp_path / "cal"
        rc = main(["calibrate", "--signal", "gauss", "--n", "64",
                   "--gammas", "1", "--reps", "1", "-o", str(out)])
        assert rc == 2
        assert "not finite" in capsys.readouterr().err
        assert list(out.glob("*.csv")) == []

    @pytest.mark.parametrize("text, count", [
        ("0.25:2:0.25", 8), ("0:1:1.0001e-4", 10000), ("1:1:1", 1)])
    def test_gamma_range_length(self, text, count):
        assert len(cli._gamma_list(text)) == count


def _no_sweep(*args):
    raise AssertionError("the sweep ran")


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

    def test_methods_default_and_help(self, capsys):
        args = cli._build_parser().parse_args(["bench", "--sweep", "tail",
                                               "--values", "2"])
        assert args.methods == ["S", "H", "S*", "K"]
        assert main(["bench", "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())  # unwrapped
        assert "method codes (S, H, S*, K)" in help_text

    def test_unknown_method_lists_valid(self, tmp_path, capsys):
        rc = main(["bench", "--sweep", "support", "--values", "10",
                   "--methods", "Z", "--n", "64", "--reps", "1",
                   "-o", str(tmp_path / "o")])
        assert rc == 2
        assert "valid methods" in capsys.readouterr().err

    def test_colliding_file_names_exit_2(self, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.setattr(cli, "support_sweep", _no_sweep)
        out = tmp_path / "bench"
        rc = main(["bench", "--sweep", "support",
                   "--values", "10.0000001,10.0000002", "--methods", "S",
                   "--n", "64", "--reps", "1", "-o", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "10.0000001" in err and "10.0000002" in err
        assert "replications_S_10.csv" in err
        assert list(out.iterdir()) == []

    def test_tail_sweep_runs(self, tmp_path):
        out = tmp_path / "tail"
        rc = main(["bench", "--sweep", "tail", "--values", "16",
                   "--methods", "H", "--n", "64", "--reps", "1",
                   "--seed", "4", "-o", str(out)])
        assert rc == 0
        assert (out / "replications_H_16.csv").exists()

    @pytest.mark.parametrize("sweep, value, message", [
        ("support", "inf", "d must be finite, got inf"),
        ("tail", "nan", "df must be positive and finite, got nan"),
    ])
    def test_non_finite_values_exit_2(self, sweep, value, message, tmp_path,
                                      capsys):
        out = tmp_path / "bench"
        rc = main(["bench", "--sweep", sweep, "--values", value,
                   "--methods", "H", "--n", "64", "--reps", "1",
                   "-o", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

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

    def test_sample_bytes_are_one_repr_per_line(self, tmp_path):
        out = tmp_path / "s"
        assert main(["sample", "--signal", "bumps", "--n", "20000",
                     "--seed", "4", "-o", str(out)]) == 0
        obs = Bumps().sample(4, 20000).observations
        want = "".join(f"{float(v)!r}\n" for v in obs)
        assert (out / "sample.csv").read_bytes() == want.encode("ascii")

    def test_unallocatable_sample_exit_2(self, tmp_path, capsys):
        # 2^59 draws would take 4 EiB, more than any 64-bit host can map
        out = tmp_path / "s"
        rc = main(["sample", "--signal", "uniform",
                   "--n", str(2 ** 59), "-o", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("wavedens: error: Unable to allocate")
        assert len(err.splitlines()) == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("flags, message", [
        (["--signal", "hk", "--df", "inf"],
         "df must be positive and finite, got inf"),
        (["--signal", "hk", "--df", "nan"],
         "df must be positive and finite, got nan"),
        (["--signal", "gauss", "--mu", "inf"], "mu must be finite, got inf"),
        (["--signal", "gauss", "--sigma", "nan"],
         "sigma must be positive and finite, got nan"),
        (["--signal", "gd", "--d", "inf"], "d must be finite, got inf"),
    ])
    def test_non_finite_signal_parameters_exit_2(self, flags, message,
                                                 tmp_path, capsys):
        out = tmp_path / "s"
        rc = main(["sample", *flags, "--n", "10", "-o", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestSignalRegistry:
    """Each ``--signal`` choice builds its library signal from the flags."""

    FLAGS = ["--mu", "0", "--sigma", "1", "--d", "30", "--df", "4",
             "--seed", "2", "--n", "50"]

    def test_names(self, tmp_path):
        signals = {"uniform": Uniform01(), "gauss": Gauss(0.0, 1.0),
                   "gd": mixture_gd(30.0), "hk": mixture_hk(4.0),
                   "bumps": Bumps()}
        for name, signal in signals.items():
            out = tmp_path / name
            assert main(["sample", "--signal", name, *self.FLAGS,
                         "-o", str(out)]) == 0
            want = "".join(f"{float(v)!r}\n"
                           for v in signal.sample(2, 50).observations)
            assert (out / "sample.csv").read_text() == want, name

    def test_unknown(self, tmp_path, capsys):
        for name in ("cauchy", "GD"):
            rc = main(["sample", "--signal", name, "--n", "10",
                       "-o", str(tmp_path / "o")])
            assert rc == 2
            assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["calibrate", "--n", "64", "--gammas", "1", "--reps", "1"],
        ["sample", "--n", "8"]], ids=["calibrate", "sample"])
    def test_tiny_sigma_exit_2(self, command, tmp_path, capsys):
        # the squared peak density of a 1e-300-wide normal overflows: the
        # signal is refused by name before any warning, draw or file
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([*command, "--signal", "gauss", "--sigma", "1e-300",
                       "-o", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "wavedens: error: sigma = 1e-300 is too small: the squared peak "
            "density 1/(2 pi sigma^2) overflows\n")
        assert list(out.iterdir()) == []


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
        (lambda doc: {**doc, "params": {**doc["params"], "n": "5"}},
         "param 'n' must be int"),
        (lambda doc: {**doc, "command": "bench", "params": {
            "sweep": "support", "values": 10, "methods": ["H"], "n": 64,
            "reps": 1, "seed": 0}},
         "param 'values' must be a list of float"),
        (lambda doc: {**doc, "command": "bench", "params": {
            "sweep": "support", "values": [], "methods": ["H"], "n": 64,
            "reps": 1, "seed": 0}},
         "param 'values' must be a list of float with at least one value, "
         "got []"),
    ], ids=["list", "no-params", "no-mu", "str-n", "scalar-values",
            "empty-values"])
    def test_malformed_manifest(self, damage, message, tmp_path, capsys):
        out = tmp_path / "orig"
        assert main(["sample", "--signal", "gauss", "--n", "5",
                     "-o", str(out)]) == 0
        path = out / "manifest.json"
        path.write_text(json.dumps(damage(json.loads(path.read_text()))))
        assert main(["rerun", str(path), "-o", str(tmp_path / "redo")]) == 2
        assert message in capsys.readouterr().err

    def test_unknown_method_in_manifest(self, tmp_path, capsys):
        # a string the --methods flag would refuse passes the manifest's
        # type check; the sweep's lookup refuses it instead
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "format": cli.MANIFEST_FORMAT, "command": "bench", "params": {
                "sweep": "support", "values": [10.0], "methods": ["H", "Z"],
                "n": 64, "reps": 1, "seed": 0}}))
        out = tmp_path / "redo"
        assert main(["rerun", str(path), "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "wavedens: error: unknown method 'Z'; valid methods: "
            "H, K, S, S*\n")
        assert list(out.iterdir()) == []

    def test_outdir_env_var(self, data_csv, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("WAVEDENS_OUTDIR", str(target))
        assert main(["estimate", "--input", str(data_csv),
                     "--basis", "haar"]) == 0
        assert (target / "estimate.json").exists()


class TestStartUp:
    def test_scipy_loads_only_for_a_signal_cdf(self, tmp_path):
        # --help and the golden estimate evaluate no test signal, so a fresh
        # process running them imports no SciPy; the golden bench's ISE tail
        # term needs the Gaussian cdf, and loads scipy.special on first use
        estimate = ["estimate", "--input", str(GOLDEN / "input_days.csv"),
                    "--rescale", "250", "--basis", "haar",
                    "--grid-step", "0.0625", "--grid-lo", "-1.0",
                    "--grid-hi", "4.0", "-o", str(tmp_path / "estimate")]
        bench = ["bench", "--sweep", "support", "--values", "10",
                 "--methods", "H,K", "--n", "64", "--reps", "2",
                 "--seed", "3", "-o", str(tmp_path / "bench")]
        code = ("import contextlib, io, json, sys, wavedens.cli\n"
                "from wavedens.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    help_code = main(['--help'])\n"
                f"estimate_code = main({estimate!r})\n"
                "scipy = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
                f"bench_code = main({bench!r})\n"
                "print(json.dumps([help_code, estimate_code, scipy,\n"
                "                  bench_code, 'scipy.special' in sys.modules]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        help_code, estimate_code, scipy, bench_code, special = json.loads(
            proc.stdout)
        assert help_code == estimate_code == 0
        assert scipy == []
        assert bench_code == 0 and special
