"""Command-line entry point.

Subcommands::

    estimate    fit the thresholding estimator to a one-column CSV sample
    calibrate   threshold-constant sweep for a test signal (plot data out)
    bench       support / tail robustness sweeps across methods
    sample      draw a seeded sample from a test signal
    rerun       reproduce a previous run from its manifest.json

Every run writes a ``manifest.json`` echoing the fully resolved parameters,
so any output directory can be reproduced byte-for-byte with ``rerun``.
The default output directory is taken from ``WAVEDENS_OUTDIR`` when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .basis import basis_by_name
from .estimator import (
    EstimatorConfig,
    Mode,
    Sample,
    estimate,
    practical_gamma,
)
from .risk import (
    DEFAULT_GRID_STEP,
    GridSpec,
    MethodSpec,
    mise_sweep,
    resolve_methods,
    support_sweep,
    tail_sweep,
    write_quartiles_csv,
    write_replications_csv,
    write_summary_json,
)
from .signals import signal_by_name

MANIFEST_FORMAT = "wavedens-manifest-v1"
# rows per joined string when writing a CSV
_CSV_BLOCK = 8192


class CliError(Exception):
    pass


def _outdir(path_arg) -> Path:
    path = path_arg or os.environ.get("WAVEDENS_OUTDIR") or "."
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(outdir: Path, command: str, params: dict, outputs: list):
    doc = {"format": MANIFEST_FORMAT, "command": command,
           "params": params, "outputs": sorted(outputs)}
    (outdir / "manifest.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="ascii")


def _write_csv(path: Path, header: str, *columns):
    """Write ``header``, then one line of comma-separated float ``repr``s
    per row of the equal-length columns.  Rows go out in blocks, each one
    joined string, so the text of a large file is never held at once."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header)
        for start in range(0, len(columns[0]), _CSV_BLOCK):
            reprs = (map(repr, c[start:start + _CSV_BLOCK].tolist())
                     for c in columns)
            fh.write("\n".join(map(",".join, zip(*reprs))) + "\n")


def _read_one_column_csv(path: str) -> np.ndarray:
    """The numbers of a file with one per line; blank lines are skipped,
    and the first line that is not one number is named in the error."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot open {path}: {exc}") from None
    with fh:
        try:
            # bulk parse first; any file it cannot read as one column (an
            # empty one only warns) goes through the line loop below
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)
                table = np.loadtxt(fh, dtype=float, comments=None, ndmin=2)
            if table.shape[1] == 1 and len(table) >= 2:
                return table[:, 0]
        except (ValueError, UserWarning):
            pass
        fh.seek(0)
        values = []
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise CliError(
                    f"{path}: line {lineno}: expected a single number, "
                    f"got {text!r}") from None
    if len(values) < 2:
        raise CliError(f"{path}: need at least 2 data rows, got {len(values)}")
    return np.asarray(values)


def _mode_from_params(params) -> Mode:
    return Mode(params["mode"], gamma=params["gamma"], c=params["c"],
                c_prime=params["c_prime"])


def _signal_from_params(params):
    return signal_by_name(params["signal"], mu=params["mu"],
                          sigma=params["sigma"], d=params["d"],
                          df=params["df"])


def _parse_gammas(text: str) -> list:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError("gamma range must look like start:stop:step")
        start, stop, step = map(float, parts)
        if step <= 0 or stop < start:
            raise CliError("bad gamma range")
        values = np.arange(start, stop + step / 2.0, step)
        return [float(round(v, 12)) for v in values]
    return [float(v) for v in text.split(",") if v]


def _safe(code: str) -> str:
    return code.replace("*", "star")


# ---------------------------------------------------------------------------
# command handlers (params dicts are fully resolved; rerun reuses them)

def run_estimate(params: dict, outdir: Path) -> None:
    values = _read_one_column_csv(params["input"])
    if params["rescale"] is not None:
        if params["rescale"] <= 0:
            raise CliError("rescale factor must be positive")
        values = values / params["rescale"]
    basis = basis_by_name(params["basis"])
    config = EstimatorConfig(basis=basis, mode=_mode_from_params(params),
                             j0_override=params["j0"])
    sample = Sample.from_data(values)
    est = estimate(sample, config)

    hull = est.support_hull()
    lo, hi = hull if hull is not None else sample.data_range
    grid_lo = params["grid_lo"] if params["grid_lo"] is not None else lo - 1.0
    grid_hi = params["grid_hi"] if params["grid_hi"] is not None else hi + 1.0
    grid = GridSpec(grid_lo, grid_hi, params["grid_step"])
    xs = grid.points()

    (outdir / "estimate.json").write_text(
        json.dumps(est.to_json_dict(), indent=2, sort_keys=True) + "\n",
        encoding="ascii")
    _write_csv(outdir / "estimate_grid.csv", "x,density\n", xs,
               est.evaluate(xs))
    _write_manifest(outdir, "estimate", params,
                    ["estimate.json", "estimate_grid.csv"])


def run_calibrate(params: dict, outdir: Path) -> None:
    signal = _signal_from_params(params)
    methods = [
        MethodSpec(code=f"PG{g:g}", kind="wavelet", basis_name=params["basis"],
                   mode=practical_gamma(g), parameter=g)
        for g in params["gammas"]
    ]
    reports = mise_sweep(signal, params["n"], methods, params["reps"],
                         params["seed"])
    outputs = []
    for g, report in zip(params["gammas"], reports):
        name = f"replications_gamma_{g:g}.csv"
        write_replications_csv(report, outdir / name)
        outputs.append(name)
    with open(outdir / "calibration.csv", "w", encoding="ascii") as fh:
        fh.write("gamma,n_mise\n")
        for g, report in zip(params["gammas"], reports):
            fh.write(f"{g!r},{params['n'] * report.mean!r}\n")
    write_summary_json(reports, outdir / "summary.json")
    outputs += ["calibration.csv", "summary.json"]
    _write_manifest(outdir, "calibrate", params, outputs)


def run_bench(params: dict, outdir: Path) -> None:
    try:
        methods = resolve_methods(params["methods"])
    except ValueError as exc:
        raise CliError(str(exc)) from None
    sweep = support_sweep if params["sweep"] == "support" else tail_sweep
    reports = sweep(params["values"], params["n"], methods, params["reps"],
                    params["seed"])
    outputs = []
    for report in reports:
        name = (f"replications_{_safe(report.method_id)}_"
                f"{report.parameter:g}.csv")
        write_replications_csv(report, outdir / name)
        outputs.append(name)
    write_quartiles_csv(reports, outdir / "quartiles.csv")
    write_summary_json(reports, outdir / "summary.json")
    outputs += ["quartiles.csv", "summary.json"]
    _write_manifest(outdir, "bench", params, outputs)


def run_sample(params: dict, outdir: Path) -> None:
    signal = _signal_from_params(params)
    sample = signal.sample(params["seed"], params["n"])
    _write_csv(outdir / "sample.csv", "", sample.observations)
    _write_manifest(outdir, "sample", params, ["sample.csv"])


_HANDLERS = {
    "estimate": run_estimate,
    "calibrate": run_calibrate,
    "bench": run_bench,
    "sample": run_sample,
}


def run_from_manifest(manifest_path: str, outdir: Path) -> None:
    try:
        doc = json.loads(Path(manifest_path).read_text(encoding="ascii"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read manifest {manifest_path}: {exc}") from None
    if not isinstance(doc, dict):
        raise CliError(f"manifest {manifest_path} is not a JSON object")
    if doc.get("format") != MANIFEST_FORMAT:
        raise CliError(f"unrecognized manifest format {doc.get('format')!r}")
    command = doc.get("command")
    if command not in _HANDLERS:
        raise CliError(f"manifest names unknown command {command!r}")
    if not isinstance(doc.get("params"), dict):
        raise CliError(f"manifest {manifest_path} has no params object")
    _check_params(command, doc["params"])
    _HANDLERS[command](doc["params"], outdir)


def _check_params(command: str, params: dict) -> None:
    """Raise :class:`CliError` unless each flag of the command has a param
    holding a value the flag could have produced: one of its choices, a
    value of its type (or null, for an optional flag without a default),
    or for a ``_LIST_PARAMS`` key a list of that element type.  Keys that
    name no flag, such as an old ``workers``, pass unchecked."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for action in sub.choices[command]._actions:
        key = action.dest
        if key in ("help", "outdir"):
            continue
        if key not in params:
            raise CliError(f"manifest params lack {key!r}")
        value = params[key]
        if key in _LIST_PARAMS:
            kind = _LIST_PARAMS[key]
            ok = isinstance(value, list) and all(_is(v, kind) for v in value)
            want = f"a list of {kind.__name__}"
        elif action.choices is not None:
            ok = value in action.choices
            want = "one of " + ", ".join(action.choices)
        else:
            kind = action.type or str
            nullable = action.default is None and not action.required
            ok = _is(value, kind) or (nullable and value is None)
            want = kind.__name__ + (" or null" if nullable else "")
        if not ok:
            raise CliError(f"manifest param {key!r} must be {want}, "
                           f"got {value!r}")


def _is(value, kind) -> bool:
    """``value`` is a JSON value of flag type ``kind``: ``float`` takes any
    number, and a boolean is no number."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


# ---------------------------------------------------------------------------
# argument parsing

def _add_signal_args(p: argparse.ArgumentParser):
    p.add_argument("--signal", required=True,
                   choices=["uniform", "gauss", "gd", "hk", "bumps"])
    p.add_argument("--mu", type=float, default=0.5,
                   help="gauss mean (default 0.5)")
    p.add_argument("--sigma", type=float, default=0.25,
                   help="gauss standard deviation (default 0.25)")
    p.add_argument("--d", type=float, default=10.0,
                   help="separation of the two-component signal")
    p.add_argument("--df", type=float, default=2.0,
                   help="degrees of freedom of the heavy-tailed signal")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavedens",
        description="Wavelet thresholding density estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate a density from a CSV sample")
    p.add_argument("--input", required=True, help="one-column CSV of observations")
    p.add_argument("--basis", default="spline", choices=["haar", "spline"])
    p.add_argument("--mode", default="practical",
                   choices=["practical", "practical-gamma", "theoretical-gamma"])
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--c-prime", type=float, default=0.0, dest="c_prime")
    p.add_argument("--j0", type=int, default=None,
                   help="override the maximum resolution level")
    p.add_argument("--rescale", type=float, default=None,
                   help="divide the data by this factor before estimating")
    p.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    p.add_argument("--grid-lo", type=float, default=None)
    p.add_argument("--grid-hi", type=float, default=None)
    p.add_argument("-o", "--outdir", default=None)

    p = sub.add_parser("calibrate",
                       help="threshold-constant sweep on a test signal")
    _add_signal_args(p)
    p.add_argument("--basis", default="haar", choices=["haar", "spline"])
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--gammas", default="0.25:2:0.25",
                   help="start:stop:step range or comma list")
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--outdir", default=None)

    p = sub.add_parser("bench", help="support/tail robustness sweep")
    p.add_argument("--sweep", required=True, choices=["support", "tail"])
    p.add_argument("--values", required=True,
                   help="comma list, e.g. 10,30,50,70")
    p.add_argument("--methods", default="S,H,S*,K",
                   help="comma list of method codes (S, H, S*, K)")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--outdir", default=None)

    p = sub.add_parser("sample", help="draw a seeded sample from a signal")
    _add_signal_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--outdir", default=None)

    p = sub.add_parser("rerun", help="reproduce a run from its manifest")
    p.add_argument("manifest")
    p.add_argument("-o", "--outdir", default=None)

    return parser


# params that _params_from_args writes as lists, by element type
_LIST_PARAMS = {"gammas": float, "values": float, "methods": str}


def _params_from_args(args) -> dict:
    if args.command == "estimate":
        return {
            "input": os.path.abspath(args.input), "basis": args.basis,
            "mode": args.mode, "gamma": args.gamma, "c": args.c,
            "c_prime": args.c_prime, "j0": args.j0, "rescale": args.rescale,
            "grid_step": args.grid_step, "grid_lo": args.grid_lo,
            "grid_hi": args.grid_hi,
        }
    if args.command == "calibrate":
        return {
            "signal": args.signal, "mu": args.mu, "sigma": args.sigma,
            "d": args.d, "df": args.df, "basis": args.basis, "n": args.n,
            "gammas": _parse_gammas(args.gammas), "reps": args.reps,
            "seed": args.seed,
        }
    if args.command == "bench":
        return {
            "sweep": args.sweep,
            "values": [float(v) for v in args.values.split(",") if v],
            "methods": [m for m in args.methods.split(",") if m],
            "n": args.n, "reps": args.reps, "seed": args.seed,
        }
    if args.command == "sample":
        return {
            "signal": args.signal, "mu": args.mu, "sigma": args.sigma,
            "d": args.d, "df": args.df, "n": args.n, "seed": args.seed,
        }
    raise CliError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        outdir = _outdir(args.outdir)
        if args.command == "rerun":
            run_from_manifest(args.manifest, outdir)
        else:
            _HANDLERS[args.command](_params_from_args(args), outdir)
    except (CliError, ValueError) as exc:
        print(f"wavedens: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
