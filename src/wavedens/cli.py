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
import functools
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .basis import BASES, basis_by_name
from .estimator import (
    MODE_KINDS,
    EstimatorConfig,
    Mode,
    Sample,
    estimate,
    practical_gamma,
)
from .risk import (
    DEFAULT_GRID_STEP,
    METHODS,
    GridSpec,
    MethodSpec,
    mise_sweep,
    resolve_methods,
    support_sweep,
    tail_sweep,
)
from .signals import Bumps, Gauss, Uniform01, mixture_gd, mixture_hk

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


def _create(path: Path):
    """Open ``path`` for writing as a new file.  Whatever entry holds the
    name (a file, a hard link, a symlink) is unlinked first and never
    written through: truncating a file still being written back makes
    ext4 flush it (``auto_da_alloc``), which an unlinked one escapes."""
    path.unlink(missing_ok=True)
    return open(path, "x", encoding="ascii")


def _write_json(path: Path, doc) -> None:
    # NaN and Infinity are not JSON: refuse them before the file is created
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with _create(path) as fh:
        fh.write(text + "\n")


def _write_csv(path: Path, header: str, *columns):
    """Write ``header``, then one line per row of the equal-length columns,
    each cell as its ``str`` (for a float, its round-trip ``repr``).  Rows
    go out in blocks, each one joined string, so the text of a large file
    is never held at once."""
    with _create(path) as fh:
        fh.write(header)
        for start in range(0, len(columns[0]), _CSV_BLOCK):
            blocks = (c[start:start + _CSV_BLOCK] for c in columns)
            cells = (map(str, b.tolist() if isinstance(b, np.ndarray) else b)
                     for b in blocks)
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


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
        try:
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
        except UnicodeDecodeError as exc:
            raise CliError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if len(values) < 2:
        raise CliError(f"{path}: need at least 2 data rows, got {len(values)}")
    return np.asarray(values)


def _mode_from_params(params) -> Mode:
    return Mode(params["mode"], gamma=params["gamma"], c=params["c"],
                c_prime=params["c_prime"])


def _safe(code: str) -> str:
    return code.replace("*", "star")


def _distinct(names: list, labels: list) -> list:
    """``names``, unless two of them are equal: then raise
    :class:`CliError` naming the two inputs (``labels``) that gave it."""
    first = {}
    for name, label in zip(names, labels):
        if name in first:
            raise CliError(f"{first[name]} and {label} would both write {name}")
        first[name] = label
    return names


# ---------------------------------------------------------------------------
# command handlers (params dicts are fully resolved; rerun reuses them);
# each returns the names of the files it wrote

def run_estimate(params: dict, outdir: Path) -> list:
    values = _read_one_column_csv(params["input"])
    if params["rescale"] is not None:
        if not 0 < params["rescale"] < float("inf"):
            raise CliError(f"rescale factor must be positive and finite, "
                           f"got {params['rescale']!r}")
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

    _write_json(outdir / "estimate.json", est.to_json_dict())
    _write_csv(outdir / "estimate_grid.csv", "x,density\n", xs,
               est.evaluate(xs))
    return ["estimate.json", "estimate_grid.csv"]


def _write_reports(outdir: Path, reports, names) -> list:
    """One ``replication,ise`` CSV per report, under its name, and the
    aggregates of all of them in ``summary.json``."""
    for report, name in zip(reports, names):
        _write_csv(outdir / name, "replication,ise\n",
                   range(len(report.ise_values)), report.ise_values)
    _write_json(outdir / "summary.json", [
        {
            "signal": r.signal_id, "method": r.method_id,
            "parameter": r.parameter, "n": r.n,
            "replications": r.replications, "master_seed": r.master_seed,
            "mean": r.mean, "median": r.median, "q25": r.q25, "q75": r.q75,
        }
        for r in reports
    ])
    return [*names, "summary.json"]


def run_calibrate(params: dict, outdir: Path) -> list:
    signal = _SIGNALS[params["signal"]](params)
    names = _distinct(
        [f"replications_gamma_{g:g}.csv" for g in params["gammas"]],
        [f"gamma {g!r}" for g in params["gammas"]])
    methods = [
        MethodSpec(code=f"PG{g:g}", kind="wavelet", basis_name=params["basis"],
                   mode=practical_gamma(g), parameter=g)
        for g in params["gammas"]
    ]
    reports = mise_sweep(signal, params["n"], methods, params["reps"],
                         params["seed"])
    _write_csv(outdir / "calibration.csv", "gamma,n_mise\n", params["gammas"],
               [params["n"] * r.mean for r in reports])
    return ["calibration.csv", *_write_reports(outdir, reports, names)]


def run_bench(params: dict, outdir: Path) -> list:
    methods = resolve_methods(params["methods"])
    # the sweeps report value-major, one report per (value, method)
    cells = [(m.code, float(v)) for v in params["values"] for m in methods]
    names = _distinct([f"replications_{_safe(code)}_{v:g}.csv"
                       for code, v in cells],
                      [f"{code} at value {v!r}" for code, v in cells])
    sweep = support_sweep if params["sweep"] == "support" else tail_sweep
    reports = sweep(params["values"], params["n"], methods, params["reps"],
                    params["seed"])
    fields = ("method_id", "parameter", "mean", "q25", "median", "q75")
    _write_csv(outdir / "quartiles.csv", "method,parameter,mean,q25,median,q75\n",
               *([getattr(r, f) for r in reports] for f in fields))
    return ["quartiles.csv", *_write_reports(outdir, reports, names)]


def run_sample(params: dict, outdir: Path) -> list:
    signal = _SIGNALS[params["signal"]](params)
    sample = signal.sample(params["seed"], params["n"])
    _write_csv(outdir / "sample.csv", "", sample.observations)
    return ["sample.csv"]


_HANDLERS = {
    "estimate": run_estimate,
    "calibrate": run_calibrate,
    "bench": run_bench,
    "sample": run_sample,
}


def _read_manifest(manifest_path: str) -> tuple:
    """The (command, params) of a manifest, with the params checked."""
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
    return command, doc["params"]


def _check_params(command: str, params: dict) -> None:
    """Raise :class:`CliError` unless each flag of the command has a param
    holding a value the flag could have produced: one of its choices, a
    value of its type (or null, for an optional flag without a default),
    or for a list flag a non-empty list of its element type.  Keys that
    name no flag, such as an old ``workers``, pass unchecked."""
    for action in _flag_actions(command):
        key = action.dest
        if key not in params:
            raise CliError(f"manifest params lack {key!r}")
        value = params[key]
        if action.type in _LIST_TYPES:
            kind = _LIST_TYPES[action.type]
            ok = (isinstance(value, list) and len(value) > 0
                  and all(_is(v, kind) for v in value))
            want = f"a list of {kind.__name__} with at least one value"
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

def _list_flag(parse):
    """``parse`` as an argparse ``type=``: its ``ValueError``, or an empty
    list, becomes a usage error that names the flag and keeps the message."""
    @functools.wraps(parse)
    def convert(text: str) -> list:
        try:
            values = parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not values:
            raise argparse.ArgumentTypeError(f"no values in {text!r}")
        return values
    return convert


@_list_flag
def _float_list(text: str) -> list:
    return [float(v) for v in text.split(",") if v]


# values a --gammas range may hold
_MAX_GAMMAS = 10 ** 4


@_list_flag
def _gamma_list(text: str) -> list:
    if ":" not in text:
        return _float_list(text)
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("gamma range must look like start:stop:step")
    start, stop, step = map(float, parts)
    # the length of the arange below, counted before it is allocated; a
    # NaN or infinite bound or step makes it NaN or infinite
    count = (stop + step / 2.0 - start) / step if step > 0 else math.nan
    if not (stop >= start and math.isfinite(count)):
        raise ValueError("bad gamma range")
    if count > _MAX_GAMMAS:
        raise ValueError(f"gamma range holds {math.ceil(count)} values, "
                         f"more than {_MAX_GAMMAS}")
    values = np.arange(start, stop + step / 2.0, step)
    return [float(round(v, 12)) for v in values]


@_list_flag
def _method_list(text: str) -> list:
    codes = [m for m in text.split(",") if m]
    resolve_methods(codes)  # an unknown code raises, naming the valid ones
    return codes


# element type of each list flag's converter
_LIST_TYPES = {_gamma_list: float, _float_list: float, _method_list: str}


# each --signal choice and its signal, built from the parsed flags
_SIGNALS = {
    "uniform": lambda p: Uniform01(),
    "gauss": lambda p: Gauss(p["mu"], p["sigma"]),
    "gd": lambda p: mixture_gd(p["d"]),
    "hk": lambda p: mixture_hk(p["df"]),
    "bumps": lambda p: Bumps(),
}


def _add_signal_args(p: argparse.ArgumentParser):
    p.add_argument("--signal", required=True, choices=list(_SIGNALS))
    p.add_argument("--mu", type=float, default=0.5,
                   help="gauss mean (default 0.5)")
    p.add_argument("--sigma", type=float, default=0.25,
                   help="gauss standard deviation (default 0.25)")
    p.add_argument("--d", type=float, default=10.0,
                   help="separation of the two-component signal")
    p.add_argument("--df", type=float, default=2.0,
                   help="degrees of freedom of the heavy-tailed signal")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavedens",
        description="Wavelet thresholding density estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate a density from a CSV sample")
    p.add_argument("--input", required=True, help="one-column CSV of observations")
    p.add_argument("--basis", default="spline", choices=list(BASES))
    p.add_argument("--mode", default="practical", choices=MODE_KINDS)
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
    p.add_argument("--basis", default="haar", choices=list(BASES))
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--gammas", type=_gamma_list, default="0.25:2:0.25",
                   help="start:stop:step range or comma list")
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--outdir", default=None)

    p = sub.add_parser("bench", help="support/tail robustness sweep")
    p.add_argument("--sweep", required=True, choices=["support", "tail"])
    p.add_argument("--values", type=_float_list, required=True,
                   help="comma list, e.g. 10,30,50,70")
    p.add_argument("--methods", type=_method_list, default=",".join(METHODS),
                   help=f"comma list of method codes ({', '.join(METHODS)})")
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


def _flag_actions(command: str) -> list:
    """The actions of the command's flags, one per key of its manifest
    params: every action of the subcommand but ``--help`` and ``--outdir``."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions
            if a.dest not in ("help", "outdir")]


def _params_from_args(args) -> dict:
    params = {a.dest: getattr(args, a.dest) for a in _flag_actions(args.command)}
    if "input" in params:
        params["input"] = os.path.abspath(params["input"])
    return params


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error argparse printed
        return exc.code
    try:
        outdir = _outdir(args.outdir)
        if args.command == "rerun":
            command, params = _read_manifest(args.manifest)
        else:
            command, params = args.command, _params_from_args(args)
        outputs = _HANDLERS[command](params, outdir)
        _write_json(outdir / "manifest.json", {
            "format": MANIFEST_FORMAT, "command": command, "params": params,
            "outputs": sorted(outputs)})
    except (CliError, ValueError, OSError, MemoryError) as exc:
        print(f"wavedens: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
