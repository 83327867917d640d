"""Golden gate: the CLI commands pinned by ``tests/test_golden.py`` must
reproduce ``tests/golden/`` before any timing counts.

The estimate outputs are compared byte for byte, the Monte-Carlo bench
outputs value by value at a relative tolerance of 1e-12.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from wavedens.cli import main

RTOL = 1e-12


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= RTOL * abs(want)


def _csv_mismatches(got_path: Path, want_path: Path) -> list[str]:
    with open(got_path, newline="") as fh:
        got = list(csv.reader(fh))
    with open(want_path, newline="") as fh:
        want = list(csv.reader(fh))
    if got[0] != want[0] or len(got) != len(want):
        return [f"{got_path.name}: header or row count differs"]
    bad = []
    for r, (grow, wrow) in enumerate(zip(got[1:], want[1:]), start=2):
        if len(grow) != len(wrow):
            bad.append(f"{got_path.name} row {r}: {len(grow)} cells, want {len(wrow)}")
            continue
        for gcell, wcell in zip(grow, wrow):
            try:
                same = _close(float(gcell), float(wcell))
            except ValueError:
                same = gcell == wcell
            if not same:
                bad.append(f"{got_path.name} row {r}: {gcell} != {wcell}")
    return bad


def _summary_mismatches(got_path: Path, want_path: Path) -> list[str]:
    got = json.loads(got_path.read_text())
    want = json.loads(want_path.read_text())
    if len(got) != len(want):
        return ["summary.json: entry count differs"]
    bad = []
    for g, w in zip(got, want):
        if g.keys() != w.keys():
            bad.append("summary.json: keys differ")
            continue
        for key, wv in w.items():
            gv = g[key]
            same = _close(gv, wv) if isinstance(wv, float) else gv == wv
            if not same:
                bad.append(f"summary.json {key}: {gv!r} != {wv!r}")
    return bad


def golden_mismatches(golden: Path, workdir: Path) -> list[str]:
    """Run the golden commands into ``workdir``; empty list means pass."""
    est_out, bench_out = workdir / "estimate", workdir / "bench"
    bad = []
    rc = main(["estimate", "--input", str(golden / "input_days.csv"),
               "--rescale", "250", "--basis", "haar",
               "--grid-step", "0.0625", "--grid-lo", "-1.0", "--grid-hi", "4.0",
               "-o", str(est_out)])
    if rc != 0:
        bad.append(f"estimate exited {rc}")
    else:
        for name in ("estimate.json", "estimate_grid.csv"):
            if (est_out / name).read_bytes() != (golden / name).read_bytes():
                bad.append(f"{name} differs from the golden bytes")
    rc = main(["bench", "--sweep", "support", "--values", "10", "--methods", "H,K",
               "--n", "64", "--reps", "2", "--seed", "3", "-o", str(bench_out)])
    if rc != 0:
        bad.append(f"bench exited {rc}")
    else:
        bad += _csv_mismatches(bench_out / "quartiles.csv",
                               golden / "bench_quartiles.csv")
        for method in ("H", "K"):
            bad += _csv_mismatches(bench_out / f"replications_{method}_10.csv",
                                   golden / f"bench_replications_{method}_10.csv")
        bad += _summary_mismatches(bench_out / "summary.json",
                                   golden / "bench_summary.json")
    return bad
