"""wavedens benchmark entry point.

    python3 perfbench/run.py --workload tail|support|calibrate|estimate \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Set-up probes and then the
workload each run in a fresh process pinned to one BLAS and OpenMP
thread; the workload process runs the golden gate before it times
anything.  With ``--trace 0`` the last stdout line is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run.  Run records (environment, op times,
sentinel errors, spans) go to ``perfbench/out/``.  See README.md.
"""

import sys

sys.dont_write_bytecode = True  # keep the checkout clean and set-up uniform

import argparse
import json
import os
import platform
import shutil
import subprocess
import time
from pathlib import Path

import harness  # standard library only

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
OUT = HERE / "out"
SETUP_PROBES = 2  # plus the workload process itself: three set-up samples
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def environment(versions: dict) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
        sha = proc.stdout.strip() or None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {v: "1" for v in THREAD_VARS},
    }


def run_worker(extra: list, started: float) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC)] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(extra)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(extra)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    started = time.monotonic()
    try:
        return bench(args, started)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1


def bench(args, started: float) -> int:
    if not (SRC / "wavedens" / "__init__.py").is_file() or not GOLDEN.is_dir():
        raise BenchError(f"no wavedens sources or goldens under {ROOT}")
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setups = [run_worker(["--setup-only"], started)["setup"]
              for _ in range(SETUP_PROBES)]
    res = run_worker(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", repr(args.seconds), "--trace", str(args.trace),
                      "--workdir", str(workdir), "--golden", str(GOLDEN)],
                     started)
    setups.append(res["setup"])
    env = environment(res["versions"])
    gate_bad = res["golden_mismatches"]
    for line in gate_bad:
        print(f"golden mismatch: {line}", file=sys.stderr)

    durations, failed = res["durations"], res["failed"]
    record = {"args": vars(args), "env": env, "golden_mismatches": gate_bad,
              "setups": setups, "durations": durations}
    if args.trace:
        traced = res["traced_durations"]
        failed += res["traced_failed"]
        attempted = len(durations) + len(traced)
        values = harness.per_layer_values(res["layers"], setups, durations, traced)
        units = harness.PER_LAYER
        record["traced_durations"] = traced
    else:
        attempted = len(durations)
        values, pct = harness.end_to_end_values(
            durations, failed, setups, res["peak_rss_mb"], res["sentinel"])
        units = harness.END_TO_END
        record["op_ms_tail_percentile"] = pct
        record["sentinel_rel_err"] = res["sentinel"]
        print(f"# op_ms_tail is p{pct} of {attempted} ops")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    result = {"correct": not gate_bad and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record["result"] = result
    (workdir / "record.json").write_text(json.dumps(record, indent=2) + "\n",
                                         encoding="ascii")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
