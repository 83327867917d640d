"""One fresh benchmark process: set-up probe or one workload.

    python3 perfbench/worker.py --src SRC --setup-only
    python3 perfbench/worker.py --src SRC --workload NAME --seed N \
        --seconds S --trace 0|1 --workdir DIR --golden DIR

Prints one JSON object on its last stdout line.  ``run.py`` starts it with
BLAS and OpenMP pinned to one thread; nothing from the library or NumPy is
imported before the set-up clock starts.
"""

import argparse
import functools
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import harness  # standard library only


def timed_setup(src: str) -> dict:
    """Import the package and its CLI, then run the spline cascade."""
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import wavedens.cli
    t1 = time.perf_counter()
    wavedens.basis.spline_basis()
    t2 = time.perf_counter()
    if not Path(wavedens.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"wavedens imported from {wavedens.__file__}, not {src}")
    return {"import_s": t1 - t0, "cascade_s": t2 - t1, "setup_s": t2 - t0}


def run_workload(args) -> dict:
    # these import the library and NumPy: only after the set-up clock
    import numpy
    import scipy

    import workloads
    from gate import golden_mismatches
    from tracing import Tracer

    workdir = Path(args.workdir)
    out = {"versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}
    out["golden_mismatches"] = golden_mismatches(Path(args.golden), workdir / "gate")
    if not out["golden_mismatches"]:  # a failing gate's outputs stay for inspection
        shutil.rmtree(workdir / "gate")
    scratch = workdir / "scratch"  # generated inputs and CLI outputs
    scratch.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, scratch)
    seed_for = functools.partial(workloads.op_seed, args.seed)
    # a traced run splits its time between an untraced and a traced loop,
    # and reports no percentiles, so it needs no minimum op count
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    min_ops = 0 if args.trace else harness.MIN_OPS
    out["durations"], out["failed"] = harness.run_ops(
        wl.cases, wl.run, wl.check, seconds, seed_for, min_ops=min_ops)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        # the same op seeds again, so the overhead compares equal work
        tracer = Tracer()
        with tracer.installed():
            out["traced_durations"], out["traced_failed"] = harness.run_ops(
                wl.cases, wl.run, wl.check, seconds, seed_for, tracer=tracer)
        out["layers"] = tracer.layer_metrics()
        tracer.write(workdir / "spans.json")
    else:
        out["sentinel"] = wl.sentinel_errors()
    shutil.rmtree(scratch)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--workdir")
    parser.add_argument("--golden")
    args = parser.parse_args()

    result = {"setup": timed_setup(args.src)}
    if not args.setup_only:
        result.update(run_workload(args))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
