"""Benchmark of the ricdft package.

Run from the repository root:

    python3 perfbench/run.py --workload fold_bound --seed 1 --seconds 20 --trace 0

One process, one closed-loop caller: each operation starts when the
previous one has ended.  The benchmark starts no threads; numpy's BLAS runs
with BLAS_THREADS threads.  An operation is one seeded input taken through
the workload's fixed list of calls (see workloads.py).  Each call is paired
with its np.fft equivalent on the same frame, run alternately before and
after it, so machine drift cancels in speedup_vs_npfft.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
operations with traced ones, replays each traced call's stages through
public functions as spans, writes the spans to perfbench/out/ and prints
the per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_THREADS = 1


def main(argv=None):
    # BENCHMARK.json names the workloads and, with their units, the metrics to print.
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description="Benchmark of the ricdft package.")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ricdft" / "__init__.py").is_file():
        print(f"error: no ricdft package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    # The thread count must be fixed before numpy loads BLAS.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(HERE), str(SRC)]
    import harness
    import tracing

    env = harness.environment(BLAS_THREADS)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        wl, setup_s = harness.setup(args.workload, args.seed, SRC, workdir)
        wl.make_references()
        print("env " + json.dumps(env))
        print("working_set " + json.dumps(wl.working_set()))
        runner = harness.Runner(wl)
        if args.trace:
            metrics, tracer = harness.run_traced(runner, args.seconds)
            for err in tracer.count_errors:
                print(f"count mismatch: {err}", file=sys.stderr)
            path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracing.write(path, tracer, {"workload": args.workload, "seed": args.seed, "env": env,
                                         "working_set": wl.working_set(), "metrics": metrics})
            print(f"spans written to {path.relative_to(ROOT)}")
            wanted = spec["per_layer"]
            correct = runner.failed == 0 and not tracer.count_errors
        else:
            metrics = harness.run_untraced(
                runner, args.seconds, setup_s,
                lambda: harness.setup(args.workload, args.seed, SRC, workdir)[1])
            metrics["ok_ratio"] = (runner.attempted - runner.failed) / runner.attempted
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            wanted = spec["end_to_end"]
            correct = runner.failed == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
