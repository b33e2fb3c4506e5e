"""Set-up, the closed measurement loop and the metrics of one run.

Imported by run.py after it has fixed the BLAS thread count, because that
must happen before numpy is imported.
"""

import importlib
import math
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import tracing
import workloads

MODULES = ("core", "fold", "engine", "ric", "planner", "io", "cli")
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples the tail percentile must leave beyond it
TRIM = 0.1  # share of operations speedup_vs_npfft drops at each end


def import_ricdft(src):
    """Import the package from ``src``, dropping any earlier import of it."""
    for name in [k for k in sys.modules if k == "ricdft" or k.startswith("ricdft.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{name: importlib.import_module("ricdft." + name) for name in MODULES})
    if Path(mods.core.__file__).resolve().parent != src / "ricdft":
        raise ImportError(f"ricdft imported from {mods.core.__file__}, not from {src}")
    return mods


def environment(blas_threads):
    def cache(level):
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        try:
            for index in sorted(base.glob("index*")):
                if (index / "level").read_text().strip() == str(level):
                    return (index / "size").read_text().strip()
        except OSError:
            pass
        return "unknown"

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_per_core": cache(2),
        "l3": cache(3),
    }


def tail(latencies):
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond); the maximum when the run
    has too few samples.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)  # nearest-rank percentile
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct, n - rank
    return ordered[-1], 100, 0


def trimmed_mean(values, share):
    """Mean of ``values`` without the lowest and highest ``share`` of them."""
    ordered = sorted(values)
    k = int(len(ordered) * share)
    return statistics.fmean(ordered[k:len(ordered) - k])


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


class Runner:
    """Runs operations of one workload and counts their outcomes."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.max_rel_error = 0.0

    def op(self, i):
        return [self.wl.run(call) for call in self.wl.calls(i)]

    def paired_op(self, i):
        """The operation with each call paired with its np.fft equivalent,
        in alternating order so drift cancels.

        Returns (ricdft seconds, np.fft seconds, outputs).
        """
        ric = base = 0.0
        outs = []
        for j, call in enumerate(self.wl.calls(i)):
            if (i + j) % 2:
                base += timed(self.wl.baseline, call)[0]
            t, out = timed(self.wl.run, call)
            ric += t
            outs.append(out)
            if (i + j) % 2 == 0:
                base += timed(self.wl.baseline, call)[0]
        return ric, base, outs

    def traced_op(self, tracer, i):
        """The operation's calls, each in a span, then their replays.

        Returns the latency of the calls alone, and their outputs.
        """
        calls = self.wl.calls(i)
        op = tracer.begin(i, "op")
        t0 = time.perf_counter()
        outs, spans = [], []
        for call in calls:
            with tracer.span(i, call.name, op, c=call.c) as idx:
                outs.append(self.wl.run(call))
            spans.append(idx)
        latency = time.perf_counter() - t0
        for call, idx in zip(calls, spans):
            self.wl.replay(tracer, i, call, idx)
        tracer.end(op)
        return latency, outs

    def check(self, i, outs):
        """True when every output matches its reference within workloads.RTOL."""
        worst = max(self.wl.check(call, out) for call, out in zip(self.wl.calls(i), outs))
        self.max_rel_error = max(self.max_rel_error, worst)
        if worst <= workloads.RTOL:
            return True
        print(f"operation {i} failed: max relative error {worst}", file=sys.stderr)
        return False

    def attempt(self, i, body):
        self.attempted += 1
        try:
            ok = body(i)
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            self.failed += 1


def setup(name, seed, src, workdir):
    """One set-up: a fresh import, plans, inputs, files and one warm-up operation.

    Returns the workload and the seconds it took.  The references are
    computed separately, outside any timed region.
    """
    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[name](import_ricdft(src), seed, workdir)
    Runner(wl).op(0)
    return wl, time.perf_counter() - t0


def make_plan_us(wl):
    """Median time of one make_plan call over the workload's plans, in microseconds."""
    args = [(p.n, p.c) for p in wl.plans] * 200
    samples = []
    for _ in range(5):
        t, _ = timed(lambda: [wl.m.core.make_plan(n, c) for n, c in args])
        samples.append(t / len(args) * 1e6)
    return statistics.median(samples)


def run_untraced(runner, seconds, first_setup_s, setup_again):
    """End-to-end metrics.

    On a shared host the speed of the same call swings by up to 1.8x as
    other tenants come and go, often for longer than a run.  So:

    - speedup_vs_npfft is the mean over operations of the operation's
      np.fft time over its ricdft time, trimmed by TRIM at each end.  Each
      call and its np.fft pairing run back to back, so both see the same
      host state.  The trim drops operations where a stall of the host hit
      a short np.fft call.
    - setup_s is the median of SETUP_REPEATS set-ups: the one before the
      run, which took ``first_setup_s``, and the others spread evenly
      through it by ``setup_again()``, which returns the seconds one
      set-up took.
    - Absolute latencies are printed for the record but not reported.
    """
    latencies, ratios = [], []
    setups = [first_setup_s]

    def body(i):
        latency, base, outs = runner.paired_op(i)
        latencies.append(latency)
        ratios.append(base / latency)
        return runner.check(i, outs)

    start = time.perf_counter()
    deadline = start + seconds
    i = 1
    while i == 1 or time.perf_counter() < deadline:
        due = start + seconds * len(setups) / SETUP_REPEATS
        if len(setups) < SETUP_REPEATS and time.perf_counter() >= due:
            setups.append(setup_again())
            continue
        runner.attempt(i, body)
        i += 1
    tail_s, pct, beyond = tail(latencies)
    print(f"{len(latencies)} operations: latency min {min(latencies) * 1e3:.4g} ms, "
          f"p50 {statistics.median(latencies) * 1e3:.4g} ms, "
          f"p{pct} {tail_s * 1e3:.4g} ms ({beyond} beyond it), "
          f"{len(latencies) / sum(latencies):.4g} operations/s; "
          f"set-ups " + " ".join(f"{t:.3f}" for t in setups) + " s")
    return {"speedup_vs_npfft": trimmed_mean(ratios, TRIM), "setup_s": statistics.median(setups)}


def run_traced(runner, seconds):
    """Per-layer metrics.  Untraced and traced operations alternate, so
    drift cancels in trace.overhead_pct."""
    tracer = tracing.Tracer()
    plain, traced, traced_ops = [], [], []

    def body(i):
        # Pairs of operations alternate, so both directions of the
        # alternating workloads are traced.
        if i % 4 >= 2:
            latency, outs = timed(runner.op, i)
            plain.append(latency)
        else:
            latency, outs = runner.traced_op(tracer, i)
            traced.append(latency)
            traced_ops.append(i)
        return runner.check(i, outs)

    deadline = time.perf_counter() + seconds
    i = 1
    while i <= 4 or time.perf_counter() < deadline:
        runner.attempt(i, body)
        i += 1
    metrics = tracing.per_layer(tracer, runner.wl.share, traced_ops)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.fmean(traced) / statistics.fmean(plain) - 1.0)
    metrics["core.make_plan_us"] = make_plan_us(runner.wl)
    metrics["ric.max_rel_error"] = runner.max_rel_error
    return metrics, tracer
