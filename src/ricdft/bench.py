"""Cost comparison: folded pipeline vs full-length transforms.

For each (n, c) cell the harness runs up to three methods on the same
pseudorandom input: ``ric`` (fold then c-point transform), ``full`` (full
n-point transform, then select the retained indices) and ``direct`` (full
quadratic reference, small n only).  It records exact operation counts,
median wall time over repeated trials and the disagreement against the
most trustworthy method present.  Counts, not timings, are the
acceptance-bearing quantities; timed regions run one method at a time on
a monotonic clock with warm-up runs discarded.
"""

import csv
import json
import statistics
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .core import Direction, NormalizationMode, OpCounter, RicdftError, RicPlan, _size
from .engine import dft_direct, transform
from .ric import compare_values, ric_dft, ric_index_set

COUNT_NOTE = (
    "ric and full count the closed form of the reference engine for each "
    "transform length m: direct counts every twiddle product (m*m mults, "
    "m*(m-1) adds), radix-2 (m a power of two) one mult and two adds per "
    "butterfly, trivial twiddles included; fold counts c*(l-1) adds and no mults"
)
_WARMUP = 1  # discarded runs before each method's timed trials


class ConfigError(RicdftError, ValueError):
    """The benchmark grid or trial configuration is unusable."""


@dataclass
class BenchConfig:
    n_list: tuple = ()
    c_policy: str = "pow2"  # "all" | "pow2" | "explicit"
    c_list: tuple = ()
    trials: int = 9
    seed: int = 0
    direct_limit: int = 1024  # quadratic reference runs only for n <= this


@dataclass(frozen=True)
class BenchRow:
    n: int
    c: int
    l: int
    method: str
    complex_adds: int
    complex_mults: int
    wall_time_ns: int
    trials: int
    max_rel_error: float


@dataclass(frozen=True)
class BenchReport:
    rows: tuple = field(default_factory=tuple)
    seed: int = 0
    trials: int = 0
    note: str = COUNT_NOTE


def _plans_for(n: int, config: BenchConfig) -> list[RicPlan]:
    """The grid's plans at n; RicPlan rejects any c it cannot fold to."""
    if config.c_policy == "explicit":
        if not config.c_list:
            raise ConfigError("c_policy 'explicit' needs a non-empty c_list")
        cs = config.c_list
    elif config.c_policy == "all":
        cs = [c for c in range(2, n // 2 + 1) if n % c == 0]
    elif config.c_policy == "pow2":
        cs = [2 ** p for p in range(1, n.bit_length()) if n % 2 ** p == 0 and 2 ** p <= n // 2]
    else:
        raise ConfigError(f"unknown c_policy {config.c_policy!r}")
    if not cs:
        raise ConfigError(f"n={n} admits no valid compressed length under policy {config.c_policy!r}")
    return sorted((RicPlan(n, c) for c in cs), key=lambda plan: plan.c)


def _timed(fn, trials: int):
    """Run fn(counter) _WARMUP+trials times; return (last output, counts, median ns)."""
    for _ in range(_WARMUP):
        fn(OpCounter())
    times = []
    for _ in range(trials):
        counter = OpCounter()
        t0 = time.perf_counter_ns()
        out = fn(counter)
        times.append(time.perf_counter_ns() - t0)
    return out, counter, int(statistics.median(times))


def run_benchmark(config: BenchConfig) -> BenchReport:
    """Run the grid; deterministic inputs derive from (seed, n)."""
    if not config.n_list:
        raise ConfigError("empty n grid")
    try:  # sizes and the grid follow the plan rule: every bad size, seed or c is a ConfigError
        trials, seed = _size("trials", config.trials, 1), _size("seed", config.seed)
        direct_limit = _size("direct_limit", config.direct_limit)
        grid = {n: _plans_for(n, config) for n in sorted({_size("n", v) for v in config.n_list})}
    except RicdftError as exc:
        raise ConfigError(str(exc)) from None
    rows = []
    for n, plans in grid.items():
        rng = np.random.default_rng((seed, n))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for plan in plans:
            idx = ric_index_set(plan)

            methods = [
                ("ric", lambda ctr: ric_dft(x, plan, NormalizationMode.NONE, ctr).values),
                ("full", lambda ctr: transform(x, Direction.FORWARD, NormalizationMode.NONE, ctr)[idx]),
            ]
            if n <= direct_limit:
                methods.append(
                    ("direct", lambda ctr: dft_direct(x, Direction.FORWARD, NormalizationMode.NONE, ctr)[idx])
                )

            cell = [(name,) + _timed(fn, trials) for name, fn in methods]
            reference_name = "direct" if n <= direct_limit else "full"
            reference = next(out for name, out, _, _ in cell if name == reference_name)
            for name, out, counter, median_ns in cell:
                rows.append(
                    BenchRow(
                        n=n, c=plan.c, l=plan.l, method=name,
                        complex_adds=counter.complex_adds,
                        complex_mults=counter.complex_mults,
                        wall_time_ns=median_ns, trials=trials,
                        max_rel_error=compare_values(out, reference).max_rel_error,
                    )
                )
    rows.sort(key=lambda r: (r.n, r.c, r.method))
    return BenchReport(rows=tuple(rows), seed=seed, trials=trials)


def emit_report(report: BenchReport, path, fmt="csv"):
    """Serialize the report as csv, json or a markdown table."""
    fmt = str(fmt).lower()
    names = [f.name for f in fields(BenchRow)]
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            for row in report.rows:
                d = asdict(row)
                writer.writerow([repr(d[k]) if k == "max_rel_error" else d[k] for k in names])
    elif fmt == "json":
        doc = {
            "seed": report.seed,
            "trials": report.trials,
            "note": report.note,
            "rows": [asdict(r) for r in report.rows],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    elif fmt == "markdown":
        with open(path, "w") as fh:
            fh.write("| " + " | ".join(names) + " |\n")
            fh.write("|" + "|".join(" --- " for _ in names) + "|\n")
            for row in report.rows:
                d = asdict(row)
                fh.write("| " + " | ".join(str(d[k]) for k in names) + " |\n")
            fh.write(f"\nCounting convention: {report.note}\n")
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
