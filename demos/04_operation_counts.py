"""
Counting the work: folded pipeline vs full-length transforms
============================================================

The fold costs c*(l-1) complex additions and no multiplications, after
which only a c-point transform runs.  The benchmark harness pits that
against the full n-point transform (then selecting the retained indices)
and records exact operation counts plus median wall times.

Counts are deterministic; timings depend on the machine.
"""

import tempfile
from pathlib import Path

from ricdft import BenchConfig, emit_report, run_benchmark

config = BenchConfig(n_list=(1024,), c_policy="pow2", trials=9, seed=42)
report = run_benchmark(config)

print(f"n=1024, seed={report.seed}, trials={report.trials}")
print(f"{'c':>5} {'method':>7} {'adds':>9} {'mults':>9} {'median us':>10} {'rel err':>9}")
for row in report.rows:
    if row.method == "direct":
        continue
    print(f"{row.c:>5} {row.method:>7} {row.complex_adds:>9} {row.complex_mults:>9}"
          f" {row.wall_time_ns / 1000:>10.1f} {row.max_rel_error:>9.1e}")

# Multiplications come only from the c-point transform, so their count
# grows with c; pick the smallest c whose retained grid covers your needs.
# Wall time follows the count only loosely at this n: the fold is two
# vectorized passes for every c, so per-call overhead weighs as much as
# the additions.  The square plan l = c = 32 sits in the middle:
ric_rows = {r.c: r for r in report.rows if r.method == "ric"}
full_mults = next(r.complex_mults for r in report.rows if r.method == "full")
square = ric_rows[32]
print(f"\nsquare plan c=l=32: {square.complex_mults} mults"
      f" vs {full_mults} for the full transform"
      f" ({full_mults // square.complex_mults}x fewer)")

# Reports serialize as csv, json or a markdown table.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "bench_1024.md"
    emit_report(report, path, "markdown")
    lines = path.read_text().splitlines()
print(f"markdown report: {len(lines)} lines, header {lines[0]}")
