"""
Counting the work: folded pipeline vs full-length transforms
============================================================

The fold costs c*(l-1) complex additions and no multiplications, after
which only a c-point transform runs.  Both costs are closed forms in
(n, c), so the table below follows from the plans alone: no signal is
made and nothing is timed.  A transform of length m is counted as its
reference engine: radix-2 when m is a power of two, else direct.
"""

from ricdft import make_plan, op_counts, ric_op_counts

n = 1024
full_adds, full_mults = op_counts(n)
print(f"n={n}: the full transform costs {full_adds} adds, {full_mults} mults")
print(f"{'c':>5} {'l':>5} {'ric adds':>9} {'ric mults':>10} {'mults saved':>12}")
for p in range(1, 10):
    plan = make_plan(n, 2 ** p)
    adds, mults = ric_op_counts(plan)
    print(f"{plan.c:>5} {plan.l:>5} {adds:>9} {mults:>10} {full_mults // mults:>11}x")

# Multiplications come only from the c-point transform, so their count
# grows with c; pick the smallest c whose retained grid covers your needs.
# The square plan l = c = 32 sits in the middle:
square = make_plan(n, 32)
print(f"\nsquare plan c=l=32: {ric_op_counts(square)[1]} mults"
      f" vs {full_mults} for the full transform")

# A length with odd factors counts as the direct engine: at n = 24000,
# c = 3000 the fold leaves a 3000-point transform instead of a 24000-point one.
plan = make_plan(24000, 3000)
print(f"n=24000, c=3000: {ric_op_counts(plan)[1]} mults vs {op_counts(24000)[1]}")

# The same table, as csv, from the command line:
#   ricdft bench --n-list 1024            (every power-of-two c in [2, n/2])
#   ricdft bench --n-list 24000 --c-list 3000
