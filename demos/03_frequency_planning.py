"""
Planning signal parameters around target frequencies
====================================================

Folding only preserves bins whose index is a multiple of l = n/c, so a
measurement has to be set up so the frequencies of interest land on that
grid.  Retained bin k sits at k*fs/c whatever n is, so given a sample
rate and targets the planner returns the smallest c whose retained bins
hit every target (the c-point transform dominates the cost) with the
shortest length that folds to it, n = 2c.
"""

from ricdft import InfeasibleError, coverage_report, plan_for_frequencies

# Harmonic analysis setup: 800 Hz sampling, fundamental at 100 Hz plus
# two harmonics.
proposal = plan_for_frequencies(800.0, [100.0, 200.0, 300.0], max_n=64)
plan = proposal.plan
print(f"chosen plan: n={plan.n}, c={plan.c}, l={plan.l}")
print(f"bin width:   {proposal.bin_width} Hz")
print("target  ->  retained bin  (achieved, rel error)")
for a in proposal.assignments:
    print(f"{a.target:7.1f} Hz  bin {a.bin_index:<3d}      ({a.achieved} Hz, {a.rel_error})")

# Where would other frequencies fall on this grid?
print("\ncoverage of unplanned frequencies:")
for row in coverage_report(proposal, [150.0, 250.0, 320.0]):
    print(f"{row.target:7.1f} Hz  -> bin {row.bin_index:<3d} at {row.achieved} Hz"
          f" (rel error {row.rel_error:.4f})")

# A frequency with an irrational ratio to the sample rate can never hit a
# bin exactly; the planner reports the best it could do.
try:
    plan_for_frequencies(800.0, [100.0 * 2 ** 0.5], max_n=64)
except InfeasibleError as exc:
    print(f"\ninfeasible example: {exc}")

# Relaxing the tolerance (or searching non-power-of-two lengths) opens up
# more grids.
proposal = plan_for_frequencies(800.0, [100.0 * 2 ** 0.5], max_n=4096, tol=0.01)
a = proposal.assignments[0]
print(f"with tol=1%: n={proposal.plan.n}, c={proposal.plan.c},"
      f" achieved {a.achieved:.2f} Hz (rel error {a.rel_error:.4f})")
