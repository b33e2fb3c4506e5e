"""
Folding a signal and transforming the fold
==========================================

An 8-point signal is arranged as a 2 x 4 rectangle and its columns are
summed.  The 4-point transform of those column sums equals the 8-point
transform at indices 0, 2, 4, 6: a quarter of the work for the bins that
sit on the retained grid.
"""

import numpy as np

from ricdft import NormalizationMode, OpCounter, dft_direct, fold, make_plan, ric_dft, ric_op_counts

x = np.array([1 + 1j, 2 + 2j, 3 + 3j, -4 - 4j, -5 - 5j, -6 + 6j, 7 - 7j, 8 + 8j])
plan = make_plan(8, 4)
print(f"plan: n={plan.n} = l={plan.l} x c={plan.c}")

# Step 1: the fold. Column c sums x[c] and x[c + 4]; four additions total,
# no multiplications.
counter = OpCounter()
folded = fold(x, plan, counter)
print("column sums:", folded.samples)
print("fold cost:  ", counter)

# Step 2: a 4-point transform of the fold.
spectrum = ric_dft(x, plan, NormalizationMode.NONE)
print("\nretained coefficients (index, value):")
for idx, value in spectrum.entries:
    print(f"  X[{idx}] = {value:.6g}")
# The cost of the whole call follows from the plan: the fold's additions
# plus the radix-2 count of the 4-point transform.
adds, mults = ric_op_counts(plan)
print(f"total cost:  complex_adds={adds}, complex_mults={mults}")

# The same four numbers sit inside the full 8-point transform.
full = dft_direct(x)
print("\nfull 8-point transform at the retained indices:")
print(" ", full[spectrum.indices])
print("max difference:", np.max(np.abs(spectrum.values - full[spectrum.indices])))
