"""
Inverse transforms and normalization corrections
================================================

A c-point engine normalizes by c, but callers folding an n-point spectrum
expect normalization by n = l*c.  The pipeline therefore runs the c-point
transform unscaled and scales once, at length n, as the direct oracle
does.  The two lengths' scales differ by the correction factor K: 1/l when
the inverse carries 1/length, 1/sqrt(l) under the unitary convention, and
1 when nothing is scaled.
"""

import numpy as np

from ricdft import (
    Direction,
    NormalizationMode,
    correction_factor,
    dft_direct,
    fold_spectrum,
    make_plan,
    ric_idft,
    ric_index_set,
)

plan = make_plan(8, 4)
spectrum = np.array([-4 - 4j, -4 + 8j, 10 - 4j, 4 + 4j, 0, 0, 0, 0], dtype=complex)

print("8-point spectrum:", spectrum)
print("column sums:     ", fold_spectrum(spectrum, plan).samples)

# The bare 4-point inverse (1/4 scaling) of the column sums:
bare = dft_direct(fold_spectrum(spectrum, plan).samples,
                  Direction.INVERSE, NormalizationMode.RECIPROCAL_N)
print("\n4-point inverse with its own 1/4 scaling:", bare)

# The caller wanted 1/8 scaling: the bare inverse is off by K = 1/l = 1/2.
# The pipeline never applies 1/4 at all; it scales the unscaled sums by 1/8.
k = correction_factor(NormalizationMode.RECIPROCAL_N, Direction.INVERSE, plan)
print(f"correction factor K = {k}; bare values * K:", bare * k)
result = ric_idft(spectrum, plan, NormalizationMode.RECIPROCAL_N)
print("pipeline values (scaled once by 1/8):", result.values)

# Cross-check against the full 8-point inverse at indices 0, 2, 4, 6.
full = dft_direct(spectrum, Direction.INVERSE, NormalizationMode.RECIPROCAL_N)
print("full inverse there:", full[ric_index_set(plan)])

# The same story for every convention:
print("\nmode        K(forward)  K(inverse)  max error vs full transform")
for mode in NormalizationMode:
    kf = correction_factor(mode, Direction.FORWARD, plan)
    ki = correction_factor(mode, Direction.INVERSE, plan)
    got = ric_idft(spectrum, plan, mode).values
    want = dft_direct(spectrum, Direction.INVERSE, mode)[ric_index_set(plan)]
    err = np.max(np.abs(got - want))
    print(f"{mode.value:<11} {kf:<11.6g} {ki:<11.6g} {err:.3e}")
