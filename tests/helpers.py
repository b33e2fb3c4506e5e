"""Independent references shared by the test modules.

The brute-force references are deliberately written with plain Python
loops and cmath so they exercise none of the library's vectorized code
paths.  ``fft_radix2`` is the one vectorized reference: a counted radix-2
FFT that pins the library's closed-form ``op_counts`` for powers of two.
"""

import cmath

import numpy as np

from ricdft.core import (Direction, NormalizationMode, RicPlan, _member, _tally, as_complex_sequence,
                         is_power_of_two)
from ricdft.engine import _scaled

# The worked 8-point example used across modules and its hand-checked results.
GOLDEN_X = np.array(
    [1 + 1j, 2 + 2j, 3 + 3j, -4 - 4j, -5 - 5j, -6 + 6j, 7 - 7j, 8 + 8j],
    dtype=np.complex128,
)
GOLDEN_FOLD = np.array([-4 - 4j, -4 + 8j, 10 - 4j, 4 + 4j], dtype=np.complex128)
GOLDEN_FORWARD = np.array([6 + 4j, -10 + 8j, 6 - 20j, -18 - 8j], dtype=np.complex128)
GOLDEN_INVERSE_C = np.array([1.5 + 1j, -4.5 - 2j, 1.5 - 5j, -2.5 + 2j], dtype=np.complex128)
GOLDEN_INVERSE_N = np.array([0.75 + 0.5j, -2.25 - 1j, 0.75 - 2.5j, -1.25 + 1j], dtype=np.complex128)


def naive_dft(x, sign=-1, scale=1.0, rows=None):
    """Textbook double-loop DFT: out[k] = scale * sum x[n] e^{sign 2pi j k n / N}.

    At each k in ``rows`` (all N by default); k*n is reduced mod N in
    integers, so the angle stays below 2pi at any N.
    """
    n = len(x)
    out = []
    for k in range(n) if rows is None else rows:
        acc = 0j
        for i in range(n):
            acc += complex(x[i]) * cmath.exp(sign * 2j * cmath.pi * (int(k) * i % n) / n)
        out.append(acc * scale)
    return np.array(out, dtype=np.complex128)


def naive_fold(x, n, c):
    """Column sums of the l x c arrangement, accumulated with Python complex."""
    l = n // c
    out = [0j] * c
    for col in range(c):
        for row in range(l):
            out[col] += complex(x[row * c + col])
    return np.array(out, dtype=np.complex128)


def divisor_pairs(n):
    """All valid (c, l) factorizations with 2 <= c <= n/2."""
    return [(c, n // c) for c in range(2, n // 2 + 1) if n % c == 0]


def random_case(case):
    """A generator seeded by ``case``, a plan with c in [2, 60] and l in [2, 40], and an input."""
    rng = np.random.default_rng(case)
    c, l = int(rng.integers(2, 61)), int(rng.integers(2, 41))
    plan = RicPlan(c * l, c)
    return rng, plan, random_complex(rng, plan.n)


def random_complex(rng, n, integer=False):
    if integer:
        return rng.integers(-9, 10, n).astype(np.complex128) + 1j * rng.integers(-9, 10, n)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def plan_is_feasible(n, c, sample_rate, targets, tol):
    """Linear scan over every retained bin; no rounding shortcuts.

    Retained bin k*l sits at exactly k*l*fs/n Hz, rounded once to float:
    with fs = num/den exactly, that is the int quotient (k*l*num)/(den*n),
    which Python rounds correctly.
    """
    l = n // c
    num, den = float(sample_rate).as_integer_ratio()
    for t in targets:
        best = min(abs((k * l * num) / (den * n) - t) for k in range(c))
        if best > tol * t:
            return False
    return True


def exhaustive_best_plan(sample_rate, targets, max_n, power_of_two_only, tol):
    """Minimal (c, n) over every valid divisor pair, or None when nothing fits."""
    best = None
    for n in range(4, max_n + 1):
        if power_of_two_only and n & (n - 1):
            continue
        for c in range(2, n // 2 + 1):
            if n % c:
                continue
            if plan_is_feasible(n, c, sample_rate, targets, tol):
                if best is None or (c, n) < best:
                    best = (c, n)
    return best


def fft_radix2(x, direction=Direction.FORWARD, mode=NormalizationMode.NONE, counter=None):
    """Counted self-sorting decimation-in-time radix-2 FFT, scaled like the engines.

    Column j of its R x K work array holds the R-point transform of x[j::K],
    so the output comes out in natural order with no bit-reversal pass (the
    Stockham form).  A 2R-point stage reads its twiddles W_2R**(-j) from the
    length-m table at stride K/2.  Each butterfly counts one complex
    multiplication and two additions, trivial twiddles included.  Builds its
    own table, so it reads none of the library's cached ones; the output is
    a new array and x is never written.  ValueError unless len(x) is a power
    of two.
    """
    x = as_complex_sequence(x)
    direction, mode = _member(Direction, direction), _member(NormalizationMode, mode)
    m = len(x)
    if not is_power_of_two(m):
        raise ValueError(f"length {m} is not a power of two")
    table = np.exp(-2j * np.pi * np.arange(m) / m)
    if direction is Direction.INVERSE:
        table = table.conj()
    y = x.reshape(1, m)
    while y.shape[0] < m:
        rows, half = y.shape[0], y.shape[1] // 2
        even = y[:, :half]
        odd = y[:, half:] * table[::half][:rows, None]
        y = np.concatenate([even + odd, even - odd])
        _tally(counter, (m, m // 2))
    y = y.reshape(m)
    if m == 1:
        y = y.copy()  # no stage ran, so y is still a view of x
    return _scaled(y, direction, mode, m)
