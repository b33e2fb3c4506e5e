"""Transform engines for the compressed sequences.

Two engines share one contract: a direct quadratic DFT/IDFT that serves as
the correctness reference for any length, and a self-sorting radix-2 FFT
for power-of-two lengths.  :func:`transform` dispatches between them.

Twiddle factors come from one cached table per length M, entry r holding
W_M**(-r) = exp(-2j*pi*r/M).  Exponents are reduced modulo M in integer
arithmetic before the table is indexed, so W_M**a == W_M**(a mod M) holds
exactly even for huge exponents.  Output scaling follows the rule in
:mod:`ricdft.core` that also gives the pipeline's correction factor.

The radix-2 engine is the self-sorting (Stockham) decimation-in-time
form: column j of its R x K work array holds the R-point transform of
x[j::K], so the output comes out in natural order with no bit-reversal
pass.  A 2R-point stage's twiddles W_2R**(-j) are W_M**(-j*K/2), the
length-M table read at stride K/2: the twiddle collapse the fold rests on,
with a power-of-two stride, so they equal the length-2R table bit for bit.

Operation counting conventions: the direct engine counts every twiddle
product (including multiplications by 1, -1, +-j) as one complex
multiplication, M*M in total, plus M*(M-1) complex additions.  The radix-2
engine counts one complex multiplication and two complex additions per
butterfly, i.e. (M/2)*log2(M) multiplications and M*log2(M) additions;
trivial twiddles are multiplied and counted like any other.  Output
scaling applied by a normalization mode is not counted.
"""

import numpy as np

from .core import (
    Direction,
    NormalizationMode,
    NotPowerOfTwoError,
    OpCounter,
    _member,
    _scale,
    as_complex_sequence,
    is_power_of_two,
)

__all__ = [
    "Direction",
    "twiddle_table",
    "dft_direct",
    "fft_radix2",
    "transform",
]


# Per-length tables of W_M**(-r) for r = 0..M-1, built once and then
# read-shared.  Inverse-direction values are exact conjugates.
_tables: dict[int, np.ndarray] = {}


def twiddle_table(order: int) -> np.ndarray:
    """Forward twiddle table: entry r holds exp(-2j*pi*r/order)."""
    table = _tables.get(order)
    if table is None:
        table = np.exp(-2j * np.pi * np.arange(order) / order)
        table.setflags(write=False)
        _tables[order] = table
    return table


def dft_direct(
    x,
    direction: Direction = Direction.FORWARD,
    mode: NormalizationMode = NormalizationMode.NONE,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Direct evaluation of the transform definition, O(M**2).

    output[k] = scale * sum over n of x[n] * W_M**(-+ k*n), with the sign
    chosen by ``direction`` and the scale by ``mode``.  Valid for any
    length; this is the reference the fast paths are checked against.
    ``direction`` and ``mode`` take a member or its string value.
    """
    x = as_complex_sequence(x)
    direction, mode = _member(Direction, direction), _member(NormalizationMode, mode)
    m = len(x)
    table = twiddle_table(m)
    if direction is Direction.INVERSE:
        table = table.conj()
    out = np.empty(m, dtype=np.complex128)
    n_idx = np.arange(m, dtype=np.int64)
    chunk = max(1, (1 << 21) // m)  # bound the k*n index block to ~16 MB
    for k0 in range(0, m, chunk):
        k_idx = np.arange(k0, min(k0 + chunk, m), dtype=np.int64)
        out[k0 : k0 + len(k_idx)] = table[(k_idx[:, None] * n_idx) % m] @ x
    if counter is not None:
        counter.mul(m * m)
        counter.add(m * (m - 1))
    s = _scale(mode, direction, m)
    if s != 1.0:
        out *= s
    return out


def fft_radix2(
    x,
    direction: Direction = Direction.FORWARD,
    mode: NormalizationMode = NormalizationMode.NONE,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Self-sorting decimation-in-time radix-2 FFT for power-of-two lengths.

    Matches :func:`dft_direct` on the same inputs up to roundoff.  The
    output is a new array; x is never written.
    """
    x = as_complex_sequence(x)
    direction, mode = _member(Direction, direction), _member(NormalizationMode, mode)
    m = len(x)
    if not is_power_of_two(m):
        raise NotPowerOfTwoError(f"length {m} is not a power of two")
    table = twiddle_table(m)
    if direction is Direction.INVERSE:
        table = table.conj()
    y = x.reshape(1, m)
    while y.shape[0] < m:
        rows, half = y.shape[0], y.shape[1] // 2
        even = y[:, :half]
        odd = y[:, half:] * table[::half][:rows, None]
        y = np.concatenate([even + odd, even - odd])
        if counter is not None:
            counter.mul(m // 2)
            counter.add(m)
    y = y.reshape(m)
    if m == 1:
        y = y.copy()  # no stage ran, so y is still a view of x
    s = _scale(mode, direction, m)
    if s != 1.0:
        y *= s
    return y


def transform(
    x,
    direction: Direction = Direction.FORWARD,
    mode: NormalizationMode = NormalizationMode.NONE,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Dispatch to the radix-2 engine for power-of-two lengths, else direct.

    The engine validates x.
    """
    try:
        m = np.size(x)
    except ValueError:  # ragged: the direct engine raises SequenceError
        m = 0
    if is_power_of_two(m):
        return fft_radix2(x, direction, mode, counter)
    return dft_direct(x, direction, mode, counter)
