"""Transforms of the compressed sequences.

:func:`transform` is numpy's pocketfft at every length; its unscaled
core, ``_fft``, is what the pipeline runs on the c sums.  Two hand-written
engines share its contract and stay as the counted references the tests
compare against: a direct quadratic DFT/IDFT for any length, whose row
kernel also gives the oracle its c retained rows, and a self-sorting
radix-2 FFT for power-of-two lengths.

Twiddle factors come from one cached table per length M, entry r holding
W_M**(-r) = exp(-2j*pi*r/M).  Exponents stay exact integers and are
reduced modulo M before the table is indexed, so W_M**a == W_M**(a mod M)
holds exactly even for huge exponents.  The direct row kernel splits
j = j1 + B*j2 with B = isqrt(M), as Bailey's four-step FFT (1990) does,
but with no inner FFT: per block of rows it multiplies W_M**(k*j1) by x
read as a B x ceil(M/B) matrix in one BLAS product and reduces each row
of that against W_M**(k*B*j2), 2*sqrt(M) table entries a row.  Every
path scales in one epilogue, ``_scaled``, by the :mod:`ricdft.core`
factor at a given length (n for the pipeline and the oracle, whose sums
are c of n rows).

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
trivial twiddles are multiplied and counted like any other.
:func:`transform` tallies, in these closed forms, the reference engine of
its length: radix-2 for a power of two, else direct.  Output scaling
applied by a normalization mode is not counted.
"""

import math

import numpy as np

from .core import (Direction, NormalizationMode, NotPowerOfTwoError, OpCounter, _member, _scale,
                   as_complex_sequence, is_power_of_two)

# Per-length tables of W_M**(-r) for r = 0..M-1, built once and then
# read-shared.  Inverse-direction values are exact conjugates.
_tables: dict[int, np.ndarray] = {}

# Values of the larger twiddle matrix a block of the direct row kernel
# aims at: 2**13 complex values, 128 KB, so that a block's three such
# matrices stay in L2.
_BLOCK_CELLS = 1 << 13

# Depth of each BLAS product in the row kernel: a threaded OpenBLAS splits a
# deeper one (M = 24,000 at 2 threads, say) where the number of rows decides.
_DEPTH = 128


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
    out = _direct_rows(x, np.arange(m, dtype=np.int64), direction)
    if counter is not None:
        counter.mul(m * m)
        counter.add(m * (m - 1))
    return _scaled(out, direction, mode, m)


def _direct_rows(x: np.ndarray, rows: np.ndarray, direction: Direction) -> np.ndarray:
    """Unscaled sums over j of x[j] * W_M**(-+ k*j) at each row k in ``rows``.

    x is a validated length-M sequence, ``rows`` int64 indices in [0, M)
    and ``direction`` a member; the work is M products per row.

    Row k is the sum over j2 of W_M**(k*B*j2) * (A @ X)[k, j2], where
    A[k, j1] = W_M**(k*j1), B = isqrt(M) and X[j1, j2] = x[j1 + B*j2], x
    zero-padded to B*ceil(M/B) samples; exponents are reduced modulo M in
    integers.  A row gets the same bits in any block of two or more rows:
    the sum over j2 is a numpy reduction per row and A @ X a sum of
    products of depth _DEPTH (one row would take BLAS's vector path, which
    rounds differently).
    """
    m = len(x)
    table = twiddle_table(m)
    if direction is Direction.INVERSE:
        table = table.conj()
    b = math.isqrt(m)
    j1, bj2 = np.arange(b, dtype=np.int64), np.arange(0, m, b, dtype=np.int64)
    if m % b:
        x = np.concatenate([x, np.zeros(b * len(bj2) - m, complex)])
    xt = x.reshape(-1, b).T
    blocks = np.array_split(rows[:, None], max(1, len(rows) // max(2, _BLOCK_CELLS // len(bj2))))
    out = []
    for k in blocks:
        p = sum(table[(k * j1[d:d + _DEPTH]) % m] @ xt[d:d + _DEPTH] for d in range(0, b, _DEPTH))
        p *= table[(k * bj2) % m]
        out.append(p.sum(axis=1))
    return np.concatenate(out)


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
    return _scaled(y, direction, mode, m)


def transform(
    x,
    direction: Direction = Direction.FORWARD,
    mode: NormalizationMode = NormalizationMode.NONE,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """The transform at any length by ``np.fft``, scaled like the engines.

    Matches :func:`dft_direct` on the same inputs up to roundoff.
    """
    x = as_complex_sequence(x)
    direction, mode = _member(Direction, direction), _member(NormalizationMode, mode)
    return _scaled(_fft(x, direction, counter), direction, mode, len(x))


def _fft(x: np.ndarray, direction: Direction, counter: OpCounter | None) -> np.ndarray:
    """Unscaled ``np.fft`` of a checked sequence, tallying its reference engine's closed form."""
    m = len(x)
    if direction is Direction.FORWARD:
        y = np.fft.fft(x)
    else:
        y = np.fft.ifft(x, norm="forward")  # "forward" leaves the inverse unscaled
    if counter is not None:
        pow2, stages = is_power_of_two(m), m.bit_length() - 1
        counter.mul((m // 2) * stages if pow2 else m * m)
        counter.add(m * stages if pow2 else m * (m - 1))
    return y


def _scaled(y: np.ndarray, direction: Direction, mode: NormalizationMode, m: int) -> np.ndarray:
    """y, a fresh array, scaled in place by the mode's factor at length m."""
    s = _scale(mode, direction, m)
    if s != 1.0:
        y *= s
    return y
