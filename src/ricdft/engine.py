"""Transforms of the compressed sequences.

:func:`transform` is numpy's pocketfft at every length, out of place;
its unscaled core, ``_fft``, runs on the pipeline's c sums in place.  A
direct quadratic DFT/IDFT for any length shares its contract; its row
kernel also gives the oracle its c retained rows.

Twiddle factors come from one table per length M, entry r holding
W_M**(-r) = exp(-2j*pi*r/M); the _TABLES most recently used stay cached.
Exponents stay exact integers and are reduced modulo M before the table
is indexed, so W_M**a == W_M**(a mod M) holds exactly even for huge
exponents.  The direct row kernel splits j = j1 + B*j2 with B = isqrt(M),
as Bailey's four-step FFT (1990) does, but with no inner FFT: per block of
rows it multiplies W_M**(k*j1) by x read as a B x ceil(M/B) matrix in one
BLAS product and reduces each row of that against W_M**(k*B*j2),
2*sqrt(M) table entries a row.  ``_twiddles`` gathers these forward blocks
and the products read them, so a caller may keep a row set's blocks for
later calls (the oracle does, per plan); the inverse conjugates each block
into a fresh array, never in place.  Every
path scales in one epilogue, ``_scaled``, by the :mod:`ricdft.core`
factor at a given length (n for the pipeline and the oracle, whose sums
are c of n rows).

Operation counting conventions: the direct engine counts every twiddle
product (including multiplications by 1, -1, +-j) as one complex
multiplication, M*M in total, plus M*(M-1) complex additions.  A radix-2
FFT counts one complex multiplication and two complex additions per
butterfly, i.e. (M/2)*log2(M) multiplications and M*log2(M) additions;
trivial twiddles are multiplied and counted like any other.
:func:`op_counts` gives, in these closed forms, the count of a length:
radix-2 for a power of two, else direct; :func:`transform` tallies it.
Output scaling applied by a normalization mode is not counted.
"""

import functools
import itertools
import math

import numpy as np

from .core import (Direction, NormalizationMode, OpCounter, _member, _scale, as_complex_sequence,
                   is_power_of_two)

# Twiddle tables kept at once, for the oracle at length n and dft_direct at
# length c in turn; building one is O(M) against the O(M * rows) of the row
# kernel reading it.
_TABLES = 2

# Values of the larger twiddle matrix a block of the direct row kernel
# aims at: 2**13 complex values, 128 KB, so that a block's three such
# matrices stay in L2.
_BLOCK_CELLS = 1 << 13

# Depth of each BLAS product in the row kernel: a threaded OpenBLAS splits a
# deeper one (M = 24,000 at 2 threads, say) where the number of rows decides.
_DEPTH = 128


@functools.lru_cache(maxsize=_TABLES)
def twiddle_table(order: int) -> np.ndarray:
    """Forward twiddle table, read-only: entry r holds exp(-2j*pi*r/order).

    Inverse-direction values are its exact conjugates.
    """
    table = np.exp(-2j * np.pi * np.arange(order) / order)
    table.setflags(write=False)
    return table


def op_counts(m: int) -> tuple[int, int]:
    """(complex_adds, complex_mults) of the reference engine at length m.

    Radix-2 when m is a power of two, (m*log2(m), (m/2)*log2(m)); else
    direct, (m*(m-1), m*m).  Exact integers at any m.
    """
    if is_power_of_two(m):
        stages = m.bit_length() - 1
        return m * stages, (m // 2) * stages
    return m * (m - 1), m * m


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


def _direct_rows(x: np.ndarray, rows: np.ndarray, direction: Direction,
                 twiddles=None) -> np.ndarray:
    """Unscaled sums over j of x[j] * W_M**(-+ k*j) at each row k in ``rows``.

    x is a validated length-M sequence, ``rows`` int64 indices in [0, M)
    and ``direction`` a member; the work is M products per row.
    ``twiddles`` holds the blocks ``_twiddles(M, rows)`` yields, kept from
    an earlier call; None gathers them afresh, one block at a time.

    Row k is the sum over j2 of W_M**(k*B*j2) * (A @ X)[k, j2], where
    A[k, j1] = W_M**(k*j1), B = isqrt(M) and X[j1, j2] = x[j1 + B*j2], x
    zero-padded to B*ceil(M/B) samples.  A row gets the same bits in any
    block of two or more rows: the sum over j2 is a numpy reduction per
    row and A @ X a sum of products of depth _DEPTH (one row would take
    BLAS's vector path, which rounds differently).
    """
    m, b = len(x), math.isqrt(len(x))
    if m % b:
        x = np.concatenate([x, np.zeros(b * -(-m // b) - m, complex)])
    xt = x.reshape(-1, b).T
    inverse = direction is Direction.INVERSE

    def w(block):  # forward twiddles; the inverse's are their conjugates, in a fresh array
        return np.conjugate(block) if inverse else block

    def block_rows(a, v):
        p = sum(w(ad) @ xt[d:d + _DEPTH] for d, ad in zip(range(0, b, _DEPTH), a))
        p *= w(v)
        return p.sum(axis=1)

    # starmap holds no block past its call, so one gathered block is alive at a time
    blocks = _twiddles(m, rows) if twiddles is None else twiddles
    return np.concatenate(list(itertools.starmap(block_rows, blocks)))


def _twiddles(m: int, rows: np.ndarray):
    """Forward twiddle blocks of the row kernel at length m, one block of rows at a time.

    Each block is (the depth slices of W_M**(k*j1), W_M**(k*B*j2)) for its
    rows k, exponents reduced modulo M in integers; a block holds about
    _BLOCK_CELLS values per matrix.  They total ``_twiddle_cells(m, len(rows))``
    and are read-only, so a block kept for later calls cannot change.
    """
    table, b = twiddle_table(m), math.isqrt(m)
    j1, bj2 = np.arange(b, dtype=np.int64), np.arange(0, m, b, dtype=np.int64)

    def gather(exponents):
        block = table[exponents % m]
        block.setflags(write=False)
        return block

    for k in np.array_split(rows[:, None], max(1, len(rows) // max(2, _BLOCK_CELLS // len(bj2)))):
        yield [gather(k * j1[d:d + _DEPTH]) for d in range(0, b, _DEPTH)], gather(k * bj2)


def _twiddle_cells(m: int, rows: int) -> int:
    """Values in all the blocks of ``_twiddles(m, rows)`` for that many rows."""
    b = math.isqrt(m)
    return rows * (b + -(-m // b))


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
    if counter is not None:
        adds, mults = op_counts(len(x))
        counter.add(adds)
        counter.mul(mults)
    return _scaled(_fft(x, direction), direction, mode, len(x))


def _fft(x: np.ndarray, direction: Direction, out: np.ndarray | None = None) -> np.ndarray:
    """Unscaled ``np.fft`` of a checked sequence, into ``out`` (the pipeline's own c sums)."""
    if direction is Direction.FORWARD:
        return np.fft.fft(x, out=out)
    return np.fft.ifft(x, norm="forward", out=out)  # "forward" leaves the inverse unscaled


def _scaled(y: np.ndarray, direction: Direction, mode: NormalizationMode, m: int) -> np.ndarray:
    """y, an array the caller owns, scaled in place by the mode's factor at length m."""
    s = _scale(mode, direction, m)
    if s != 1.0:
        y *= s
    return y
