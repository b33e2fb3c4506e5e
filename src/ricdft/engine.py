"""Transforms of the compressed sequences.

:func:`transform` is numpy's pocketfft at every length, out of place;
its unscaled core, ``_fft``, runs on the pipeline's c sums in place.  A
direct DFT/IDFT by the definition for any length shares its contract; its
row kernel also gives the oracle its c retained rows.

Twiddle factors come from one table per length m, entry r holding
W_m**(-r) = exp(-2j*pi*r/m); the _TABLES most recently used stay cached
(a verify reads one, of length n).
Exponents stay exact integers and are reduced modulo m before the table
is indexed, so W_m**a == W_m**(a mod m) holds exactly even for huge
exponents.  The direct row kernel splits j = j1 + B*j2 for m = B*M as
Bailey's four-step FFT (1990) does, but sums over j2 first, once per
residue k mod M of the rows, and then over j1 per row, as output-pruned
DFTs do (Sorensen & Burrus, 1993): c rows on R residues take m*R + c*B
products, not m*c.  ``_twiddles`` gathers the forward blocks it reads
and counts their values, so a caller may keep them (the oracle does, per
plan, when they are few); the inverse never conjugates one in place.
Every path scales in one epilogue, ``_scaled``, by the :mod:`ricdft.core`
factor at a given length (n for the pipeline and the oracle, whose sums
are c of n rows).

Operation counting conventions: the direct engine counts the definition,
every twiddle product (including multiplications by 1, -1, +-j) as one
complex multiplication, M*M in total, plus M*(M-1) complex additions, a
convention and not the row kernel's work.  A radix-2 FFT counts one
complex multiplication and two complex additions per butterfly, i.e.
(M/2)*log2(M) multiplications and M*log2(M) additions; trivial twiddles
are multiplied and counted like any other.  :func:`op_counts` gives, in
these closed forms, the count of a length: radix-2 for a power of two,
else direct; :func:`transform` tallies it.
Output scaling applied by a normalization mode is not counted.
"""

import functools
import math

import numpy as np

from .core import (Direction, NormalizationMode, OpCounter, _member, _scale, as_complex_sequence,
                   is_power_of_two)

# Twiddle tables kept at once.  A verify reads one, of length n; nothing in
# the package reads a second, which serves a caller alternating two lengths,
# such as dft_direct at one and the oracle at another.  Building a table is
# O(M) against the O(M * rows) of the row kernel reading it.
_TABLES = 2

# Values a twiddle block of the direct row kernel aims at: 2**13 complex
# values, 128 KB, so that a block and the temporaries it meets stay in L2.
_BLOCK_CELLS = 1 << 13

# Depth of each BLAS product in the row kernel: a threaded OpenBLAS splits a
# deeper one where the number of rows decides, which changes a row's bits.
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
    """Direct evaluation of the transform definition at every row.

    output[k] = scale * sum over n of x[n] * W_M**(-+ k*n), with the sign
    chosen by ``direction`` and the scale by ``mode``.  Valid for any
    length; this is the reference the fast paths are checked against.
    The row kernel takes M*(M/B + B) products for M = B*(M/B); ``counter``
    still tallies the definition's M*(M-1) additions and M*M multiplications,
    a convention and not the kernel's work.
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
    """Unscaled sums over j of x[j] * W_m**(-+ k*j) at each row k in ``rows``.

    x is a validated length-m sequence, ``rows`` int64 indices in [0, m)
    and ``direction`` a member; ``twiddles`` is the pair of blocks
    ``_twiddles(m, rows)`` returned, kept or fresh, or None to gather them
    here (then ``rows`` is read, else never).

    With m = B*M as ``_split`` gives it and j = j1 + B*j2, row k is the sum
    over j1 of W_m**(k*j1) * Y[k mod M, j1], Y[r, j1] the sum over j2 of
    W_M**(r*j2) * x[j1 + B*j2].  A row gets the same bits in any row set: Y
    comes from BLAS products of depth _DEPTH over two or more residues (one
    would take BLAS's vector path, which rounds differently), and each
    row's sum over j1 is a dot product of its own.
    """
    xt = x.reshape(-1, _split(len(x))[0])  # xt[j2, j1] = x[j1 + B*j2]
    inverse = direction is Direction.INVERSE
    per_residue, per_row = _twiddles(len(x), rows)[:2] if twiddles is None else twiddles
    # a comprehension holds no gathered block past its use, so one is alive at a time
    y = np.concatenate([sum((np.conjugate(t) if inverse else t) @ xt[d:d + _DEPTH]
                            for d, t in zip(range(0, len(xt), _DEPTH), ts)) for ts in per_residue])
    # vecdot(a, v) sums conj(a)*v: the inverse reads the forward row blocks as
    # they are, and the forward takes conj(vecdot(a, conj(Y)))
    y = y if inverse else np.conjugate(y, out=y)
    out = np.concatenate([np.vecdot(a, y[which]) for a, which in per_row])
    return out if inverse else np.conjugate(out, out=out)


def _split(m: int) -> tuple[int, int]:
    """(B, M) with m = B*M, B the largest divisor of m not above isqrt(m)."""
    b = next(d for d in range(math.isqrt(m), 0, -1) if m % d == 0)
    return b, m // b


def _twiddles(m: int, rows: np.ndarray):
    """Forward twiddle blocks of the row kernel at length m: (per residue, per row, values).

    The first yields per chunk of the rows' residues r = k mod M (two or
    more, repeated if need be) its depth slices of W_m**(r*B*j2), lazily;
    the second per block of rows k W_m**(k*j1) and each row's residue index.
    Exponents are reduced modulo m in integers; a slice, a block and a
    chunk's product hold about _BLOCK_CELLS values, and all are read-only,
    so none kept can change.  ``values`` counts what the blocks hold,
    c*B + M*R for c rows on R residues, before any is gathered.
    """
    table, (b, mm) = twiddle_table(m), _split(m)
    residues = sorted(set((rows % mm).tolist()))  # np.unique's first call maps 1.7 MiB (numpy 2.4)
    residues = np.resize(residues, max(2, len(residues)))  # repeated: BLAS's vector path rounds apart
    which = np.searchsorted(residues, rows % mm)

    def gather(exponents):
        block = table[exponents % m]
        block.setflags(write=False)
        return block

    def depth_slices(r):  # exponents r*B*j2 a slice at a time: no M-point array is held
        return (gather(r * np.arange(b * d, b * min(d + _DEPTH, mm), b)) for d in range(0, mm, _DEPTH))

    chunks = max(1, len(residues) // max(2, _BLOCK_CELLS // max(_DEPTH, b)))  # two or more residues
    per_residue = map(depth_slices, np.array_split(residues[:, None], chunks))
    j1, sections = np.arange(b, dtype=np.int64), max(1, len(rows) * b // _BLOCK_CELLS)
    per_row = ((gather(k * j1), i) for k, i in zip(np.array_split(rows[:, None], sections),
                                                   np.array_split(which, sections)))
    return per_residue, per_row, len(rows) * b + mm * len(residues)


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
