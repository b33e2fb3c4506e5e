"""Transforms of the compressed sequences.

:func:`transform` is numpy's pocketfft at every length, out of place;
its unscaled core, ``_fft``, runs on the pipeline's c sums in place.
:func:`dft_direct`, the definition at any length, shares its contract.

Twiddle factors come from one table per length m, entry r holding
W_m**(-r) = exp(-2j*pi*r/m); the _TABLES most recently used stay
cached.  Exponents stay exact integers, reduced modulo m before the
table is indexed, so W_m**a == W_m**(a mod m) holds exactly even for
huge exponents.  The direct row kernel, which also gives the oracle its
c rows, serves the rows k = step*q: it splits j = j1 + B*j2 for m = B*M
as Bailey's four-step FFT (1990) does, but sums over j2 once per residue
k mod M, then over j1 per row, as output-pruned DFTs do (Sorensen &
Burrus, 1993): c rows on P residues take m*P + c*B products, not m*c.
``_twiddles`` alone decides its layout and keep size and returns them
with the blocks.  Every path scales once, in ``_scaled``.

Operation counting conventions: the direct engine counts the definition,
every twiddle product (including multiplications by 1, -1, +-j) as one
complex multiplication, M*M in total, plus M*(M-1) complex additions.  A
radix-2 FFT counts one complex multiplication and two complex additions
per butterfly, i.e. (M/2)*log2(M) multiplications and M*log2(M)
additions; trivial twiddles are multiplied and counted like any other.
:func:`op_counts` gives, in these closed forms, the count of a length:
radix-2 for a power of two, else direct; :func:`transform` tallies it.
Output scaling applied by a normalization mode is not counted.
"""

import collections
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

# Values up to which a row set's twiddle blocks come back materialized, for a
# caller to keep (1 MiB): gathering them is most of an oracle call at n = 4096.
_KEPT_CELLS = 1 << 16

# Depth of each BLAS product in the row kernel: a threaded OpenBLAS splits a
# deeper one where the number of rows decides, which changes a row's bits.
_DEPTH = 128


@functools.lru_cache(maxsize=_TABLES)
def twiddle_table(order: int) -> np.ndarray:
    """Forward twiddle table, read-only: entry r holds exp(-2j*pi*r/order).

    Inverse-direction values are its exact conjugates.
    """
    return _read_only(np.exp(-2j * np.pi * np.arange(order) / order))


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, flagged read-only: no cached table or kept twiddle block can change."""
    a.setflags(write=False)
    return a


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
    direction, mode, m = _member(Direction, direction), _member(NormalizationMode, mode), len(x)
    if counter is not None:
        counter.mul(m * m)
        counter.add(m * (m - 1))
    return _scaled(_direct_rows(x, direction, _twiddles(m, 1)), direction, mode, m)


# What _twiddles returns: B, Y's rows max(2, P), the c outputs as (c/P, P), values held, reusable, blocks
_RowBlocks = collections.namedtuple("_RowBlocks", "b residues rows values reusable per_residue per_row")


def _direct_rows(x: np.ndarray, direction: Direction, blocks: _RowBlocks) -> np.ndarray:
    """Unscaled sums over j of x[j] * W_m**(-+ k*j) at the rows k = step*q that ``blocks`` serves.

    x is a validated length-m sequence, ``direction`` a member and ``blocks``
    what ``_twiddles(m, step)`` returned, kept or fresh; it alone gives the
    geometry.  With m = B*M and j = j1 + B*j2, row k is the sum over j1 of
    W_m**(k*j1) * Y[k mod M, j1], Y[r, j1] the sum over j2 of W_M**(r*j2) *
    x[j1 + B*j2].  A row gets the same bits at any step: Y comes from BLAS
    products of depth _DEPTH over two or more residues (one takes BLAS's
    vector path, which rounds differently), summed in depth order, and each
    row's sum over j1 is a dot product of its own.
    """
    xt, inverse = x.reshape(-1, blocks.b), direction is Direction.INVERSE  # xt[j2, j1] = x[j1 + B*j2]
    # Y, and the rows q = P*i + p at out[i, p], each written once into its own buffer
    y, out = np.empty((blocks.residues, blocks.b), complex), np.empty(blocks.rows, complex)
    for r, ts in blocks.per_residue:  # one gathered depth slice alive at a time
        products = ((t.conj() if inverse else t) @ xt[d] for d, t in ts)
        y[r] = functools.reduce(lambda total, product: np.add(total, product, out=total), products)
    # vecdot(a, v) sums conj(a)*v: the inverse reads the forward row blocks as
    # they are, and the forward takes conj(vecdot(a, conj(Y)))
    y = y if inverse else np.conjugate(y, out=y)
    for a, (i, p) in blocks.per_row:
        np.vecdot(a, y[p], out=out[i, p])
    return out.reshape(-1) if inverse else np.conjugate(out, out=out).reshape(-1)


def _twiddles(m: int, step: int) -> _RowBlocks:
    """The row kernel's forward twiddle blocks at length m for the rows k = step*q, q < c.

    m = B*M with B the largest divisor of m not above isqrt(m).  The rows'
    residues k mod M repeat with the period P = M/gcd(step, M); Y's row p is
    the residue step*p mod M that place p of each period reads (at least two
    rows).  ``per_residue`` gives, per chunk r of Y's rows, its depth slices
    (d, W_m**(r*B*j2) for j2 in d); ``per_row`` gives blocks W_m**(k*j1) with
    the (periods, places) of their rows, shaped (periods, P, B) when whole
    periods fit, else (1, h, B).  It alone decides the layout and keep size:
    a row set of at most _KEPT_CELLS values comes back materialized and
    ``reusable``, its rows one block, a larger one lazily, in blocks of about
    _BLOCK_CELLS values.  Every block is read-only.
    """
    b = next(d for d in range(math.isqrt(m), 0, -1) if m % d == 0)
    table, mm, c = twiddle_table(m), m // b, m // step
    period = mm // math.gcd(step, mm)
    residues = max(2, period)  # one would go to BLAS's gemv; at P = 1, M divides step
    values = c * b + mm * residues
    cells = _KEPT_CELLS if (reusable := values <= _KEPT_CELLS) else _BLOCK_CELLS

    def gather(exponents):
        return _read_only(table[exponents % m])

    def depth_slices(p):  # exponents (step*p mod M)*B*j2 a slice at a time: no M-point array is held
        return ((slice(d, d + _DEPTH), gather(p * step % mm * b * np.arange(d, min(d + _DEPTH, mm))))
                for d in range(0, mm, _DEPTH))

    chunks = max(1, residues // max(2, _BLOCK_CELLS // max(_DEPTH, b)))  # two or more rows of Y
    per_residue = ((slice(p[0], p[-1] + 1), depth_slices(p[:, None]))
                   for p in np.array_split(np.arange(residues), chunks))
    # row k = ki[i] + kp[p] at period i and place p: no c-point array is held
    ki, kp = np.arange(0, m, step * period)[:, None, None], np.arange(0, step * period, step)[:, None]
    t, h = max(1, cells // (period * b)), min(period, max(1, cells // b))  # periods, places of a block
    per_row = ((gather((ki[i:i + t] + kp[p:p + h]) * np.arange(b)), (slice(i, i + t), slice(p, p + h)))
               for i in range(0, c // period, t) for p in range(0, period, h))
    if reusable:
        per_residue, per_row = tuple((r, tuple(ts)) for r, ts in per_residue), tuple(per_row)
    return _RowBlocks(b, residues, (c // period, period), values, reusable, per_residue, per_row)


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
