"""Transforms of the compressed sequences.

:func:`transform` is numpy's pocketfft at every length, out of place;
its unscaled core, ``_fft``, runs on the pipeline's c sums in place.
:func:`dft_direct`, the definition at any length, shares its contract:
finite values, or SequenceError for input beyond float64, never a warning.

Twiddle factors come from one table per length m, entry r holding
W_m**(-r) = exp(-2j*pi*r/m); the _TABLES most recently used stay
cached.  Exponents stay exact integers, reduced modulo m before the
table is indexed, so W_m**a == W_m**(a mod m) holds exactly even for
huge exponents.  The direct row kernel, which also gives the oracle its
rows k = step*q, splits j = j1 + B*j2 and k = r + M*t for m = B*M as
Bailey's four-step FFT (1990) does, a B-point DFT matrix, read from the
same table, in place of its inner FFTs, and forms only the P residues k
mod M of its rows, as output-pruned DFTs do (Sorensen & Burrus, 1993):
m*P + P*B*B products, not m*c.  ``_direct_rows`` states its stages and
when a row's bits repeat, ``_twiddles`` its layout and keep size, and
:func:`op_counts` the counting convention.  Every path scales once, in
``_scaled``.
"""

import collections
import functools
import math

import numpy as np

try:  # numpy-private, by the package's rule: missing, the np.fft wrappers run
    from numpy.fft._pocketfft_umath import fft as _pocket_fft, ifft as _pocket_ifft
except ImportError:  # unscaled: "forward" leaves the inverse so
    _pocket_fft = lambda x, fct, axes, out: np.fft.fft(x, out=out)
    _pocket_ifft = lambda x, fct, axes, out: np.fft.ifft(x, norm="forward", out=out)

from .core import (Direction, NormalizationMode, OpCounter, _finite, _float_guard, _member, _scale,
                   _size, _tally, as_complex_sequence, is_power_of_two)

# Twiddle tables and DFT matrices kept at once: a verify reads one of each, a
# second serves a caller alternating two lengths.  Each costs O(m) to build.
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
    """(complex_adds, complex_mults) of the reference engine at length m, exact at any m.

    The counting convention: the definition takes m*(m-1) complex additions
    and m*m multiplications, a radix-2 FFT one multiplication and two
    additions per butterfly, (m*log2(m), (m/2)*log2(m)), and every twiddle
    product counts, by 1, -1 or +-j too; m gets radix-2's count when it is
    a power of two.  :func:`transform` tallies this and :func:`dft_direct`
    the definition's at every m, not the work that runs; scaling is not counted.
    m is an integer size of at least 1, else OutOfRangeError.
    """
    m = _size("m", m, 1)
    if is_power_of_two(m):
        stages = m.bit_length() - 1
        return m * stages, (m // 2) * stages
    return _direct_counts(m)


def _direct_counts(m: int) -> tuple[int, int]:
    """(complex_adds, complex_mults) of the definition at length m, by :func:`op_counts`' convention."""
    return m * (m - 1), m * m


@_float_guard
def dft_direct(
    x,
    direction: Direction = Direction.FORWARD,
    mode: NormalizationMode = NormalizationMode.NONE,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Direct evaluation of the transform definition at every row.

    output[k] = scale * sum over n of x[n] * W_M**(-+ k*n), with the sign
    chosen by ``direction`` and the scale by ``mode``.  Valid for any
    length; this is the reference the fast paths are checked against, by
    the module's row kernel at step 1.  ``counter`` tallies the definition's
    count, ``_direct_counts``, at every length, a power of two included.
    ``direction`` and ``mode`` take a member or its string value.  The
    values are finite, or SequenceError is raised: NaN/Inf input, or a sum
    that overflows float64.
    """
    x = as_complex_sequence(x)
    direction, mode, m = _member(Direction, direction), _member(NormalizationMode, mode), len(x)
    _tally(counter, _direct_counts(m))
    return _finite(_scaled(_direct_rows(x, direction, _twiddles(m, 1)), direction, mode, m))


_RowBlocks = collections.namedtuple("_RowBlocks", "b rows values reusable chunks")


def _direct_rows(x: np.ndarray, direction: Direction, blocks: _RowBlocks) -> np.ndarray:
    """Unscaled sums over j of x[j] * W_m**(-+ k*j) at the rows k = step*q that ``blocks`` serves.

    ``blocks`` is what ``_twiddles(m, step)`` returned, kept or fresh, for a
    validated length-m x.  With m = B*M, j = j1 + B*j2 and k = r + M*t, row k
    is G[k mod M, t] of Y = T*X (Y[r, j1] = sum over j2 of W_M**(r*j2) *
    x[j1 + B*j2]), Z = w*Y (w[r, j1] = W_m**(r*j1)) and G = Z*F, read at ``at``.
    A row gets the same bits at any step: Y and G are BLAS products of depth
    _DEPTH over two or more residues (one takes BLAS's vector path, which
    rounds differently) summed in depth order, G's over all B columns of F.
    The inverse reads the forward twiddles: conj(T)*X, conj(G of w*conj(Y)).
    Row P*i + p lands at out[i, p].  A row set of one chunk, as every row
    set at n = 4096 is, takes its gather from G as the output, and a B of
    at most _DEPTH takes G as one product; only several chunks write
    their gathers into a preallocated output.
    """
    xt, inverse = x.reshape(-1, blocks.b), direction is Direction.INVERSE  # xt[j2, j1] = x[j1 + B*j2]
    f, out, p0 = _dft_matrix(x.size, blocks.b), None, 0
    for ts, w, at in blocks.chunks:  # one chunk of Y's rows, one gathered depth slice alive at a time
        y = g = None
        for d, t in ts:  # each sum goes into its first product
            product = (t.conj() if inverse else t) @ xt[d]
            y = product if y is None else np.add(y, product, out=y)
        y = np.multiply(np.conjugate(y, out=y) if inverse else y, w, out=y)
        for d in range(0, blocks.b, _DEPTH):  # one slice, no views, when it covers B
            product = y[:, d:d + _DEPTH] @ f[d:d + _DEPTH] if blocks.b > _DEPTH else y @ f
            g = product if g is None else np.add(g, product, out=g)
        if at.shape[1] == blocks.rows[1]:  # all P places: the only chunk
            out = g.reshape(-1)[at]
        else:
            out = np.empty(blocks.rows, complex) if out is None else out
            out[:, p0:p0 + at.shape[1]] = g.reshape(-1)[at]
            p0 += at.shape[1]
    return np.conjugate(out, out=out).reshape(-1) if inverse else out.reshape(-1)


@functools.lru_cache(maxsize=_TABLES)
def _dft_matrix(m: int, b: int) -> np.ndarray:
    """F[j1, t] = W_B**(j1*t), read-only: m's table at M*((j1*t) mod B), read from a contiguous copy."""
    return _read_only(twiddle_table(m)[::m // b].copy()[np.arange(b)[:, None] * np.arange(b) % b])


def _twiddles(m: int, step: int) -> _RowBlocks:
    """The row kernel's forward twiddle blocks at length m for the rows k = step*q, q < c.

    m = B*M, B the largest divisor of m not above isqrt(m).  The residues k
    mod M repeat with the period P = M/gcd(step, M); Y's row p, of at least
    two, is the residue r = step*p mod M of the rows q = P*i + p, and row q
    is G[p, floor(step*p/M) + s*i] for s = step*P/M, so B = (c/P)*s.  Each
    chunk of Y's rows p0, ... gives its depth slices (d, W_m**(r*B*j2) for j2
    in d), its w = W_m**(r*j1) and ``at``, its places' flat index into its
    G, at[i, p - p0] = (p - p0)*B + floor(step*p/M) + s*i for p < P:
    M*max(2, P) + max(2, P)*B twiddles and c indices.  It alone decides
    layout and keep size: at most _KEPT_CELLS twiddles come back
    materialized and ``reusable``, more lazily in chunks of about
    _BLOCK_CELLS values, all read-only; ``rows`` is the outputs' shape (c/P, P).
    """
    b = next(d for d in range(math.isqrt(m), 0, -1) if m % d == 0)
    table, mm, c = twiddle_table(m), m // b, m // step
    period = mm // math.gcd(step, mm)
    residues = max(2, period)  # one would go to BLAS's gemv; at P = 1, M divides step

    def chunk(p):  # Y's rows p, T a depth slice at a time: no M-point array is held
        r = p[:, None] * step % mm  # r*j1 < m, so w's exponents need no reduction
        ts = ((slice(d, d + _DEPTH), _read_only(table[r * b * np.arange(d, min(d + _DEPTH, mm)) % m]))
              for d in range(0, mm, _DEPTH))
        places = p[p < period]
        at = (places - p[0]) * b + step * places // mm + np.arange(0, b, step * period // mm)[:, None]
        return ts, _read_only(table[r * np.arange(b)]), _read_only(at)

    rows = max(2, _BLOCK_CELLS // max(_DEPTH, b))  # of Y per chunk, two or more
    chunks = (chunk(p) for p in np.array_split(np.arange(residues), max(1, residues // rows)))
    if reusable := (values := residues * (mm + b)) <= _KEPT_CELLS:
        chunks = tuple((tuple(ts), w, at) for ts, w, at in chunks)
    return _RowBlocks(b, (c // period, period), values, reusable, chunks)


@_float_guard
def transform(
    x,
    direction: Direction = Direction.FORWARD,
    mode: NormalizationMode = NormalizationMode.NONE,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """The transform at any length by ``np.fft``, scaled like the engines.

    Matches :func:`dft_direct` on the same inputs up to roundoff, and
    raises as it does: finite values, or SequenceError.
    """
    x = as_complex_sequence(x)
    direction, mode = _member(Direction, direction), _member(NormalizationMode, mode)
    _tally(counter, op_counts(len(x)))
    return _finite(_scaled(_fft(x, direction), direction, mode, len(x)))


def _fft(x: np.ndarray, direction: Direction, out: np.ndarray | None = None) -> np.ndarray:
    """Unscaled ``np.fft`` of a checked sequence into ``out`` (the pipeline's own c sums) or a fresh
    array, by the pocketfft ufunc np.fft calls: its bits, without its wrapper's argument handling.
    """
    fft = _pocket_fft if direction is Direction.FORWARD else _pocket_ifft
    return fft(x, 1, axes=[(0,), (), (0,)], out=np.empty(len(x), complex) if out is None else out)


def _scaled(y: np.ndarray, direction: Direction, mode: NormalizationMode, m: int) -> np.ndarray:
    """y, an array the caller owns, scaled in place by the mode's factor at length m."""
    s = _scale(mode, direction, m)
    if s != 1.0:
        y *= s
    return y
