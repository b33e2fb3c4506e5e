"""Multiplierless lossless compression by column sums.

Viewing an n-point sequence as an l x c rectangle (row-major, sample
row*c + col in column col), the fold adds the l entries of each column,
costing c*(l-1) complex additions and no multiplications.  The c-point
result carries the full information of the original sequence's transform
at index multiples of l, for a signal (forward) or a spectrum (inverse).
Folds compose (n -> w -> c is the n -> c fold when c | w | n), so the
kernel sums wide rows of r*c values first, for one power of two r found
from n and c alone: r doubles while the l // r wide rows would outnumber
the r*c values of each (a near-square rectangle), or while the frame
holds ``_COLD`` values or more and its rows are shorter than ``_ROW``.
The q = l // r wide rows are reduced in one pass; the l mod r rows left
over, fewer than r, are added to the leading sums; the r*c sums are then
folded to c by the same rule when r > ``_DEEP``, else by one (r, c)
reduce.  So an odd l reads its frame in long rows too.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from .core import LengthMismatchError, OpCounter, RicPlan, _complex_array, _finite, _float_guard, _tally

_WIDE = 1 << 14  # values (256 KiB) from which a row is added alone: the crossover timed cold
# Timed on 2 shared x86-64 cores with 2 MiB of L2 each.  Rows of at least
# _ROW values (16 KiB) read a frame that comes from L3 faster than near-square
# rows of 4 KiB: at n = 2^16, 105 -> 73 us at c = 2 and 91 -> 55 us at c = 32.
# With the frame in L2 they cost nothing from _COLD values (1 MiB; n = 2^16:
# 36.5 -> 35.5 us at c = 2, 42.4 -> 33.5 us at c = 64), but below it they do
# (n = 24,000, c = 2: 16.9 -> 22.3 us), so smaller frames keep near-square
# rows; rows of 2,048 values were slower in L2 (n = 2^16: 41-45 us).  An
# (r, c) reduce costs about 20 ns a row: above _DEEP rows the rule's own
# passes are cheaper ((256, 2): 5.4 us against 3.5 us).
_COLD = 1 << 16
_ROW = 1024
_DEEP = 128


@dataclass(frozen=True)
class FoldedSequence:
    """c-point column sums of an n-point sequence, tagged with its plan."""

    samples: np.ndarray
    plan: RicPlan


@_float_guard
def fold(x, plan: RicPlan, counter: OpCounter | None = None) -> FoldedSequence:
    """Fold an n-point signal or spectrum down to c column sums.

    output[col] = sum over row of x[row*c + col], for col in [0, c-1]:
    x converted once, then :func:`_fold`, the kernel the pipeline and the
    verifier call on the array they converted themselves, and
    :func:`_checked` on the sums: finite sums, or SequenceError.
    """
    x = _complex_array(x)
    out = _checked(_fold(x, plan), x, plan)
    _tally(counter, _fold_counts(plan))
    return FoldedSequence(samples=out, plan=plan)


def _fold_counts(plan: RicPlan) -> tuple[int, int]:
    """(complex_adds, complex_mults) of the fold: c*(l-1) additions, no multiplication."""
    return plan.c * (plan.l - 1), 0


def _fold(x: np.ndarray, plan: RicPlan) -> np.ndarray:
    """The c column sums of a converted x, in a fresh array; its length checked, the sums not.

    Sums by the module's rule (:func:`_sums`): rows of r*c values for a
    power of two r from n and c alone, the l mod r rows left over added to
    the leading sums, then the r*c sums folded to c.  The caller runs it
    under ``core._float_guard`` and checks what it makes of the sums with
    :func:`_checked`.
    """
    if len(x) != plan.n:
        raise LengthMismatchError(f"sequence has {len(x)} samples, plan expects {plan.n}")
    return _sums(x, plan.c)


def _sums(x: np.ndarray, c: int) -> np.ndarray:
    """The c column sums of x by the module's rule: a fixed order, not by ascending row.

    Rows of ``_WIDE`` values or more are added one at a time in row order:
    one reduce's bits, without its pass copying row 0.
    """
    l, r = len(x) // c, 1
    while l > r * r * c or (l * c >= _COLD and r * c < _ROW):
        r *= 2
    q, w = l // r, r * c
    rows = (x if q * r == l else x[:q * w]).reshape(q, w)
    if w < _WIDE:
        out = np.add.reduce(rows, axis=0)
    else:
        out = np.add(rows[0], rows[1])
        for row in rows[2:]:
            np.add(out, row, out=out)
    if q * r < l:
        out[:len(x) - q * w] += x[q * w:]
    if r > _DEEP:
        return _sums(out, c)
    return np.add.reduce(out.reshape(r, c), axis=0) if r > 1 else out


def _checked(values: np.ndarray, x: np.ndarray, plan: RicPlan) -> np.ndarray:
    """``values``, x's c sums or their scaled transform, when all are finite, else SequenceError.

    A NaN/Inf sum makes every value of its transform non-finite, so one
    total of the values is sought first.  When it is not finite, x's sums are
    folded again for the message: NaN/Inf samples or an overflowing column
    sum name the sequence, finite sums a transform that overflows float64.
    Finite values whose total overflows pass.
    """
    if not cmath.isfinite(np.add.reduce(values)):
        _finite(_fold(x, plan), "sequence, or a column sum overflows")
        _finite(values)
    return values


# The inverse path folds a spectrum with the same kernel.
fold_spectrum = fold
