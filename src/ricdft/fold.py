"""Multiplierless lossless compression by column sums.

Viewing an n-point sequence as an l x c rectangle (row-major, sample
row*c + col in column col), the fold adds the l entries of each column,
costing c*(l-1) complex additions and no multiplications.  The c-point
result carries the full information of the original sequence's transform
at index multiples of l, for a signal (forward) or a spectrum (inverse).
Folds compose (n -> w -> c is the n -> c fold when c | w | n), so the
kernel first folds a near-square rectangle, adding few long rows per pass.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from .core import LengthMismatchError, OpCounter, RicPlan, _complex_array, _finite, _float_guard, _tally

_WIDE = 1 << 14  # values (256 KiB) from which a row is added alone: the crossover timed cold


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

    Halves l and doubles the width w (first c) while l is even and l > w,
    sums the l' x w columns, then folds those w sums to c when w > c: a
    fixed order, not by ascending row.  Rows of ``_WIDE`` values or more are added one
    at a time in row order: one reduce's bits, without its pass copying row 0.  The
    caller runs it under ``core._float_guard`` and checks what it makes of the
    sums with :func:`_checked`.
    """
    if len(x) != plan.n:
        raise LengthMismatchError(f"sequence has {len(x)} samples, plan expects {plan.n}")
    l, w = plan.l, plan.c
    while l % 2 == 0 and l > w:
        l, w = l // 2, w * 2
    rows = x.reshape(l, w)
    if w < _WIDE:
        out = np.add.reduce(rows, axis=0)
    else:
        out = np.add(rows[0], rows[1])
        for row in rows[2:]:
            np.add(out, row, out=out)
    if w > plan.c:
        out = np.add.reduce(out.reshape(w // plan.c, plan.c), axis=0)
    return out


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
