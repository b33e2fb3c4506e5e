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

from .core import LengthMismatchError, OpCounter, RicPlan, _complex_array, _finite


@dataclass(frozen=True)
class FoldedSequence:
    """c-point column sums of an n-point sequence, tagged with its plan."""

    samples: np.ndarray
    plan: RicPlan


def fold(x, plan: RicPlan, counter: OpCounter | None = None) -> FoldedSequence:
    """Fold an n-point signal or spectrum down to c column sums.

    output[col] = sum over row of x[row*c + col], for col in [0, c-1]:
    x converted once, then :func:`_fold`, the kernel the pipeline and the
    verifier call on the array they converted themselves.
    """
    out = _fold(_complex_array(x), plan)
    if counter is not None:
        counter.add(plan.c * (plan.l - 1))
    return FoldedSequence(samples=out, plan=plan)


@np.errstate(over="ignore", invalid="ignore")  # a decorator state is entered afresh per call, per thread
def _fold(x: np.ndarray, plan: RicPlan) -> np.ndarray:
    """The c column sums of a converted x, in a fresh array; its length and the sums checked.

    Halves l and doubles the width w (first c) while l is even and l > w,
    sums the l' x w columns, then folds those w sums to c when w > c: a
    fixed order, not by ascending row.  NaN/Inf (or overflow) is sought in
    the c sums one by one only when their total is not finite.
    """
    if len(x) != plan.n:
        raise LengthMismatchError(f"sequence has {len(x)} samples, plan expects {plan.n}")
    l, w = plan.l, plan.c
    while l % 2 == 0 and l > w:
        l, w = l // 2, w * 2
    out = np.add.reduce(x.reshape(l, w), axis=0)
    if w > plan.c:
        out = np.add.reduce(out.reshape(w // plan.c, plan.c), axis=0)
    if not cmath.isfinite(np.add.reduce(out)):  # any sum not finite, or finite sums overflowing
        _finite(out, "sequence, or a column sum overflows")
    return out


# The inverse path folds a spectrum with the same kernel.
fold_spectrum = fold
