"""Multiplierless lossless compression by column sums.

Viewing an n-point sequence as an l x c rectangle (row-major, sample
row*c + col in column col), the fold adds the l entries of each column,
costing c*(l-1) complex additions and no multiplications.  The c-point
result carries the full information of the original sequence's transform
at index multiples of l.  The same kernel serves both directions: a
time-domain signal on the forward path and a spectrum on the inverse path.
"""

from dataclasses import dataclass

import numpy as np

from .core import LengthMismatchError, OpCounter, RicPlan, as_complex_sequence


@dataclass(frozen=True)
class FoldedSequence:
    """c-point column sums of an n-point sequence, tagged with its plan."""

    samples: np.ndarray
    plan: RicPlan


def fold(x, plan: RicPlan, counter: OpCounter | None = None) -> FoldedSequence:
    """Fold an n-point signal or spectrum down to c column sums.

    output[col] = sum over row of x[row*c + col], for col in [0, c-1].
    Validates x (see :func:`ricdft.core.as_complex_sequence`) and its length.
    """
    x = as_complex_sequence(x)
    if len(x) != plan.n:
        raise LengthMismatchError(f"sequence has {len(x)} samples, plan expects {plan.n}")
    rows = x.reshape(plan.l, plan.c)
    # Accumulate in ascending row order; keeps results bit-reproducible.
    out = rows[0].copy()
    for l in range(1, plan.l):
        out += rows[l]
    if counter is not None:
        counter.add(plan.c * (plan.l - 1))
    return FoldedSequence(samples=out, plan=plan)


# The inverse path folds a spectrum with the same kernel.
fold_spectrum = fold
