"""End-to-end pipeline: fold, transform at c points, correct the scale.

The forward path computes the n-point DFT values X[k*L] for k = 0..C-1 by
transforming the c-point fold of the signal; the inverse path computes the
n-point IDFT values x[n*L] the same way from a folded spectrum; both are
one pipeline parameterized by direction.  A c-point engine normalizes by c
rather than n, so a correction factor K in {1, 1/L, 1/sqrt(L)} restores the
requested convention (see :func:`ricdft.core.correction_factor`).

:func:`verify_against_oracle` re-derives the same coefficients through the
full n-point direct transform and reports the disagreement, which is the
package's ground-truth equivalence check.
"""

from dataclasses import dataclass

import numpy as np

from .core import (Direction, LengthMismatchError, NormalizationMode, OpCounter, RicPlan,
                   _complex_array, _member, _tolerance, correction_factor)
from .engine import dft_direct, transform
from .fold import fold


@dataclass(frozen=True)
class RicSpectrum:
    """c transform values tagged with their original n-point indices k*L."""

    indices: np.ndarray
    values: np.ndarray
    plan: RicPlan
    mode: NormalizationMode
    direction: Direction

    @property
    def entries(self) -> list[tuple[int, complex]]:
        """(original_index, value) pairs in ascending index order."""
        return list(zip(self.indices.tolist(), self.values.tolist()))


def ric_index_set(plan: RicPlan) -> np.ndarray:
    """The retained n-point indices {0, L, 2L, ..., (C-1)L}."""
    return np.arange(plan.c, dtype=np.int64) * plan.l


def _ric(
    x,
    plan: RicPlan,
    direction: Direction,
    mode: NormalizationMode,
    counter: OpCounter | None,
) -> RicSpectrum:
    """Fold, transform at c points in ``direction``, then correct the scale.

    :func:`fold` validates x and its length, once per call.  ``direction``
    and ``mode`` take a member or its string value; the spectrum records
    the member.
    """
    direction, mode = _member(Direction, direction), _member(NormalizationMode, mode)
    values = transform(fold(x, plan, counter).samples, direction, mode, counter)
    k = correction_factor(mode, direction, plan)
    if k != 1.0:
        values = values * k
    return RicSpectrum(
        indices=ric_index_set(plan),
        values=values,
        plan=plan,
        mode=mode,
        direction=direction,
    )


def ric_dft(
    x,
    plan: RicPlan,
    mode: NormalizationMode = NormalizationMode.NONE,
    counter: OpCounter | None = None,
) -> RicSpectrum:
    """Forward path: values equal the full n-point DFT of x at indices k*L."""
    return _ric(x, plan, Direction.FORWARD, mode, counter)


def ric_idft(
    spectrum,
    plan: RicPlan,
    mode: NormalizationMode = NormalizationMode.RECIPROCAL_N,
    counter: OpCounter | None = None,
) -> RicSpectrum:
    """Inverse path: values equal the full n-point IDFT of the spectrum at n*L.

    The c-point engine's implicit 1/c (or 1/sqrt(c)) becomes the requested
    1/n (or 1/sqrt(n)) through the correction factor.
    """
    return _ric(spectrum, plan, Direction.INVERSE, mode, counter)


@dataclass(frozen=True)
class VerificationReport:
    """Disagreement between the folded path and the full-length direct path."""

    max_abs_error: float
    max_rel_error: float
    passed: bool
    tolerance: float


def compare_values(got, oracle, tolerance: float = 1e-9) -> VerificationReport:
    """Normwise comparison: max abs difference over the oracle's max magnitude.

    A negative or non-finite tolerance raises OutOfRangeError; input that
    is not a non-empty 1-d sequence raises SequenceError, and sequences of
    different lengths raise LengthMismatchError.  NaN in ``got`` fails.
    """
    tolerance = _tolerance(tolerance)
    got, oracle = _complex_array(got), _complex_array(oracle)
    if got.shape != oracle.shape:
        raise LengthMismatchError(f"got has {got.size} values, the oracle {oracle.size}")
    max_abs = float(np.max(np.abs(got - oracle)))
    denom = float(np.max(np.abs(oracle)))
    if denom > 0.0:
        max_rel = max_abs / denom
    else:
        max_rel = 0.0 if max_abs == 0.0 else float("inf")
    return VerificationReport(
        max_abs_error=max_abs,
        max_rel_error=max_rel,
        passed=max_rel <= tolerance,
        tolerance=tolerance,
    )


def verify_against_oracle(
    x,
    plan: RicPlan,
    mode: NormalizationMode = NormalizationMode.NONE,
    direction: Direction = Direction.FORWARD,
    tolerance: float = 1e-9,
) -> VerificationReport:
    """Compare the folded pipeline with the full n-point direct transform.

    Both paths are evaluated at the retained indices k*L; the relative
    error is measured against the max magnitude of the direct values.
    Passes iff max_rel_error <= tolerance; a bad tolerance raises first.
    """
    tolerance = _tolerance(tolerance)
    got = _ric(x, plan, direction, mode, None).values
    return compare_values(got, _oracle(x, plan, direction, mode), tolerance)


def _oracle(x, plan: RicPlan, direction: Direction, mode: NormalizationMode) -> np.ndarray:
    """The retained coefficients by the definition: the full n-point direct transform."""
    return dft_direct(x, direction, mode)[ric_index_set(plan)]
