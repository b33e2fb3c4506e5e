"""End-to-end pipeline: fold, one unscaled c-point FFT, one scale at length n.

The forward path computes the n-point DFT values X[k*L] for k = 0..C-1 by
transforming the c-point fold of the signal; the inverse path computes the
n-point IDFT values x[n*L] the same way from a folded spectrum; both are
one pipeline parameterized by direction: fold, an unscaled ``np.fft`` of
the c sums, then one multiply by the mode's factor at length n, as the
oracle does.  The unscaled c-point DFT of the fold is the unscaled n-point
DFT at the retained indices, so nothing is scaled at length c
(:func:`ricdft.core.correction_factor` relates the two lengths' scales).
The cost of a call follows from its plan alone: :func:`ric_op_counts`.

:func:`verify_against_oracle` re-derives the same coefficients from the
definition at the c retained rows only, in O(n*c), and reports the
disagreement: the package's ground-truth equivalence check.
"""

from dataclasses import dataclass

import numpy as np

from .core import (Direction, LengthMismatchError, NormalizationMode, RicPlan, _complex_array,
                   _member, _tolerance)
from .engine import _direct_rows, _fft, _scaled, op_counts
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


def ric_op_counts(plan: RicPlan) -> tuple[int, int]:
    """(complex_adds, complex_mults) of ric_dft or ric_idft under ``plan``.

    The fold's c*(l-1) additions plus :func:`ricdft.engine.op_counts` of
    the c-point transform; the scale at length n is not counted.
    """
    adds, mults = op_counts(plan.c)
    return plan.c * (plan.l - 1) + adds, mults


def _ric(x, plan: RicPlan, direction: Direction, mode: NormalizationMode) -> RicSpectrum:
    """Fold, an unscaled c-point FFT in ``direction``, then the scale at length n.

    :func:`fold` validates x, its length and the c sums, once per call.
    ``direction`` and ``mode`` take a member or its string value; the
    spectrum records the member.
    """
    direction, mode = _member(Direction, direction), _member(NormalizationMode, mode)
    values = _fft(fold(x, plan).samples, direction)
    return RicSpectrum(
        indices=ric_index_set(plan),
        values=_scaled(values, direction, mode, plan.n),
        plan=plan,
        mode=mode,
        direction=direction,
    )


def ric_dft(x, plan: RicPlan, mode: NormalizationMode = NormalizationMode.NONE) -> RicSpectrum:
    """Forward path: values equal the full n-point DFT of x at indices k*L."""
    return _ric(x, plan, Direction.FORWARD, mode)


def ric_idft(
    spectrum, plan: RicPlan, mode: NormalizationMode = NormalizationMode.RECIPROCAL_N
) -> RicSpectrum:
    """Inverse path: values equal the full n-point IDFT of the spectrum at n*L.

    The c-point FFT runs unscaled and the result is scaled once by the
    requested 1/n (or 1/sqrt(n)), never by 1/c.
    """
    return _ric(spectrum, plan, Direction.INVERSE, mode)


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
    x = _complex_array(x)
    direction, mode = _member(Direction, direction), _member(NormalizationMode, mode)
    got = _ric(x, plan, direction, mode).values
    return compare_values(got, _oracle(x, plan, direction, mode), tolerance)


def _oracle(x, plan: RicPlan, direction: Direction, mode: NormalizationMode) -> np.ndarray:
    """The retained coefficients by the definition, in O(n*c).

    Rows k*L of the n-point direct transform, scaled at length n, from the
    matrix-product row kernel of :func:`dft_direct` and so its rows bit for
    bit; the fold, the c-point FFT and W_n**(l*m) = W_c**m go unused.
    Checks nothing: the fold has accepted x (its length, and a NaN/Inf
    sample through its column sum) and direction and mode are members.
    """
    return _scaled(_direct_rows(x, ric_index_set(plan), direction), direction, mode, plan.n)
