"""End-to-end pipeline: fold, one unscaled c-point FFT, one scale at length n.

The forward path computes the n-point DFT values X[k*L] for k = 0..C-1 by
transforming the c-point fold of the signal; the inverse path computes the
n-point IDFT values x[n*L] the same way from a folded spectrum; both are
one pipeline parameterized by direction: fold, an unscaled ``np.fft`` of
the fold's fresh c sums in their own buffer (``engine.transform`` stays out
of place), then one multiply there by the mode's factor at length n, as the
oracle does.  The unscaled c-point DFT of the fold is the unscaled n-point
DFT at the retained indices, so nothing is scaled at length c
(:func:`ricdft.core.correction_factor` relates the two lengths' scales).
The cost of a call follows from its plan alone: :func:`ric_op_counts`.

:func:`verify_against_oracle` re-derives the same coefficients from the
definition at the c retained rows only, by the row kernel of
:mod:`ricdft.engine`, and reports the disagreement: the package's
ground-truth equivalence check.
"""

from dataclasses import dataclass

import numpy as np

from .core import (Direction, LengthMismatchError, NormalizationMode, RicPlan, SequenceError,
                   _complex_array, _member, _float_guard, _tolerance)
from .engine import _direct_rows, _fft, _scaled, _twiddles, op_counts
from .fold import _checked, _fold, _fold_counts


@dataclass(frozen=True)
class RicSpectrum:
    """c transform values at their n-point indices k*L, which follow from the plan."""

    values: np.ndarray
    plan: RicPlan
    mode: NormalizationMode
    direction: Direction

    @property
    def indices(self) -> np.ndarray:
        """The plan's :func:`ric_index_set`."""
        return ric_index_set(self.plan)

    @property
    def entries(self) -> list[tuple[int, complex]]:
        """(original_index, value) pairs in ascending index order; LengthMismatchError unless c values."""
        return list(zip(_index_range(self), self.values.tolist()))


def _index_range(spectrum: RicSpectrum) -> range:
    """The indices k*L of a spectrum's entries; LengthMismatchError unless it holds its plan's c values."""
    size, plan = spectrum.values.size, spectrum.plan
    if size != plan.c:
        raise LengthMismatchError(f"spectrum has {size} values, plan expects {plan.c}")
    return range(0, plan.n, plan.l)


def ric_index_set(plan: RicPlan) -> np.ndarray:
    """Indices {0, L, ..., (C-1)L} as a new int64 array."""
    return np.arange(0, plan.n, plan.l, dtype=np.int64)


def ric_op_counts(plan: RicPlan) -> tuple[int, int]:
    """(complex_adds, complex_mults) of ric_dft or ric_idft under ``plan``.

    The fold's count plus :func:`ricdft.engine.op_counts` of the c-point
    transform; the scale at length n is not counted.
    """
    (fold_adds, fold_mults), (adds, mults) = _fold_counts(plan), op_counts(plan.c)
    return fold_adds + adds, fold_mults + mults


@_float_guard
def _ric(x, plan: RicPlan, direction: Direction, mode: NormalizationMode) -> RicSpectrum:
    """Fold, an unscaled c-point FFT in ``direction``, then the scale at length n.

    x is converted once; :func:`ricdft.fold._fold` checks its length and
    :func:`ricdft.fold._checked` the c values.  ``direction`` and ``mode``
    take a member or its string value; the spectrum records the member.
    """
    direction, mode = _member(Direction, direction), _member(NormalizationMode, mode)
    return RicSpectrum(_values(_complex_array(x), plan, direction, mode), plan, mode, direction)


def _values(x: np.ndarray, plan: RicPlan, direction: Direction, mode: NormalizationMode) -> np.ndarray:
    """The pipeline's c values of a converted x: the fold's fresh sums, transformed and scaled there.

    Non-finite values raise SequenceError, by :func:`ricdft.fold._checked`.
    """
    sums = _fold(x, plan)
    return _checked(_scaled(_fft(sums, direction, out=sums), direction, mode, plan.n), x, plan)


def ric_dft(x, plan: RicPlan, mode: NormalizationMode = NormalizationMode.NONE) -> RicSpectrum:
    """Forward path: values equal the full n-point DFT of x at indices k*L; finite, or SequenceError."""
    return _ric(x, plan, Direction.FORWARD, mode)


def ric_idft(
    spectrum, plan: RicPlan, mode: NormalizationMode = NormalizationMode.RECIPROCAL_N
) -> RicSpectrum:
    """Inverse path: values equal the full n-point IDFT of the spectrum at n*L.

    The c-point FFT runs unscaled and the result is scaled once by the
    requested 1/n (or 1/sqrt(n)), never by 1/c.  Finite, or SequenceError.
    """
    return _ric(spectrum, plan, Direction.INVERSE, mode)


@dataclass(frozen=True)
class VerificationReport:
    """Disagreement between the folded path and the full-length direct path."""

    max_abs_error: float
    max_rel_error: float
    passed: bool
    tolerance: float


@_float_guard
def compare_values(got, oracle, tolerance: float = 1e-9) -> VerificationReport:
    """Normwise comparison: max abs difference over the oracle's max magnitude.

    A negative or non-finite tolerance raises OutOfRangeError; input that
    is not a non-empty 1-d sequence raises SequenceError, and sequences of
    different lengths raise LengthMismatchError.  A non-finite ``oracle``
    (or a magnitude beyond float64) raises SequenceError; NaN or Inf in
    ``got``, or a difference that overflows, fails.
    """
    tolerance = _tolerance(tolerance)
    got, oracle = _complex_array(got), _complex_array(oracle)
    if got.shape != oracle.shape:
        raise LengthMismatchError(f"got has {got.size} values, the oracle {oracle.size}")
    return _report(got - oracle, oracle, tolerance)  # out of place: got may be the caller's array


def _report(difference: np.ndarray, oracle: np.ndarray, tolerance: float) -> VerificationReport:
    """The report on got = oracle + ``difference``; the oracle's maximum is its finiteness check."""
    max_abs, denom = float(np.abs(difference).max()), float(np.abs(oracle).max())
    if not denom < np.inf:  # NaN compares false too
        raise SequenceError("non-finite values in the oracle, or a magnitude that overflows float64")
    max_rel = max_abs / denom if denom > 0.0 else (0.0 if max_abs == 0.0 else float("inf"))
    return VerificationReport(max_abs, max_rel, passed=max_rel <= tolerance, tolerance=tolerance)


@_float_guard
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
    Passes iff max_rel_error <= tolerance; a bad tolerance raises first,
    a wrong length before the oracle runs.  Each check runs once: x is
    converted once, and the pipeline's fresh values become the difference
    in place, so the two compared arrays are all a call builds.  Input
    beyond float64, for the pipeline or the oracle, raises SequenceError.
    """
    tolerance = _tolerance(tolerance)
    x = _complex_array(x)
    direction, mode = _member(Direction, direction), _member(NormalizationMode, mode)
    got, oracle = _values(x, plan, direction, mode), _oracle(x, plan, direction, mode)
    return _report(np.subtract(got, oracle, out=got), oracle, tolerance)


def _oracle(x, plan: RicPlan, direction: Direction, mode: NormalizationMode) -> np.ndarray:
    """The retained coefficients by the definition: rows k*L of the n-point direct transform.

    The row kernel of :mod:`ricdft.engine` at step L, scaled at length n,
    on the twiddle record a plan keeps when the engine returns it
    reusable: in the plan object's own ``__dict__``, found without hashing
    the plan and freed with it.  The fold, the c-point FFT and
    W_n**(l*m) = W_c**m go unused.  Checks nothing: the pipeline has accepted x
    (its length, and every value finite, so no NaN/Inf sample) and
    direction and mode are members; ``_report`` checks the rows' maximum.
    """
    if (blocks := plan.__dict__.get("_oracle_blocks")) is None:
        blocks = _twiddles(plan.n, plan.l)
        if blocks.reusable:
            plan.__dict__["_oracle_blocks"] = blocks
    return _scaled(_direct_rows(x, direction, blocks), direction, mode, plan.n)
