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
definition at the c retained rows only, in about n*R + c*B products for
n = B*M and R residues of the rows mod M (:mod:`ricdft.engine`), and
reports the disagreement: the package's ground-truth equivalence check.
"""

import weakref
from dataclasses import dataclass

import numpy as np

from .core import (Direction, LengthMismatchError, NormalizationMode, RicPlan, _complex_array,
                   _member, _tolerance)
from .engine import _direct_rows, _fft, _scaled, _twiddles, op_counts
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
    indices = ric_index_set(plan)  # first, so its temporary is freed before the sums exist
    sums = fold(x, plan).samples  # a fresh array: transformed and scaled in its own buffer
    return RicSpectrum(
        indices=indices,
        values=_scaled(_fft(sums, direction, out=sums), direction, mode, plan.n),
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
    return _report(got, oracle, tolerance)


def _report(got: np.ndarray, oracle: np.ndarray, tolerance: float) -> VerificationReport:
    """:func:`compare_values` of two checked arrays of one shape and a checked tolerance."""
    max_abs = float(np.max(np.abs(got - oracle)))
    denom = float(np.max(np.abs(oracle)))
    max_rel = max_abs / denom if denom > 0.0 else (0.0 if max_abs == 0.0 else float("inf"))
    return VerificationReport(max_abs, max_rel, passed=max_rel <= tolerance, tolerance=tolerance)


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
    Each argument is checked once; the oracle takes the pipeline's members.
    """
    tolerance = _tolerance(tolerance)
    x = _complex_array(x)  # the fold's own conversion of this array is the identity
    spectrum = _ric(x, plan, direction, mode)
    oracle = _oracle(x, plan, spectrum.direction, spectrum.mode)
    return _report(spectrum.values, oracle, tolerance)


# The oracle keeps a live plan's forward twiddle blocks, read-only, when they
# total at most this many values (1 MiB of complex128): gathering them is most
# of a call at n = 4096, and a verify after the first under the same plan reads
# them back.  An entry dies with its plan; larger plans gather blocks per call.
_KEPT_CELLS = 1 << 16
_kept = weakref.WeakKeyDictionary()


def _oracle(x, plan: RicPlan, direction: Direction, mode: NormalizationMode) -> np.ndarray:
    """The retained coefficients by the definition, in about n*R + c*B products.

    Rows k*L of the n-point direct transform, scaled at length n, from the
    row kernel of :func:`dft_direct` and so its rows bit for bit, whether
    its twiddle blocks are kept or gathered afresh.  The rows fall on R
    residues mod M (R = 8 at n = 4096, c = 512); the fold, the c-point FFT
    and W_n**(l*m) = W_c**m go unused.  Only a gather builds the rows: kept
    blocks carry them.
    Checks nothing: the fold has accepted x (its length, and a NaN/Inf
    sample through its column sum) and direction and mode are members.
    """
    if (twiddles := _kept.get(plan)) is None:
        per_residue, per_row, values = _twiddles(plan.n, ric_index_set(plan))
        twiddles = per_residue, per_row
        if values <= _KEPT_CELLS:
            twiddles = _kept[plan] = [list(ts) for ts in per_residue], list(per_row)
    return _scaled(_direct_rows(x, None, direction, twiddles), direction, mode, plan.n)
