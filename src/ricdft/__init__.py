"""Fast computation of DFT coefficients whose index is a multiple of l = n/c.

Fold an n-point sequence to c column sums (c*(l-1) complex additions, no
multiplications), transform the c points, and the results equal the full
n-point transform at indices 0, l, 2l, ..., (c-1)l.  The package bundles
the fold, the transform with its direct and radix-2 references, the
end-to-end pipeline with normalization corrections, the closed-form
operation counts of a plan, a frequency planner and file formats.
"""

from .core import (
    Direction,
    LengthMismatchError,
    NonDivisorError,
    NormalizationMode,
    NotPowerOfTwoError,
    OpCounter,
    OutOfRangeError,
    RicdftError,
    RicPlan,
    SequenceError,
    as_complex_sequence,
    correction_factor,
    is_power_of_two,
    make_plan,
)
from .engine import dft_direct, fft_radix2, op_counts, transform, twiddle_table
from .fold import FoldedSequence, fold, fold_spectrum
from .io import (
    SignalFileError,
    SignalFormat,
    read_signal,
    synthesize_tones,
    write_signal,
    write_spectrum,
)
from .planner import (
    Assignment,
    InfeasibleError,
    PlanProposal,
    coverage_report,
    plan_for_frequencies,
)
from .ric import (
    RicSpectrum,
    VerificationReport,
    compare_values,
    ric_dft,
    ric_idft,
    ric_index_set,
    ric_op_counts,
    verify_against_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "Direction",
    "FoldedSequence",
    "InfeasibleError",
    "LengthMismatchError",
    "NonDivisorError",
    "NormalizationMode",
    "NotPowerOfTwoError",
    "OpCounter",
    "OutOfRangeError",
    "PlanProposal",
    "RicPlan",
    "RicSpectrum",
    "RicdftError",
    "SequenceError",
    "SignalFileError",
    "SignalFormat",
    "VerificationReport",
    "as_complex_sequence",
    "compare_values",
    "correction_factor",
    "coverage_report",
    "dft_direct",
    "fft_radix2",
    "fold",
    "fold_spectrum",
    "is_power_of_two",
    "make_plan",
    "op_counts",
    "plan_for_frequencies",
    "read_signal",
    "ric_dft",
    "ric_idft",
    "ric_index_set",
    "ric_op_counts",
    "synthesize_tones",
    "transform",
    "twiddle_table",
    "verify_against_oracle",
    "write_signal",
    "write_spectrum",
]
