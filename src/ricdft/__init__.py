"""Fast computation of DFT coefficients whose index is a multiple of l = n/c.

Fold an n-point sequence to c column sums (c*(l-1) complex additions, no
multiplications), transform the c points, and the results equal the full
n-point transform at indices 0, l, 2l, ..., (c-1)l.  The package bundles
the fold, the transform with its direct reference, the end-to-end
pipeline with normalization corrections, the closed-form operation
counts of a plan, a frequency planner and file formats.

Two numpy-private entry points are imported, both present from numpy 2.0:
``engine`` calls the pocketfft ufuncs ``numpy.fft._pocketfft_umath`` holds,
and ``io`` the chunked csv reader ``_load_from_filelike``.  Each is imported
under a guard, and where it is missing the public path that gives the same
result runs instead: the ``np.fft`` wrappers, and the csv line loop.
"""

from types import ModuleType as _ModuleType

from .core import (
    Direction,
    LengthMismatchError,
    NonDivisorError,
    NormalizationMode,
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
from .engine import dft_direct, op_counts, transform
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

# Every public name bound above; the submodules stay out, so that ``from
# ricdft import *`` never shadows the standard library's ``io``.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
