"""Domain types, plan construction and normalization bookkeeping.

The central object is the :class:`RicPlan`, a validated factorization
``N = L * C`` of a signal length.  Arranging an N-point signal as an
L x C rectangle and summing its columns produces a C-point signal whose
transform equals the N-point transform at the index multiples of L (the
"rectangular index coefficients", RICs).  Everything downstream (folding,
engines, the end-to-end pipeline) is parameterized by a plan.

Indices are 0-based throughout.
"""

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class RicdftError(Exception):
    """Base class for every error raised by this package."""


class NonDivisorError(RicdftError, ValueError):
    """The compressed length does not divide the total length."""


class OutOfRangeError(RicdftError, ValueError):
    """A parameter lies outside its admissible range."""


class LengthMismatchError(RicdftError, ValueError):
    """A sequence length does not match the plan it is used with."""


class SequenceError(RicdftError, ValueError):
    """A sequence is not a finite, non-empty 1-d array of complex samples."""


# ---------------------------------------------------------------------------
# Enumerations
# ---------------------------------------------------------------------------

class Direction(str, Enum):
    """Transform direction: FORWARD uses exponent sign -1, INVERSE +1."""

    FORWARD = "forward"
    INVERSE = "inverse"


class NormalizationMode(str, Enum):
    """Scaling convention paired across the forward/inverse transforms.

    NONE          no scaling in either direction (callers own scaling)
    RECIPROCAL_N  inverse carries 1/length, forward is unscaled
    UNITARY       both directions carry 1/sqrt(length)
    """

    NONE = "none"
    RECIPROCAL_N = "recip-n"
    UNITARY = "unitary"


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _member(kind, value):
    """The member of enum ``kind`` that is ``value`` or has it as its value."""
    if isinstance(value, kind):
        return value
    try:
        return kind(value)
    except ValueError:
        raise OutOfRangeError(f"unknown {kind.__name__} {_shown(value)}") from None


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RicPlan:
    """A validated factorization n = l * c.

    ``c`` is the compressed length (number of retained coefficients), ``l``
    the fold depth.  Requires integer sizes (Python or numpy integers, not
    bool), n >= 4, 2 <= c <= n/2 and c a divisor of n, checked in that
    order.  ``q`` and ``p`` are log2(n) and log2(c) when both n and c are
    powers of two, else None.
    """

    n: int
    c: int

    def __post_init__(self):
        n, c = _size("n", self.n, 4), _size("c", self.c)
        if not (2 <= c <= n // 2):
            raise OutOfRangeError(f"c={_shown(c)} outside [2, {_shown(n // 2)}] for n={_shown(n)}")
        if n % c != 0:
            raise NonDivisorError(f"c={_shown(c)} does not divide n={_shown(n)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)

    def __getstate__(self):  # a copy leaves out the oracle record ricdft.ric keeps on the plan
        return {"n": self.n, "c": self.c}

    @property
    def l(self) -> int:
        return self.n // self.c

    @property
    def q(self) -> int | None:
        return None if self.p is None else self.n.bit_length() - 1

    @property
    def p(self) -> int | None:
        # a product of positive integers is a power of two iff each factor is
        return self.c.bit_length() - 1 if is_power_of_two(self.n * self.c) else None


def _size(name: str, value, low: int = 0) -> int:
    # bool is an Integral subclass, but True is no length
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise OutOfRangeError(f"{name}={_shown(value)} is not an integer size")
    if value < low:
        raise OutOfRangeError(f"{name}={_shown(value)} must be at least {low}")
    return int(value)


def _shown(value) -> str:
    """An integer in decimal, anything else by its repr; past the digits Python prints, by size."""
    try:
        return str(value) if isinstance(value, numbers.Integral) else repr(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        if isinstance(value, numbers.Integral):
            return f"{'-' * (value < 0)}<{abs(value).bit_length()}-bit integer>"
        return f"<{type(value).__name__} too long to print>"


def _real(name: str, value, low: float = -math.inf) -> float:
    # bool is a Real subclass, but True is no measurement
    try:
        finite = not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an integer beyond float range, too long to print whole
        raise OutOfRangeError(f"{name} is beyond float range") from None
    if not finite:
        raise OutOfRangeError(f"{name}={_shown(value)} is not a finite number")
    if value < low:
        raise OutOfRangeError(f"{name}={_shown(value)} must be at least {low}")
    return float(value)


def _tolerance(tol) -> float:
    return _real("tolerance", tol, 0.0)


def _allocated(n: int, make):
    """make(), which builds arrays of n samples; numpy's "array is too big" raises OutOfRangeError."""
    try:
        return make()
    except ValueError:  # numpy: n * itemsize overflows its size type
        raise OutOfRangeError(f"n={_shown(n)} is too large to allocate") from None


# The plan folding an n-point sequence down to c points, under its function name.
make_plan = RicPlan


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def _scale(mode: NormalizationMode, direction: Direction, m: int) -> float:
    """The factor a length-m transform carries under ``mode`` and ``direction``.

    1/sqrt(m) in both directions for UNITARY, 1/m on the inverse only for
    RECIPROCAL_N, 1 otherwise.
    """
    if mode is NormalizationMode.UNITARY:
        return 1.0 / math.sqrt(m)
    if mode is NormalizationMode.RECIPROCAL_N and direction is Direction.INVERSE:
        return 1.0 / m
    return 1.0


def correction_factor(mode: NormalizationMode, direction: Direction, plan: RicPlan) -> float:
    """The factor K with scale_c * K = scale_n, the mode's scale at length l.

    Every mode's scale is multiplicative in the length, so a c-point
    transform scaled for c becomes one scaled for n = l*c through K = 1/l
    (reciprocal: (1/l)(1/c) = 1/n), 1/sqrt(l) (unitary) or 1 (unscaled).
    The pipeline itself never scales at length c: it applies scale_n once.
    ``mode`` and ``direction`` take a member or its string value.
    """
    mode, direction = _member(NormalizationMode, mode), _member(Direction, direction)
    return _scale(mode, direction, plan.l)


# ---------------------------------------------------------------------------
# Operation counting
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class OpCounter:
    """Tally of complex additions and multiplications; one per computation, counts only grow."""

    complex_adds: int = 0
    complex_mults: int = 0


def _tally(counter: OpCounter | None, counts: tuple[int, int]) -> None:
    """Add ``counts``, (complex_adds, complex_mults), to ``counter`` when one is given."""
    if counter is not None:
        counter.complex_adds += counts[0]
        counter.complex_mults += counts[1]


# ---------------------------------------------------------------------------
# Sequence validation
# ---------------------------------------------------------------------------

def as_complex_sequence(x) -> np.ndarray:
    """Coerce to a 1-d complex128 array; raise :class:`SequenceError` otherwise.

    Rejects input that does not convert, has other than one dimension, is
    empty or holds NaN/Inf samples.
    """
    return _finite(_complex_array(x), "sequence")


def _complex_array(x) -> np.ndarray:
    try:
        arr = np.asarray(x, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:  # overflow: an int beyond float range
        raise SequenceError(f"not a complex sequence: {exc}") from None
    if arr.ndim != 1:
        raise SequenceError(f"expected a 1-d sequence, got shape {arr.shape}")
    if arr.size < 1:
        raise SequenceError("sequence must hold at least one sample")
    return arr


def _finite(arr: np.ndarray, what: str = "transform, which overflows float64") -> np.ndarray:
    """arr when every value is finite, else SequenceError naming ``what``.

    By default ``what`` is a transform output's: its input was finite, so
    a NaN/Inf value there means a sum overflowed float64.
    """
    if not np.all(np.isfinite(arr)):  # complex: both parts finite
        raise SequenceError(f"non-finite values in the {what}")
    return arr


# The float-overflow policy of every public computation: numpy's overflow and
# invalid warnings are off inside it, and it checks what it returns, so a value
# beyond float64 raises SequenceError, never a warning.  It is only ever a
# decorator: numpy's errstate then keeps each call's state token in that call,
# entered afresh per call and per thread, so one instance serves every function.
_float_guard = np.errstate(over="ignore", invalid="ignore")
