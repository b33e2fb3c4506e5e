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


class NotPowerOfTwoError(RicdftError, ValueError):
    """A length that must be a power of two is not."""


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


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RicPlan:
    """A validated factorization n = l * c.

    ``c`` is the compressed length (number of retained coefficients), ``l``
    the fold depth.  ``q`` and ``p`` hold log2(n) and log2(c) when both n
    and c are powers of two, else None.
    """

    n: int
    c: int
    l: int
    q: int | None = None
    p: int | None = None

    def __post_init__(self):
        if self.l * self.c != self.n:
            raise NonDivisorError(f"{self.l} * {self.c} != {self.n}")
        if not (2 <= self.c <= self.n // 2):
            raise OutOfRangeError(f"c={self.c} outside [2, {self.n // 2}] for n={self.n}")


def _size(name: str, value) -> int:
    # bool is an Integral subclass, but True is no length
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise OutOfRangeError(f"{name}={value!r} is not an integer size")
    return int(value)


def _tolerance(tol) -> float:
    if not (math.isfinite(tol) and tol >= 0):
        raise OutOfRangeError(f"tolerance must be finite and non-negative, got {tol!r}")
    return tol


def make_plan(n: int, c: int) -> RicPlan:
    """Build the plan folding an n-point sequence down to c points.

    Requires integer sizes (Python or numpy integers, not bool), n >= 4,
    c a divisor of n and 2 <= c <= n/2 (so the fold depth l = n/c is at
    least 2).  The exponent view (q, p) is populated only when n and c are
    both powers of two.
    """
    n, c = _size("n", n), _size("c", c)
    if n < 4:
        raise OutOfRangeError(f"n={n} is too short to fold; need n >= 4")
    if not (2 <= c <= n // 2):
        raise OutOfRangeError(f"c={c} outside [2, {n // 2}] for n={n}")
    if n % c != 0:
        raise NonDivisorError(f"c={c} does not divide n={n}")
    q = p = None
    if is_power_of_two(n) and is_power_of_two(c):
        q = n.bit_length() - 1
        p = c.bit_length() - 1
    return RicPlan(n=n, c=c, l=n // c, q=q, p=p)


def plan_from_exponents(q: int, p: int) -> RicPlan:
    """Build the power-of-two plan with n = 2**q and c = 2**p, p in [1, q-1]."""
    q, p = _size("q", q), _size("p", p)
    if q < 2:
        raise OutOfRangeError(f"q={q} must be at least 2")
    if not (1 <= p <= q - 1):
        raise OutOfRangeError(f"p={p} outside [1, {q - 1}]")
    return make_plan(2 ** q, 2 ** p)


# ---------------------------------------------------------------------------
# Normalization correction
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
    """Scale K restoring the n-point normalization after a c-point transform.

    A c-point engine normalizes by c where the caller expects normalization
    by n = l*c.  Since the scale factor of every mode is multiplicative in
    the length, the bridge is that factor at length l: K = 1/l for the
    reciprocal convention ((1/l)(1/c) = 1/n), 1/sqrt(l) for the unitary one,
    and 1 for unscaled transforms.
    """
    return _scale(mode, direction, plan.l)


# ---------------------------------------------------------------------------
# Operation counting
# ---------------------------------------------------------------------------

class OpCounter:
    """Tally of complex additions and multiplications.

    One instance per computation; counts only grow while a computation
    runs.  Call :meth:`reset` between runs.
    """

    __slots__ = ("complex_adds", "complex_mults")

    def __init__(self):
        self.complex_adds = 0
        self.complex_mults = 0

    def add(self, n: int = 1):
        self.complex_adds += n

    def mul(self, n: int = 1):
        self.complex_mults += n

    def reset(self):
        self.complex_adds = 0
        self.complex_mults = 0

    def __repr__(self):
        return f"OpCounter(complex_adds={self.complex_adds}, complex_mults={self.complex_mults})"


# ---------------------------------------------------------------------------
# Sequence validation
# ---------------------------------------------------------------------------

def as_complex_sequence(x) -> np.ndarray:
    """Coerce to a 1-d complex128 array; raise :class:`SequenceError` otherwise.

    Rejects input that does not convert, has other than one dimension, is
    empty or holds NaN/Inf samples.
    """
    try:
        arr = np.asarray(x, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise SequenceError(f"not a complex sequence: {exc}") from None
    if arr.ndim != 1:
        raise SequenceError(f"expected a 1-d sequence, got shape {arr.shape}")
    if arr.size < 1:
        raise SequenceError("sequence must hold at least one sample")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise SequenceError("sequence contains non-finite samples")
    return arr
