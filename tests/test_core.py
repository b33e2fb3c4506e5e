import dataclasses
import types
from fractions import Fraction

import numpy as np
import pytest

import ricdft
from ricdft import (
    Direction,
    NonDivisorError,
    NormalizationMode,
    OpCounter,
    OutOfRangeError,
    RicPlan,
    SequenceError,
    as_complex_sequence,
    correction_factor,
    fold,
    make_plan,
)

from ricdft.core import _tally

from helpers import divisor_pairs, naive_fold


def test_make_plan_basic():
    plan = make_plan(8, 4)
    assert (plan.n, plan.c, plan.l) == (8, 4, 2)
    assert (plan.q, plan.p) == (3, 2)

    plan = make_plan(16, 2)
    assert (plan.n, plan.c, plan.l, plan.q, plan.p) == (16, 2, 8, 4, 1)


def test_make_plan_general_composites():
    plan = make_plan(24, 6)
    assert (plan.n, plan.c, plan.l) == (24, 6, 4)
    assert plan.q is None and plan.p is None
    # power-of-two c under a non-power-of-two n still has no exponent view
    plan = make_plan(24, 4)
    assert plan.q is None and plan.p is None


def test_make_plan_errors():
    with pytest.raises(NonDivisorError):
        make_plan(16, 5)
    with pytest.raises(OutOfRangeError):
        make_plan(16, 1)
    with pytest.raises(OutOfRangeError):
        make_plan(16, 16)  # identity plan rejected; use the engine directly
    with pytest.raises(OutOfRangeError):
        make_plan(16, 12)  # divides nothing anyway, but range fires first
    with pytest.raises(OutOfRangeError):
        make_plan(2, 2)
    # integers too long to print whole are described by their size, still typed
    with pytest.raises(OutOfRangeError, match="-<16610-bit integer>"):
        make_plan(-10**5000, 2)
    with pytest.raises(NonDivisorError, match="<16610-bit integer>"):
        make_plan(10**5000, 3)
    with pytest.raises(OutOfRangeError):
        make_plan(8, 10**5000)


def test_ric_plan_checks_itself():
    assert make_plan is RicPlan
    assert [f.name for f in dataclasses.fields(RicPlan)] == ["n", "c"]
    too_long = Fraction(10**5000)  # integral in value, but no int and too long to print
    for n, c in ((8.0, 4.0), (8, 4.0), (True, 2), (8, True), (16, 1), (16, 12), (16, 16), (2, 2),
                 (too_long, 2)):
        with pytest.raises(OutOfRangeError):
            RicPlan(n, c)
    with pytest.raises(NonDivisorError):
        RicPlan(16, 5)
    with pytest.raises(TypeError):
        RicPlan(8, 4, 2)  # l, q and p are derived, never stored
    plan = RicPlan(np.int64(24), np.int32(6))
    assert (plan.n, plan.c, plan.l, plan.q, plan.p) == (24, 6, 4, None, None)
    assert all(type(v) is int for v in (plan.n, plan.c, plan.l))


def test_make_plan_rejects_non_integral_sizes():
    for n, c in ((8.5, 2), (8, 2.5), (8.0, 2), ("8", 2)):
        with pytest.raises(OutOfRangeError):
            make_plan(n, c)


def test_make_plan_rejects_bool_sizes():
    for n, c in ((True, 2), (8, True), (np.True_, 2)):
        with pytest.raises(OutOfRangeError):
            make_plan(n, c)


def test_make_plan_accepts_numpy_integers():
    plan = make_plan(np.int64(16), np.int32(4))
    assert plan == make_plan(16, 4)
    assert all(type(v) is int for v in (plan.n, plan.c, plan.l, plan.q, plan.p))


def test_as_complex_sequence_errors_are_typed():
    for bad in ([], [[1, 2], [3, 4]], [1, float("nan")], [complex(0, float("inf"))], ["x"],
                [10**400]):
        with pytest.raises(SequenceError):
            as_complex_sequence(bad)
    assert issubclass(SequenceError, ValueError)


def test_rect_flat_round_trip_is_permutation():
    # the l x c arrangement is row-major: flat index row*c + col holds
    # (row, col), every cell once, and the fold sends it to column col only
    for n in (8, 12, 16, 24, 36, 64):
        for c, l in divisor_pairs(n):
            plan = make_plan(n, c)
            cells = set()
            for flat in range(n):
                row, col = divmod(flat, c)
                assert 0 <= row < l and row * c + col == flat
                cells.add((row, col))
                x = np.zeros(n, dtype=np.complex128)
                x[flat] = 1.0
                got = fold(x, plan).samples
                want = np.zeros(c, dtype=np.complex128)
                want[col] = 1.0
                assert np.array_equal(got, want)
                assert np.array_equal(got, naive_fold(x, n, c))
            assert cells == {(row, col) for row in range(l) for col in range(c)}


def test_rect_to_flat_examples():
    plan = make_plan(8, 4)
    for (row, col), flat in (((0, 0), 0), ((1, 2), 6), ((plan.l - 1, plan.c - 1), plan.n - 1)):
        x = np.zeros(plan.n, dtype=np.complex128)
        x[flat] = 1.0
        got = fold(x, plan).samples
        assert row * plan.c + col == flat
        assert got.tolist() == [1.0 if j == col else 0.0 for j in range(plan.c)]
    x = np.arange(8, dtype=np.complex128)
    assert np.array_equal(fold(x, plan).samples, naive_fold(x, 8, 4))
    assert fold(x, plan).samples.tolist() == [0 + 4, 1 + 5, 2 + 6, 3 + 7]


def test_correction_factors():
    plan = make_plan(32, 4)  # l = 8
    F, I = Direction.FORWARD, Direction.INVERSE
    assert correction_factor(NormalizationMode.NONE, F, plan) == 1.0
    assert correction_factor(NormalizationMode.NONE, I, plan) == 1.0
    assert correction_factor(NormalizationMode.RECIPROCAL_N, F, plan) == 1.0
    assert correction_factor(NormalizationMode.RECIPROCAL_N, I, plan) == 1.0 / 8
    assert correction_factor(NormalizationMode.UNITARY, F, plan) == pytest.approx(1 / np.sqrt(8))
    assert correction_factor(NormalizationMode.UNITARY, I, plan) == pytest.approx(1 / np.sqrt(8))


def test_op_counter():
    ctr = OpCounter()
    assert (ctr.complex_adds, ctr.complex_mults) == (0, 0)
    assert repr(ctr) == "OpCounter(complex_adds=0, complex_mults=0)"
    _tally(None, (4, 3))  # no counter, nothing written
    _tally(ctr, (4, 0))
    _tally(ctr, (1, 3))
    assert ctr == OpCounter(complex_adds=5, complex_mults=3)
    assert repr(ctr) == "OpCounter(complex_adds=5, complex_mults=3)"


PUBLIC_NAMES = [
    "Assignment", "Direction", "FoldedSequence", "InfeasibleError", "LengthMismatchError",
    "NonDivisorError", "NormalizationMode", "OpCounter", "OutOfRangeError", "PlanProposal",
    "RicPlan", "RicSpectrum", "RicdftError", "SequenceError", "SignalFileError", "SignalFormat",
    "VerificationReport", "as_complex_sequence", "compare_values", "correction_factor",
    "coverage_report", "dft_direct", "fold", "fold_spectrum", "is_power_of_two", "make_plan",
    "op_counts", "plan_for_frequencies", "read_signal", "ric_dft", "ric_idft", "ric_index_set",
    "ric_op_counts", "synthesize_tones", "transform", "verify_against_oracle", "write_signal",
    "write_spectrum",
]


def test_public_names_are_the_38_and_star_import_binds_no_module():
    assert ricdft.__all__ == PUBLIC_NAMES
    namespace = {}
    exec("from ricdft import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
