import dataclasses

import numpy as np
import pytest

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


def test_ric_plan_checks_itself():
    assert RicPlan(8, 4) == make_plan(8, 4)
    assert [f.name for f in dataclasses.fields(RicPlan)] == ["n", "c"]
    for n, c in ((8.0, 4.0), (8, 4.0), (True, 2), (8, True), (16, 1), (16, 12), (16, 16), (2, 2)):
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
    for bad in ([], [[1, 2], [3, 4]], [1, float("nan")], [complex(0, float("inf"))], ["x"]):
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
    ctr.add(4)
    ctr.mul()
    ctr.mul(2)
    assert (ctr.complex_adds, ctr.complex_mults) == (4, 3)
    ctr.reset()
    assert (ctr.complex_adds, ctr.complex_mults) == (0, 0)
