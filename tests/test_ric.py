import copy
import gc
import importlib
import itertools
import math
import os
import pickle
import sys
import threading
import tracemalloc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest

import ricdft.ric
from ricdft import (
    Direction,
    FoldedSequence,
    LengthMismatchError,
    NormalizationMode,
    OpCounter,
    OutOfRangeError,
    SequenceError,
    compare_values,
    correction_factor,
    dft_direct,
    fold,
    make_plan,
    op_counts,
    read_signal,
    ric_dft,
    ric_idft,
    ric_index_set,
    ric_op_counts,
    synthesize_tones,
    transform,
    verify_against_oracle,
)

from helpers import (
    GOLDEN_FOLD,
    GOLDEN_FORWARD,
    GOLDEN_INVERSE_N,
    GOLDEN_X,
    divisor_pairs,
    fft_radix2,
    naive_dft,
    random_case,
    random_complex,
)

F, I = Direction.FORWARD, Direction.INVERSE
NONE, RECIP, UNITARY = (
    NormalizationMode.NONE,
    NormalizationMode.RECIPROCAL_N,
    NormalizationMode.UNITARY,
)


def test_ric_dft_golden():
    spectrum = ric_dft(GOLDEN_X, make_plan(8, 4), NONE)
    assert spectrum.indices.tolist() == [0, 2, 4, 6]
    np.testing.assert_allclose(spectrum.values, GOLDEN_FORWARD, atol=1e-12)
    assert spectrum.mode is NONE and spectrum.direction is F


def test_ric_dft_zeros():
    plan = make_plan(16, 4)
    spectrum = ric_dft(np.zeros(16), plan, NONE)
    assert spectrum.indices.tolist() == [0, 4, 8, 12]
    assert np.array_equal(spectrum.values, np.zeros(4))


def test_ric_dft_matches_full_direct():
    rng = np.random.default_rng(31)
    plan = make_plan(64, 8)
    for _ in range(5):
        x = random_complex(rng, 64)
        got = ric_dft(x, plan, NONE).values
        want = dft_direct(x)[ric_index_set(plan)]
        scale = float(np.max(np.abs(want)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * scale)


def test_ric_idft_golden():
    # an 8-point spectrum whose column sums give the golden 4-point vector
    spectrum = np.concatenate([GOLDEN_FOLD, np.zeros(4, dtype=np.complex128)])
    plan = make_plan(8, 4)
    out = ric_idft(spectrum, plan, RECIP)
    assert out.indices.tolist() == [0, 2, 4, 6]
    np.testing.assert_allclose(out.values, GOLDEN_INVERSE_N, atol=1e-12)
    # and it must agree with the full 8-point inverse at those indices
    want = dft_direct(spectrum, I, RECIP)[[0, 2, 4, 6]]
    np.testing.assert_allclose(out.values, want, atol=1e-12)


def test_ric_idft_unitary_matches_full():
    rng = np.random.default_rng(32)
    plan = make_plan(32, 4)
    for _ in range(5):
        spectrum = random_complex(rng, 32)
        got = ric_idft(spectrum, plan, UNITARY).values
        want = dft_direct(spectrum, I, UNITARY)[ric_index_set(plan)]
        scale = float(np.max(np.abs(want)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * scale)


def test_ric_idft_zeros():
    plan = make_plan(8, 2)
    out = ric_idft(np.zeros(8), plan, RECIP)
    assert np.array_equal(out.values, np.zeros(2))


def test_ric_index_set():
    assert ric_index_set(make_plan(8, 4)).tolist() == [0, 2, 4, 6]
    assert ric_index_set(make_plan(16, 2)).tolist() == [0, 8]
    for n in (8, 24, 64):
        assert ric_index_set(make_plan(n, 2)).tolist() == [0, n // 2]


def test_ric_index_set_is_derived_from_the_plan():
    # the indices follow from (n, c): each call builds them, and neither a
    # spectrum nor its plan keeps a copy; nothing is written into the plan,
    # by the pipeline or by the oracle, which keeps its record in ricdft.ric
    rng = np.random.default_rng(34)
    for n, c in ((8, 4), (24000, 3000), (2 ** 18, 2 ** 17)):
        plan = make_plan(n, c)
        idx = ric_index_set(plan)
        assert idx.dtype == np.int64
        assert idx.tobytes() == (np.arange(c, dtype=np.int64) * plan.l).tobytes()
        x = random_complex(rng, n)
        for spectrum in (ric_dft(x, plan), ric_idft(x, plan)):
            assert spectrum.indices.dtype == np.int64
            assert spectrum.indices.tobytes() == idx.tobytes()
            assert spectrum.entries == list(zip(idx.tolist(), spectrum.values.tolist()))
        assert vars(plan) == {"n": n, "c": c}
        for direction in (F, I):
            assert verify_against_oracle(x, plan, direction=direction).passed
        assert vars(plan) == {"n": n, "c": c}


def test_normalization_matrix_all_modes_and_directions():
    rng = np.random.default_rng(33)
    for n, c in ((32, 4), (32, 8), (24, 6)):
        plan = make_plan(n, c)
        x = random_complex(rng, n)
        idx = ric_index_set(plan)
        for mode in (NONE, RECIP, UNITARY):
            fwd = ric_dft(x, plan, mode).values
            want = dft_direct(x, F, mode)[idx]
            np.testing.assert_allclose(fwd, want, rtol=0,
                                       atol=1e-9 * float(np.max(np.abs(want))))
            inv = ric_idft(x, plan, mode).values
            want = dft_direct(x, I, mode)[idx]
            np.testing.assert_allclose(inv, want, rtol=0,
                                       atol=1e-9 * float(np.max(np.abs(want))))


def test_sic_square_plan_reduction():
    # l = c = sqrt(n): the retained indices are the multiples of sqrt(n)
    rng = np.random.default_rng(34)
    for n in (16, 64, 256):
        c = int(np.sqrt(n))
        plan = make_plan(n, c)
        assert plan.l == plan.c
        x = random_complex(rng, n)
        got = ric_dft(x, plan, NONE).values
        want = dft_direct(x)[ric_index_set(plan)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * float(np.max(np.abs(want))))


def test_correspondence_large_n_against_numpy():
    # independent reference at a size where the quadratic oracle is too slow
    rng = np.random.default_rng(35)
    n = 2 ** 14
    for c in (2 ** 4, 2 ** 7):
        plan = make_plan(n, c)
        x = random_complex(rng, n)
        got = ric_dft(x, plan, NONE).values
        want = np.fft.fft(x)[ric_index_set(plan)]
        scale = float(np.max(np.abs(want)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * scale)


def test_counter_composition():
    # total cost = fold adds + the c-point engine's own tallies, nothing else
    rng = np.random.default_rng(36)
    for n, c in ((64, 8), (24, 6), (256, 2)):
        plan = make_plan(n, c)
        x = random_complex(rng, n)
        fold_only, engine_only = OpCounter(), OpCounter()
        transform(fold(x, plan, fold_only).samples, F, NONE, engine_only)
        assert (engine_only.complex_adds, engine_only.complex_mults) == op_counts(c)
        assert ric_op_counts(plan) == (fold_only.complex_adds + engine_only.complex_adds,
                                       fold_only.complex_mults + engine_only.complex_mults)


@pytest.mark.parametrize("n", (24, 60, 1024))
@pytest.mark.parametrize("mode", (NONE, RECIP, UNITARY))
@pytest.mark.parametrize("direction", (F, I))
def test_pipeline_is_fold_transform_scale_bit_for_bit(direction, mode, n):
    rng = np.random.default_rng(n)
    x = random_complex(rng, n)
    run = ric_dft if direction is F else ric_idft
    # one unscaled c-point FFT of the fold, then one multiply by the length-n scale
    s = 1 / math.sqrt(n) if mode is UNITARY else 1 / n if (mode, direction) == (RECIP, I) else 1.0
    for c, _ in divisor_pairs(n):
        plan = make_plan(n, c)
        spectrum = run(x, plan, mode)
        sums = fold(x, plan).samples
        unscaled = np.fft.fft(sums) if direction is F else np.fft.ifft(sums, norm="forward")
        assert np.array_equal(spectrum.values, unscaled * s), c
        assert spectrum.direction is direction and spectrum.mode is mode


@pytest.mark.parametrize("n, c", [(1024, 512), (2 ** 16, 2), (24_000, 3_000)])
def test_input_is_never_written_or_aliased(n, c):
    # the pipeline transforms and scales the fold's fresh c sums in place, never x
    x = random_complex(np.random.default_rng(c), n)
    before = x.copy()
    plan = make_plan(n, c)
    runs = ((ric_dft, F), (ric_idft, I))
    for (run, direction), mode in itertools.product(runs, (NONE, RECIP, UNITARY)):
        spectrum = run(x, plan, mode)
        assert not np.shares_memory(spectrum.values, x), (run, mode)
        assert x.tobytes() == before.tobytes(), (run, mode)
        verify_against_oracle(x, plan, mode, direction)
        assert x.tobytes() == before.tobytes(), ("verify", direction, mode)
    # compare_values takes a caller's complex128 arrays as they are, so it
    # forms their difference out of place
    got, oracle = spectrum.values, ricdft.ric._oracle(x, plan, I, UNITARY)
    kept = got.copy(), oracle.copy()
    report = compare_values(got, oracle)
    assert report.passed and report.max_abs_error > 0.0, report
    assert (got.tobytes(), oracle.tobytes()) == (kept[0].tobytes(), kept[1].tobytes())


@pytest.mark.parametrize("n, c, sums", [
    pytest.param(2 ** 18, 2 ** 12, 0, id="4096"),
    pytest.param(2 ** 18, 2 ** 17, 0, id="131072"),
    pytest.param(2 ** 16, 2, 16 * 1024, id="65536-2"),  # rows widened to 1024 values
    pytest.param(3 ** 12, 3, 16 * 1536, id="531441-3"),  # odd l: 1536-value rows, 507 left over
])
@pytest.mark.parametrize("run", (ric_dft, ric_idft))
def test_one_c_point_buffer_per_call(run, n, c, sums):
    # the c sums (16c bytes) become the values; where the fold's rows are wider
    # than c, its first-pass sums (``sums`` bytes) live while it folds them,
    # so they count in the peak; the indices follow from the plan, and the
    # fold builds a c-byte finiteness mask only when the sums' total is not
    # finite; 16c + 1,464 bytes was measured at n = 2^18, and an 8c index set
    # per call or a second c-point array for the FFT's output would exceed
    # the bound
    x, plan = random_complex(np.random.default_rng(3), n), make_plan(n, c)
    run(x, plan, UNITARY)
    tracemalloc.start()
    try:
        run(x, plan, UNITARY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * c + sums + 8192, (peak, 16 * c, sums)


@pytest.mark.parametrize("c", (8, 64, 512))
@pytest.mark.parametrize("direction", (F, I))
def test_one_c_point_array_per_kept_oracle_call(direction, c):
    # n = 4096 splits as B = M = 64, and each kept record is one chunk of
    # P' = max(2, P) residues (2, 2 and 8): Y and G, (P', B) complex each,
    # then the c rows (16c bytes), gathered from G as the output, plus under
    # 1 KiB of array headers (16c + 528 to 816 bytes over Y and G was
    # measured); a preallocated output written from a gathered copy holds
    # a second c-point array (16c + 1,192 to 8,928 bytes over Y and G)
    x, plan = random_complex(np.random.default_rng(c), 4096), make_plan(4096, c)
    ricdft.ric._oracle(x, plan, direction, NONE)
    (_, w, _), = ricdft.ric._KEPT[id(plan)].chunks
    tracemalloc.start()
    try:
        ricdft.ric._oracle(x, plan, direction, NONE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * w.nbytes + 16 * c + 1024, (peak, w.shape, 16 * c)


def test_verify_against_oracle_golden_signal():
    report = verify_against_oracle(GOLDEN_X, make_plan(8, 4), NONE, F)
    assert report.passed
    assert report.max_abs_error < 1e-12


def test_verify_against_oracle_zeros():
    report = verify_against_oracle(np.zeros(8), make_plan(8, 4), NONE, F)
    assert report.passed
    assert report.max_abs_error == 0.0
    assert report.max_rel_error == 0.0


def test_verify_against_oracle_all_divisors_of_24():
    rng = np.random.default_rng(37)
    x = random_complex(rng, 24)
    for c, _ in divisor_pairs(24):
        for direction in (F, I):
            report = verify_against_oracle(x, make_plan(24, c), RECIP, direction)
            assert report.passed, (c, direction, report)


def test_verify_matches_independent_oracle():
    # cross-check the verifier's reference values against the cmath loop
    rng = np.random.default_rng(38)
    x = random_complex(rng, 12)
    plan = make_plan(12, 4)
    got = ric_dft(x, plan, NONE).values
    want = naive_dft(x, -1)[[0, 3, 6, 9]]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_length_mismatch():
    plan = make_plan(8, 4)
    with pytest.raises(LengthMismatchError):
        ric_dft(np.zeros(9), plan, NONE)
    with pytest.raises(LengthMismatchError):
        ric_idft(np.zeros(7), plan, RECIP)
    with pytest.raises(LengthMismatchError):
        verify_against_oracle(np.zeros(4), plan)


def test_tolerance_must_be_finite_and_non_negative():
    x = np.ones(4)
    assert compare_values(x, x, 0.0).passed
    too_long = Fraction(-(10**5000 + 1), 10**4999)  # finite, but no str of it fits the digit limit
    for tol in (float("nan"), float("inf"), -1.0, None, "x", "1e-9", True, [1e-9], 10**400, too_long):
        with pytest.raises(OutOfRangeError):
            compare_values(x, x, tol)
        with pytest.raises(OutOfRangeError):
            verify_against_oracle(GOLDEN_X, make_plan(8, 4), tolerance=tol)


def test_tolerance_checked_before_the_oracle(monkeypatch):
    def oracle(*args, **kwargs):
        raise AssertionError("a transform ran before the tolerance was checked")

    monkeypatch.setattr(ricdft.ric, "_oracle", oracle)
    monkeypatch.setattr(ricdft.ric, "_ric", oracle)
    with pytest.raises(OutOfRangeError):
        verify_against_oracle(GOLDEN_X, make_plan(8, 4), tolerance=float("nan"))


@pytest.mark.parametrize(
    "n, cs",
    [
        (24, None), (60, None), (1024, None), (4096, (8, 64, 512)), (2310, None), (3240, (648,)),
        (8198, (2, 4099)),
    ],
)
def test_oracle_is_the_direct_transform_at_the_retained_rows(n, cs):
    # the same row kernel as dft_direct, whose rows get the same bits in
    # any block of two or more rows, so equal bit for bit; each plan runs
    # forward, inverse, then forward again, so the calls that read the
    # twiddle blocks an earlier call kept are checked too; n = 8198 = 2*4099
    # splits poorly (B = 2, and P = 4099 residues at c = 4099, whose blocks
    # are never kept), so each of its calls runs one mode
    x = random_complex(np.random.default_rng(n), n)
    plans = [make_plan(n, c) for c in cs or [c for c, _ in divisor_pairs(n)]]
    modes = (NONE, RECIP, UNITARY)
    runs = zip((F, I, F), modes) if n == 8198 else itertools.product((F, I, F), modes)
    for direction, mode in runs:
        full = dft_direct(x, direction, mode)
        for plan in plans:
            got = ricdft.ric._oracle(x, plan, direction, mode)
            assert got.tobytes() == full[ric_index_set(plan)].tobytes(), (plan, direction, mode)


def test_oracle_keeps_read_only_twiddles_per_live_plan(monkeypatch):
    rng = np.random.default_rng(41)
    calls = []

    def counting(m, step):
        calls.append((m, step))
        return ricdft.engine._twiddles(m, step)

    monkeypatch.setattr(ricdft.ric, "_twiddles", counting)
    # P = 128 residues of M = 256, each with M residue twiddles and B = 256
    # values of w: 2**16, the limit, for 32,768 rows
    plan = make_plan(65536, 32768)
    x = random_complex(rng, plan.n)
    assert verify_against_oracle(x, plan).passed
    assert calls == [(65536, 2)]  # one call for a fresh plan: its record says what to keep
    kept = ricdft.ric._KEPT[id(plan)]
    assert isinstance(kept.chunks, tuple)
    blocks = [t for ts, _, _ in kept.chunks for _, t in ts] + [w for _, w, _ in kept.chunks]
    before = [block.copy() for block in blocks]
    assert sum(block.size for block in blocks) == kept.values == ricdft.ric._KEPT_CELLS
    # the inverse conjugates each residue block into a fresh array and its own
    # residue sums in place, never a kept block
    ricdft.ric._oracle(x, plan, I, UNITARY)
    assert ricdft.ric._KEPT[id(plan)] is kept
    for block, old in zip(blocks, before):
        assert not block.flags.writeable and block.tobytes() == old.tobytes()
    # the record belongs to the plan object: an equal, copied or pickled plan
    # has none, so it rebuilds its own blocks read-only
    for other in (make_plan(65536, 32768), copy.copy(plan), pickle.loads(pickle.dumps(plan))):
        assert other == plan and id(other) not in ricdft.ric._KEPT
    # 116 * (348 + 217) = 65,540 and 138 * (276 + 199) = 65,550 values: just
    # over the limit, nothing kept
    for n, c in ((75516, 25172), (54924, 27462)):
        big = make_plan(n, c)
        ricdft.ric._oracle(random_complex(rng, n), big, F, NONE)
        assert id(big) not in ricdft.ric._KEPT
    # the record dies with its plan
    block, key = weakref.ref(blocks[0]), id(plan)
    del plan, kept, blocks
    gc.collect()
    assert block() is None and key not in ricdft.ric._KEPT


def test_kept_records_under_threads():
    # four threads, more than the cores, verify on one shared plan and on
    # fresh plans of their own with a short switch interval: each report
    # has the serial run's bits, the shared plan ends with one record, and
    # every fresh plan's record goes with its plan
    rng = np.random.default_rng(43)
    plan, xs = make_plan(4096, 64), [random_complex(rng, 4096) for _ in range(4)]
    want = [_bits(verify_against_oracle(x, make_plan(4096, 64))) for x in xs]
    before, got = set(ricdft.ric._KEPT), [set() for _ in xs]

    def work(i):
        for _ in range(10):
            for shared in (plan, make_plan(4096, 64)):
                got[i].add(tuple(_bits(verify_against_oracle(xs[i], shared))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(xs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [{tuple(bits)} for bits in want]
    gc.collect()
    assert set(ricdft.ric._KEPT) - before == {id(plan)}


def test_second_verify_under_a_kept_plan_gathers_nothing(monkeypatch):
    # the second call reads the kept blocks: no gather, and no index set,
    # as verify builds no spectrum and the oracle reads its rows by step;
    # it converts x once, builds no FoldedSequence and finds the kept
    # record without hashing the plan
    plan = make_plan(4096, 512)
    x = random_complex(np.random.default_rng(42), plan.n)
    verify_against_oracle(x, plan)
    assert id(plan) in ricdft.ric._KEPT
    calls = []

    def counting(fn, name):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ricdft.ric, "_twiddles", counting(ricdft.ric._twiddles, "_twiddles"))
    monkeypatch.setattr(ricdft.ric, "ric_index_set", counting(ricdft.ric.ric_index_set, "index set"))
    for module in (ricdft.ric, importlib.import_module("ricdft.fold")):  # ricdft.fold is the function
        monkeypatch.setattr(module, "_complex_array", counting(module._complex_array, "convert"))
    monkeypatch.setattr(FoldedSequence, "__init__", counting(FoldedSequence.__init__, "folded"))
    monkeypatch.setattr(type(plan), "__hash__", counting(type(plan).__hash__, "hash"))
    assert verify_against_oracle(x, plan, direction=I).passed
    assert calls == ["convert"]


def test_oracle_is_independent_of_the_fast_path(monkeypatch):
    x = random_complex(np.random.default_rng(39), 96)
    plans = [make_plan(96, c) for c in (2, 12, 48)]
    want = [ricdft.ric._oracle(x, plan, F, UNITARY) for plan in plans]

    def fast_path(*args, **kwargs):
        raise AssertionError("the oracle used the fold or the c-point transform")

    monkeypatch.setattr(ricdft.ric, "_fold", fast_path)
    monkeypatch.setattr(ricdft.ric, "_fft", fast_path)
    for plan, values in zip(plans, want):
        assert ricdft.ric._oracle(x, plan, F, UNITARY).tobytes() == values.tobytes()


def test_oracle_rejects_a_sequence_of_the_wrong_length(monkeypatch):
    # the fold rejects it, so the oracle, which checks nothing, never runs
    def oracle(*args, **kwargs):
        raise AssertionError("the oracle ran on a sequence of the wrong length")

    monkeypatch.setattr(ricdft.ric, "_oracle", oracle)
    for direction in (F, I):
        with pytest.raises(LengthMismatchError):
            verify_against_oracle(np.ones(12), make_plan(8, 4), NONE, direction)


def _bits(report):
    return [np.float64(v).tobytes() for v in (report.max_abs_error, report.max_rel_error,
                                              report.tolerance)] + [report.passed]


@pytest.mark.parametrize("case", range(60))
def test_verify_reports_the_pipeline_against_the_oracle_bit_for_bit(case):
    # every field of verify's report equals the report on ric_dft/ric_idft's
    # values minus the oracle's rows (compare_values, which is _report on
    # got - oracle), for a fresh plan and for the same plan reading its kept
    # twiddle record
    _, plan, x = random_case(case)
    runs = ((ric_dft, F), (ric_idft, I))
    for (run, direction), mode in itertools.product(runs, (NONE, RECIP, UNITARY)):
        oracle = ricdft.ric._oracle(x, plan, direction, mode)
        want = compare_values(run(x, plan, mode).values, oracle, 1e-12)
        fresh = make_plan(plan.n, plan.c)
        for kept in (False, True):
            assert (id(fresh) in ricdft.ric._KEPT) is kept
            got = verify_against_oracle(x, fresh, mode, direction, 1e-12)
            assert _bits(got) == _bits(want), (plan, direction, mode, kept, got, want)


@pytest.mark.parametrize("n, c", [(2 ** 16, 16), (24_000, 12)])
def test_verify_against_oracle_at_realistic_n(n, c):
    # the full direct transform needs n**2 (4.3e9 at n = 2**16) twiddle products, the oracle n*c
    x = random_complex(np.random.default_rng(n), n)
    plan = make_plan(n, c)
    assert verify_against_oracle(x, plan).passed
    oracle = ricdft.ric._oracle(x, plan, F, NONE)
    assert compare_values(oracle, np.fft.fft(x)[:: plan.l], 1e-12).passed


@pytest.mark.parametrize("mode", (NONE, RECIP, UNITARY))
@pytest.mark.parametrize("direction", (F, I))
def test_string_values_act_as_members(direction, mode):
    x = random_complex(np.random.default_rng(7), 16)
    plan = make_plan(16, 4)
    calls = {
        "ric_dft": lambda d, m: ric_dft(x, plan, m).values,
        "ric_idft": lambda d, m: ric_idft(x, plan, m).values,
        "transform radix-2": lambda d, m: transform(x[:8], d, m),
        "transform direct": lambda d, m: transform(x[:6], d, m),
        "dft_direct": lambda d, m: dft_direct(x, d, m),
        "fft_radix2": lambda d, m: fft_radix2(x, d, m),
        "correction_factor": lambda d, m: np.float64(correction_factor(m, d, plan)),
    }
    for name, call in calls.items():
        assert call(direction.value, mode.value).tobytes() == call(direction, mode).tobytes(), name
    assert (verify_against_oracle(x, plan, mode.value, direction.value)
            == verify_against_oracle(x, plan, mode, direction))
    spectrum = ricdft.ric._ric(x, plan, direction.value, mode.value)
    assert spectrum.direction is direction and spectrum.mode is mode


def test_unknown_direction_or_mode_raises():
    x, plan = GOLDEN_X, make_plan(8, 4)
    calls = (
        lambda: ric_dft(x, plan, "bogus"),
        lambda: ric_idft(x, plan, "bogus"),
        lambda: transform(x, "bogus"),
        lambda: transform(x[:6], F, "bogus"),
        lambda: dft_direct(x, "bogus"),
        lambda: fft_radix2(x, F, "bogus"),
        lambda: correction_factor("bogus", F, plan),
        lambda: correction_factor(NONE, "bogus", plan),
        lambda: verify_against_oracle(x, plan, "bogus"),
        lambda: verify_against_oracle(x, plan, NONE, "bogus"),
        lambda: ric_dft(x, plan, 10**5000),  # too long to print whole
        lambda: verify_against_oracle(x, plan, NONE, 10**5000),
    )
    for call in calls:
        with pytest.raises(OutOfRangeError):
            call()


def test_compare_values_rejects_mismatched_input():
    with pytest.raises(LengthMismatchError):
        compare_values([0], [1, 2, 3])
    for got, oracle in (([], []), ([[1, 2]], [[1, 2]]), (1.0, 1.0), ([1], [])):
        with pytest.raises(SequenceError):
            compare_values(got, oracle)
    assert not compare_values([np.nan, 1], [1, 1]).passed


ORACLE_OVERFLOW = "non-finite values in the oracle, or a magnitude that overflows float64"


def test_compare_values_overflow_fails_and_a_non_finite_oracle_raises():
    # a difference beyond float64 is a failing report, not a warning; a NaN/Inf
    # reference, or one whose magnitude overflows (|1.5e308 + 1.5e308j| > max
    # float), raises SequenceError, read off the maximum the report takes
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        report = compare_values([1e308], [-1e308])
        assert (report.max_abs_error, report.max_rel_error, report.passed) == (math.inf, math.inf, False)
        for oracle in ([np.nan], [1, np.inf], [-np.inf + 1j], [1.5e308 + 1.5e308j]):
            with pytest.raises(SequenceError) as err:
                compare_values(np.zeros(len(oracle)), oracle)
            assert str(err.value) == ORACLE_OVERFLOW, oracle


def test_verify_raises_when_only_the_oracle_overflows():
    # 1e308, 0, 1e308, 0, -1e308, 0, -1e308, 0 at n = 8, c = 2: the fold's sums
    # cancel, so the pipeline's values are 0, but the oracle's residue sums
    # reach 2e308; verify raises SequenceError in both directions and every
    # mode, with no numpy warning, rather than reporting a failure
    x = read_signal(os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                                 "oracle_overflow.csv"))
    plan = make_plan(8, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for direction, mode in itertools.product(Direction, NormalizationMode):
            run = ric_dft if direction is F else ric_idft
            assert not run(x, plan, mode).values.any()
            with pytest.raises(SequenceError) as err:
                verify_against_oracle(x, plan, mode, direction)
            assert str(err.value) == ORACLE_OVERFLOW, (direction, mode)
    # finite oracle values whose magnitude overflows: against an infinite
    # maximum any finite error would read a max_rel_error of 0, a false pass
    with pytest.raises(SequenceError) as err:
        verify_against_oracle([1.7e308, 1.7e308j, 0, 0], make_plan(4, 2))
    assert str(err.value) == ORACLE_OVERFLOW


def test_every_public_computation_keeps_the_callers_error_state():
    # each runs under the package's one guard: on values beyond float64 it
    # raises its typed error (or, for compare_values, fails its report) with
    # no warning under a raising error state, and that state is kept
    plan, big = make_plan(4, 2), np.array([1e308, -1e308, 0, 0], dtype=complex)
    calls = [lambda: fold(np.full(4, 1e308), plan), lambda: ric_dft(big, plan),
             lambda: ric_idft(big, plan), lambda: verify_against_oracle(big, plan),
             lambda: transform([1e308, 1e308]), lambda: dft_direct([1e308, 1e308]),
             lambda: synthesize_tones(4, [(1, 1e308, 0), (1, 1e308, 0)])]
    outside = np.geterr()
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        inside = np.geterr()
        for call in calls:
            with pytest.raises((SequenceError, OutOfRangeError)):
                call()
            assert np.geterr() == inside
        assert not compare_values([1e308], [-1e308]).passed
        assert np.geterr() == inside
    assert np.geterr() == outside


def test_entries_view():
    spectrum = ric_dft(GOLDEN_X, make_plan(8, 4), NONE)
    entries = spectrum.entries
    assert [idx for idx, _ in entries] == [0, 2, 4, 6]
    assert entries[0][1] == pytest.approx(6 + 4j, abs=1e-12)
