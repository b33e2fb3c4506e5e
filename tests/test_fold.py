import importlib
import itertools
import math
import types

import numpy as np
import pytest

from ricdft import (
    Direction,
    LengthMismatchError,
    NormalizationMode,
    OpCounter,
    SequenceError,
    fold,
    fold_spectrum,
    make_plan,
    ric_dft,
    ric_idft,
    verify_against_oracle,
)

from helpers import GOLDEN_FOLD, GOLDEN_X, divisor_pairs, naive_fold, random_complex


def test_fold_golden_example_exact():
    plan = make_plan(8, 4)
    ctr = OpCounter()
    out = fold(GOLDEN_X, plan, ctr).samples
    # integer-valued input: the column sums must be exact
    assert np.array_equal(out, GOLDEN_FOLD)
    assert ctr.complex_adds == 4 and ctr.complex_mults == 0


def test_fold_zeros_and_impulse():
    plan = make_plan(8, 4)
    assert np.array_equal(fold(np.zeros(8), plan).samples, np.zeros(4))

    plan = make_plan(16, 4)
    impulse = np.zeros(16, dtype=np.complex128)
    impulse[0] = 1.0
    assert np.array_equal(fold(impulse, plan).samples, np.array([1, 0, 0, 0], dtype=np.complex128))


def test_fold_matches_double_loop_oracle():
    # every shape the two-pass kernel can take: odd l, prime c, l = 2, and
    # depths that are halved once, several times or not at all
    rng = np.random.default_rng(11)
    for n in (8, 12, 24, 30, 45, 60, 64, 6720, 2 ** 16):
        for c, l in divisor_pairs(n):
            plan = make_plan(n, c)
            ints = random_complex(rng, n, integer=True)
            assert np.array_equal(fold(ints, plan).samples, naive_fold(ints, n, c)), (n, c)
            # a stride-2 view: the kernel must not assume contiguous input
            x = random_complex(rng, 2 * n)[::2]
            ctr = OpCounter()
            got = fold(x, plan, ctr).samples
            scale = np.abs(x.reshape(l, c)).sum(axis=0)  # both sums are inexact
            assert np.all(np.abs(got - naive_fold(x, n, c)) <= 1e-12 * scale), (n, c)
            assert (ctr.complex_adds, ctr.complex_mults) == (c * (l - 1), 0)
            # the output is fresh: writing to it leaves x untouched
            before = x.copy()
            got[:] = 7.0
            assert np.array_equal(x, before)


def test_fold_spectrum_same_kernel():
    assert fold_spectrum is fold
    rng = np.random.default_rng(12)
    spectrum = random_complex(rng, 8)
    plan = make_plan(8, 4)
    np.testing.assert_array_equal(fold_spectrum(spectrum, plan).samples, fold(spectrum, plan).samples)
    np.testing.assert_allclose(
        fold_spectrum(spectrum, plan).samples, naive_fold(spectrum, 8, 4), rtol=0, atol=1e-12
    )


def test_fold_module_is_reached_through_import_module():
    # the package binds ricdft.fold to the function, so `import ricdft.fold as m`
    # gives the function; import_module gives the module that defines it
    module = importlib.import_module("ricdft.fold")
    assert isinstance(module, types.ModuleType)
    assert module.fold is fold and module.fold_spectrum is fold
    assert callable(module._fold)


def test_fold_spectrum_constant():
    plan = make_plan(8, 4)
    out = fold_spectrum(np.ones(8, dtype=np.complex128), plan).samples
    assert np.array_equal(out, np.full(4, 2.0 + 0j))
    assert np.array_equal(fold_spectrum(np.zeros(8), plan).samples, np.zeros(4))


def test_fold_linearity():
    rng = np.random.default_rng(13)
    plan = make_plan(24, 6)
    x, y = random_complex(rng, 24), random_complex(rng, 24)
    a, b = 0.7 - 0.2j, -0.9 + 0.4j
    lhs = fold(a * x + b * y, plan).samples
    rhs = a * fold(x, plan).samples + b * fold(y, plan).samples
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_fold_composition():
    # folding n -> c then c -> c2 equals folding n -> c2 directly
    rng = np.random.default_rng(14)
    n, c, c2 = 48, 12, 4
    x = random_complex(rng, n, integer=True)  # integers keep both routes exact
    two_step = fold(fold(x, make_plan(n, c)).samples, make_plan(c, c2)).samples
    one_step = fold(x, make_plan(n, c2)).samples
    assert np.array_equal(two_step, one_step)

    x = random_complex(rng, n)
    two_step = fold(fold(x, make_plan(n, c)).samples, make_plan(c, c2)).samples
    one_step = fold(x, make_plan(n, c2)).samples
    np.testing.assert_allclose(two_step, one_step, rtol=0, atol=1e-12)


def test_fold_without_widening_is_one_column_sum():
    # l odd or l <= c leaves the width at c, so the fold is one pass of column sums
    rng = np.random.default_rng(16)
    for n in (24, 36, 60, 96, 2310):
        x = random_complex(rng, n)
        for c, l in divisor_pairs(n):
            if l % 2 == 1 or l <= c:
                want = np.add.reduce(x.reshape(l, c), axis=0)
                assert fold(x, make_plan(n, c)).samples.tobytes() == want.tobytes(), (n, c)


@pytest.mark.parametrize("n", [2 ** 16, 3 * 2 ** 15, 2 ** 18])
def test_fold_of_wide_rows_is_one_column_sum(n):
    # rows of _WIDE values or more are added one at a time in row order, not
    # by one reduce: the same additions in the same order, so the same bytes,
    # for contiguous and strided input alike
    wide = importlib.import_module("ricdft.fold")._WIDE
    rng = np.random.default_rng(n)
    for l in (2, 3, 4, 8, 16):
        if n % l:
            continue
        c = n // l
        assert c >= wide or n < 2 ** 18  # every n = 2**18 plan takes the wide path
        for x in (random_complex(rng, n), random_complex(rng, 2 * n)[::2]):
            want = np.add.reduce(x.reshape(l, c), axis=0)
            assert fold(x, make_plan(n, c)).samples.tobytes() == want.tobytes(), (n, l, x.strides)


def test_fold_count_exactness_every_plan():
    rng = np.random.default_rng(15)
    for n in (8, 16, 24, 36, 64, 128):
        x = random_complex(rng, n)
        for c, l in divisor_pairs(n):
            ctr = OpCounter()
            fold(x, make_plan(n, c), ctr)
            assert ctr.complex_adds == c * (l - 1)
            assert ctr.complex_mults == 0
            # per-coefficient reading of the same cost
            assert ctr.complex_adds // c == l - 1


def test_fold_tone_concentration():
    # a tone on retained bin m*l folds to l * W_c^{+m c}
    rng = np.random.default_rng(16)
    for n, c in ((64, 8), (256, 16), (24, 6)):
        plan = make_plan(n, c)
        m = int(rng.integers(0, c))
        samples = np.exp(2j * np.pi * (m * plan.l) * np.arange(n) / n)
        expected = plan.l * np.exp(2j * np.pi * m * np.arange(c) / c)
        got = fold(samples, plan).samples
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-10)


def test_fold_length_mismatch():
    plan = make_plan(8, 4)
    with pytest.raises(LengthMismatchError):
        fold(np.zeros(7), plan)
    with pytest.raises(LengthMismatchError):
        fold_spectrum(np.zeros(9), plan)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fold_rejects_non_finite():
    # finiteness is checked on the c column sums; every NaN/Inf must reach
    # them, and a rejected input raises the typed error and no numpy warning;
    # verify_against_oracle relies on it, as its oracle checks nothing
    n = 24
    cases = []
    for bad in (math.nan, math.inf, -math.inf):
        for part in ("real", "imag"):
            for pos in range(n):
                x = np.ones(n, dtype=np.complex128)
                getattr(x, part)[pos] = bad
                cases += [(x, c) for c, _ in divisor_pairs(n)]
    for part in ("real", "imag"):  # +Inf and -Inf in the same column sum to NaN
        x = np.zeros(n, dtype=np.complex128)
        getattr(x, part)[[5, 5 + 6]] = math.inf, -math.inf
        cases.append((x, 6))
    cases.append((np.full(8, 1e308), 4))  # finite samples, overflowing sum
    for x, c in cases:
        plan = make_plan(len(x), c)
        for fn in (fold, ric_dft, ric_idft, verify_against_oracle):
            with pytest.raises(SequenceError):
                fn(x, plan)


NON_FINITE = "non-finite values in the sequence, or a column sum overflows"


@pytest.mark.parametrize("n", [24, 64])
def test_fold_total_check_rejects_what_the_full_check_rejected(n):
    # the fold checks one total of its c sums and each sum only when that
    # total is not finite: every NaN/Inf sample and every overflowing column
    # sum still raise the one message, at every plan and position
    for c, _ in divisor_pairs(n):
        plan = make_plan(n, c)
        for bad, part, pos in itertools.product((math.nan, math.inf, -math.inf), ("real", "imag"),
                                                range(n)):
            x = np.ones(n, dtype=np.complex128)
            getattr(x, part)[pos] = bad
            with pytest.raises(SequenceError) as err:
                fold(x, plan)
            assert str(err.value) == NON_FINITE, (c, bad, part, pos)
        for big, part, col in itertools.product((1e308, -1e308), ("real", "imag"), range(c)):
            x = np.zeros(n, dtype=np.complex128)
            getattr(x, part)[[col, col + c]] = big  # two samples of one column
            with pytest.raises(SequenceError) as err:
                fold(x, plan)
            assert str(err.value) == NON_FINITE, (c, big, part, col)


def test_fold_of_wide_rows_rejects_what_one_reduce_rejected():
    # at a plan whose rows are added one at a time: a NaN past the first add
    # and a column that overflows raise the one message, by any entry point
    n, c = 2 ** 16, 2 ** 14
    assert c >= importlib.import_module("ricdft.fold")._WIDE
    plan = make_plan(n, c)
    nan, big = np.ones(n, dtype=np.complex128), np.zeros(n, dtype=np.complex128)
    nan[3 * c + 7] = math.nan  # row 3
    big.real[[5, 5 + c]] = 1e308  # column 5
    for x in (nan, big):
        for fn in (fold, ric_dft, ric_idft, verify_against_oracle):
            with pytest.raises(SequenceError) as err:
                fn(x, plan)
            assert str(err.value) == NON_FINITE, (fn, x[5])


def test_fold_finite_sums_whose_total_overflows_pass():
    # two columns of 1e308 are finite sums whose total overflows: the full
    # check runs, finds each sum finite, and the sums come back unchanged
    for n in (24, 64, 4096):
        for c, _ in divisor_pairs(n):
            for part in ("real", "imag"):
                x = np.zeros(n, dtype=np.complex128)
                getattr(x, part)[[0, 1]] = 1e308
                want = np.zeros(c, dtype=np.complex128)
                getattr(want, part)[[0, 1]] = 1e308
                assert fold(x, make_plan(n, c)).samples.tobytes() == want.tobytes(), (n, c, part)


@pytest.mark.filterwarnings("error")
def test_fold_keeps_its_error_state_under_a_raising_caller():
    # the fold ignores overflow and invalid results inside itself whatever the
    # caller's error state: under all="raise" a NaN sample, Inf - Inf in one
    # column and an overflowing column sum raise only the one SequenceError,
    # finite sums whose total overflows pass, and the caller's state is kept
    plan = make_plan(8, 4)
    nan, inf_minus_inf, overflow = np.ones(8, complex), np.zeros(8, complex), np.zeros(8, complex)
    nan[3] = math.nan
    inf_minus_inf[[1, 5]] = math.inf, -math.inf
    overflow[[2, 6]] = 1e308
    big_total = np.zeros(8, complex)
    big_total[[0, 1]] = 1e308
    outside = np.geterr()
    with np.errstate(all="raise"):
        before = np.geterr()
        for x in (nan, inf_minus_inf, overflow):
            with pytest.raises(SequenceError) as err:
                fold(x, plan)
            assert str(err.value) == NON_FINITE
        assert fold(big_total, plan).samples.tobytes() == big_total[:4].tobytes()
        assert np.geterr() == before == {"divide": "raise", "over": "raise", "under": "raise",
                                         "invalid": "raise"}
    assert np.geterr() == outside



OVERFLOW = "non-finite values in the transform, which overflows float64"


def test_transform_that_overflows_raises_the_typed_error():
    # finite samples and finite column sums whose c-point transform overflows
    # float64 (X[1] = 1e308 - (-1e308)): fold passes them, and every entry
    # point that transforms them raises SequenceError naming the overflow, in
    # either direction and every mode, with no numpy warning even when the
    # caller's error state raises
    x, plan = np.array([1e308, -1e308, 0, 0], dtype=np.complex128), make_plan(4, 2)
    assert fold(x, plan).samples.tobytes() == x[:2].tobytes()
    with np.errstate(all="raise"):
        for mode in NormalizationMode:
            for fn in (ric_dft, ric_idft):
                with pytest.raises(SequenceError) as err:
                    fn(x, plan, mode)
                assert str(err.value) == OVERFLOW, (fn, mode)
            for direction in Direction:
                with pytest.raises(SequenceError) as err:
                    verify_against_oracle(x, plan, mode, direction)
                assert str(err.value) == OVERFLOW, (mode, direction)


def test_finite_sums_whose_transform_overflows_raise_through_the_pipeline():
    # the inputs fold passes in test_fold_finite_sums_whose_total_overflows_pass:
    # X[0] (and the unscaled inverse's x[0]) is 1e308 + 1e308, which overflows
    for n in (24, 64, 4096):
        for c, _ in divisor_pairs(n):
            for part in ("real", "imag"):
                x = np.zeros(n, dtype=np.complex128)
                getattr(x, part)[[0, 1]] = 1e308
                for fn in (ric_dft, ric_idft):
                    with pytest.raises(SequenceError) as err:
                        fn(x, make_plan(n, c))
                    assert str(err.value) == OVERFLOW, (n, c, part, fn)


def _pass_lengths(l, c):
    # the two pass lengths of fold's kernel: l' rows of width w, then w/c rows
    w = c
    while l % 2 == 0 and l > w:
        l, w = l // 2, w * 2
    return l, w // c


@pytest.mark.parametrize("kind", ["random", "cancelling"])
def test_fold_error_against_fsum(kind):
    # recursive summation over each pass: |error| <= (l' + w/c) u sum|x_col|
    n = 2 ** 18
    rng = np.random.default_rng(17)
    x = random_complex(rng, n)
    if kind == "cancelling":
        # +v at i and -v at i + n/2 (|v| ~ 1e8), in the same column for every c,
        # under O(1) noise: column sums are tiny next to sum|x_col|
        v = 1e8 * (rng.uniform(1, 2, n // 2) + 1j * rng.uniform(1, 2, n // 2))
        x = x + np.concatenate([v, -v])
    for q in range(1, 18):
        l = 2 ** q
        c = n // l
        got = fold(x, make_plan(n, c)).samples
        cols = x.reshape(l, c).T
        exact = np.array([complex(math.fsum(re), math.fsum(im))
                          for re, im in zip(cols.real.tolist(), cols.imag.tolist())])
        l1, l2 = _pass_lengths(l, c)
        bound = (l1 + l2) * 2.0 ** -53 * np.abs(cols).sum(axis=1)
        assert np.all(np.abs(got - exact) <= bound), (kind, l)
