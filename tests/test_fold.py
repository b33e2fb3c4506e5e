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
    # every path of the kernel's rule: odd l with rows left over, prime c,
    # l = 2, and rows widened once, several times or not at all
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


def _columns(a, w):
    # one reduce of a's rows of w values over axis 0
    return np.add.reduce(a.reshape(-1, w), axis=0)


def _with_rows_left_over(x, w, k, c):
    # the q rows of w values, then the k*c values left over added to the
    # leading sums, then those w sums folded to c by one reduce
    out = _columns(x[:len(x) - k * c], w)
    out[:k * c] += x[len(x) - k * c:]
    return out


# (n, c, the sums by explicit reduces), each derived by hand from fold's rule:
# r doubles from 1 while l > r*r*c, or while n >= 2^16 and r*c < 1024;
# the q = l // r rows of r*c values are reduced, the l mod r rows left over
# added to the leading sums, and the r*c sums folded again by the rule when
# r > 128, else by one (r, c) reduce
ORDER_PINS = {
    "one-pass": [
        (24, 8, lambda x: _columns(x, 8)),  # l = 3 <= r*r*c = 8
        (60, 12, lambda x: _columns(x, 12)),  # l = 5 <= r*r*c = 12
        (2310, 330, lambda x: _columns(x, 330)),  # l = 7
        (2 ** 16, 1024, lambda x: _columns(x, 1024)),  # a large frame whose rows hold 1024 values or more
    ],
    "widened": [
        (4096, 2, lambda x: _columns(_columns(x, 64), 2)),  # r = 32: 64 rows of 64
        (2 ** 16, 8, lambda x: _columns(_columns(x, 1024), 8)),  # r = 128: near-square r = 32, widened
        # r = 512: 64 rows of 1024, whose sums take the rule again (r = 16: 32 rows of 32)
        (2 ** 16, 2, lambda x: _columns(_columns(_columns(x, 1024), 32), 2)),
    ],
    "leftover-rows": [
        (6, 2, lambda x: _columns(_with_rows_left_over(x, 4, 1, 2), 2)),  # l = 3, r = 2: one row of 4
        (36, 4, lambda x: _columns(_with_rows_left_over(x, 8, 1, 4), 4)),  # l = 9, r = 2, q = 4
        (74, 2, lambda x: _columns(_with_rows_left_over(x, 16, 5, 2), 2)),  # l = 37, r = 8, q = 4
        # l = 78,125, r = 128, q = 610: 45 rows left over
        (2 * 5 ** 8, 10, lambda x: _columns(_with_rows_left_over(x, 1280, 45, 10), 10)),
        # l = 177,147, r = 512, q = 345: 507 rows left over, then the 1536
        # sums by the rule (r = 16: 32 rows of 48)
        (3 ** 12, 3, lambda x: _columns(_columns(_with_rows_left_over(x, 1536, 507, 3), 48), 3)),
    ],
}


@pytest.mark.parametrize("path", ORDER_PINS)
def test_fold_order_of_each_path_of_the_rule(path):
    # each path of the rule adds in its fixed order, byte for byte, for
    # contiguous and strided input alike
    rng = np.random.default_rng(16)
    for n, c, want in ORDER_PINS[path]:
        for x in (random_complex(rng, n), random_complex(rng, 2 * n)[::2]):
            assert fold(x, make_plan(n, c)).samples.tobytes() == want(x).tobytes(), (n, c, x.strides)


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


def _pass_lengths(n, c):
    # the rows each pass of fold's rule adds, in order: the q wide rows and
    # one more when rows are left over, then the passes that fold the r*c sums
    module = importlib.import_module("ricdft.fold")
    l, r = n // c, 1
    while l > r * r * c or (n >= module._COLD and r * c < module._ROW):
        r *= 2
    first = [l // r + (l % r > 0)]
    if r > module._DEEP:
        return first + _pass_lengths(r * c, c)
    return first + [r] * (r > 1)


@pytest.mark.parametrize("kind", ["random", "cancelling"])
def test_fold_error_against_fsum(kind):
    # recursive summation over each pass: |error| <= (sum of pass lengths) u sum|x_col|,
    # at every power-of-two l of n = 2^18 and at odd l, whose rows are left over
    rng = np.random.default_rng(17)
    for n, cs in ((2 ** 18, [2 ** 18 >> q for q in range(1, 18)]), (3 ** 12, [3]), (2 * 5 ** 8, [2, 10])):
        x = random_complex(rng, n)
        if kind == "cancelling":
            # +v in row i and -v in row i + l // 2 (|v| ~ 1e8), so in the same
            # column, under O(1) noise: column sums are tiny next to sum|x_col|
            v = 1e8 * (rng.uniform(1, 2, n // 2) + 1j * rng.uniform(1, 2, n // 2))
        for c in cs:
            l = n // c
            y = x
            if kind == "cancelling":
                h = l // 2 * c
                y = x + np.concatenate([v[:h], -v[:h], np.zeros(n - 2 * h)])
            got = fold(y, make_plan(n, c)).samples
            cols = y.reshape(l, c).T
            exact = np.array([complex(math.fsum(re), math.fsum(im))
                              for re, im in zip(cols.real.tolist(), cols.imag.tolist())])
            bound = sum(_pass_lengths(n, c)) * 2.0 ** -53 * np.abs(cols).sum(axis=1)
            assert np.all(np.abs(got - exact) <= bound), (kind, n, c)
