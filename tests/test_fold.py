import numpy as np
import pytest

from ricdft import LengthMismatchError, OpCounter, fold, fold_spectrum, make_plan

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
    rng = np.random.default_rng(11)
    for n in (8, 12, 24, 30, 64):
        for c, _ in divisor_pairs(n):
            x = random_complex(rng, n)
            got = fold(x, make_plan(n, c)).samples
            np.testing.assert_allclose(got, naive_fold(x, n, c), rtol=0, atol=1e-12)


def test_fold_spectrum_same_kernel():
    assert fold_spectrum is fold
    rng = np.random.default_rng(12)
    spectrum = random_complex(rng, 8)
    plan = make_plan(8, 4)
    np.testing.assert_array_equal(fold_spectrum(spectrum, plan).samples, fold(spectrum, plan).samples)
    np.testing.assert_allclose(
        fold_spectrum(spectrum, plan).samples, naive_fold(spectrum, 8, 4), rtol=0, atol=1e-12
    )


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


def test_fold_rejects_non_finite():
    plan = make_plan(8, 4)
    bad = np.zeros(8, dtype=np.complex128)
    bad[3] = complex("nan")
    with pytest.raises(ValueError):
        fold(bad, plan)
