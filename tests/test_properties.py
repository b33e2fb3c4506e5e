"""Seeded property tests over random plans, non-power-of-two c included.

Each case draws its plan and input from a generator seeded by the case
number, so a failure names a reproducible plan.  np.fft on the full
signal, then slicing [::l], is the independent reference.
"""

import numpy as np
import pytest

from ricdft import (Direction, NormalizationMode, compare_values, dft_direct, fold, ric_dft, ric_idft,
                    verify_against_oracle)
from ricdft import ric

from helpers import random_case, random_complex

CASES = range(60)

# np.fft norm giving each (direction, mode) convention of the package.
NPFFT_NORM = {
    (Direction.FORWARD, NormalizationMode.NONE): "backward",
    (Direction.FORWARD, NormalizationMode.RECIPROCAL_N): "backward",
    (Direction.FORWARD, NormalizationMode.UNITARY): "ortho",
    (Direction.INVERSE, NormalizationMode.NONE): "forward",
    (Direction.INVERSE, NormalizationMode.RECIPROCAL_N): "backward",
    (Direction.INVERSE, NormalizationMode.UNITARY): "ortho",
}


def test_cases_cover_non_power_of_two_plans():
    cs = [random_case(case)[1].c for case in CASES]
    assert sum(c & (c - 1) != 0 for c in cs) >= len(cs) // 2


@pytest.mark.parametrize("case", CASES)
def test_ric_equals_npfft_sliced(case):
    _, plan, x = random_case(case)
    for (direction, mode), norm in NPFFT_NORM.items():
        if direction is Direction.FORWARD:
            got, full = ric_dft(x, plan, mode).values, np.fft.fft(x, norm=norm)
        else:
            got, full = ric_idft(x, plan, mode).values, np.fft.ifft(x, norm=norm)
        report = compare_values(got, full[:: plan.l], 1e-12)
        assert report.passed, (plan, direction, mode, report)


@pytest.mark.parametrize("case", CASES)
def test_inverse_of_the_full_spectrum_returns_the_retained_samples(case):
    _, plan, x = random_case(case)
    got = ric_idft(np.fft.fft(x), plan, NormalizationMode.RECIPROCAL_N).values
    assert compare_values(got, x[:: plan.l], 1e-12).passed, plan


@pytest.mark.parametrize("case", CASES)
def test_fold_is_linear(case):
    rng, plan, x = random_case(case)
    y = random_complex(rng, plan.n)
    a = complex(rng.standard_normal(), rng.standard_normal())
    got = fold(a * x + y, plan).samples
    want = a * fold(x, plan).samples + fold(y, plan).samples
    assert compare_values(got, want, 1e-12).passed, plan


@pytest.mark.parametrize("case", CASES)
def test_fold_shift_rule(case):
    # a shift by c moves whole rows; a shift by 1 moves each column one to the right
    _, plan, x = random_case(case)
    folded = fold(x, plan).samples
    assert compare_values(fold(np.roll(x, plan.c), plan).samples, folded, 1e-12).passed, plan
    assert compare_values(fold(np.roll(x, 1), plan).samples, np.roll(folded, 1), 1e-12).passed, plan


@pytest.mark.parametrize("case", CASES)
def test_oracle_rows_are_the_direct_transform_sliced(case):
    # the oracle reads its c rows of G at a closed-form index; over random
    # (n, c) they are dft_direct's rows k*l bit for bit, from a fresh record
    # and from the plan's kept one, and the pipeline passes against them
    _, plan, x = random_case(case)
    for direction, mode in NPFFT_NORM:
        want = dft_direct(x, direction, mode)[:: plan.l]
        for _ in range(2):
            assert ric._oracle(x, plan, direction, mode).tobytes() == want.tobytes(), (plan, direction)
        report = verify_against_oracle(x, plan, mode, direction)
        assert report.passed, (plan, direction, mode, report)
