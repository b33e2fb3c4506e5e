import math

import numpy as np
import pytest

from ricdft import (
    InfeasibleError,
    OutOfRangeError,
    coverage_report,
    plan_for_frequencies,
)

from helpers import exhaustive_best_plan as exhaustive_best

def test_worked_example():
    proposal = plan_for_frequencies(800.0, [100.0, 200.0, 300.0], 64)
    assert (proposal.plan.n, proposal.plan.c, proposal.plan.l) == (16, 8, 2)
    assert proposal.bin_width == 50.0
    assert [a.bin_index for a in proposal.assignments] == [2, 4, 6]
    assert all(a.rel_error == 0.0 for a in proposal.assignments)
    assert exhaustive_best(800.0, [100.0, 200.0, 300.0], 64, True, 0.0) == (8, 16)


def test_single_target_quarter_rate():
    # fs/4 cannot land on a retained bin with c = 2 (bins are 0 and fs/2),
    # so the cheapest hit is c = 4 at n = 8 (bin 2 of 8)
    proposal = plan_for_frequencies(1000.0, [250.0], 64)
    assert (proposal.plan.n, proposal.plan.c) == (8, 4)
    a = proposal.assignments[0]
    assert a.bin_index == 2 and a.achieved == 250.0 and a.rel_error == 0.0
    assert exhaustive_best(1000.0, [250.0], 64, True, 0.0) == (4, 8)


def test_infeasible_reports_best():
    # irrational ratio to the sample rate: never an exact bin hit
    with pytest.raises(InfeasibleError) as excinfo:
        plan_for_frequencies(1000.0, [100.0 * math.sqrt(2)], 64, tol=0.0)
    err = excinfo.value
    assert err.best_rel_error > 0.0
    assert err.best_plan is not None
    assert "best achievable" in str(err)


def test_tolerance_relaxation():
    target = 100.0 * math.sqrt(2)  # ~141.42 Hz
    proposal = plan_for_frequencies(1000.0, [target], 1024, tol=0.05)
    a = proposal.assignments[0]
    assert a.rel_error <= 0.05
    assert a.bin_index % proposal.plan.l == 0


def test_validation_errors():
    with pytest.raises(OutOfRangeError):
        plan_for_frequencies(800.0, [], 64)
    with pytest.raises(OutOfRangeError):
        plan_for_frequencies(800.0, [500.0], 64)  # beyond fs/2
    with pytest.raises(OutOfRangeError):
        plan_for_frequencies(-1.0, [100.0], 64)
    with pytest.raises(OutOfRangeError):
        plan_for_frequencies(800.0, [100.0], 3)
    for tol in (math.nan, math.inf, -1e-12):
        with pytest.raises(OutOfRangeError):
            plan_for_frequencies(800.0, [100.0], 64, tol=tol)


def test_any_n_search_can_beat_powers_of_two():
    # 3 harmonics of 50 Hz at fs = 600: retained bins sit at k*600/c Hz, so
    # c must be a multiple of 12; c = 12, n = 24 covers them and no power of
    # two does at tol 0
    targets = [50.0, 100.0, 150.0]
    proposal = plan_for_frequencies(600.0, targets, 64, power_of_two_only=False)
    assert (proposal.plan.c, proposal.plan.n) == (12, 24)
    assert (proposal.plan.c, proposal.plan.n) == exhaustive_best(600.0, targets, 64, False, 0.0)
    assert all(a.rel_error == 0.0 for a in proposal.assignments)
    with pytest.raises(InfeasibleError):
        plan_for_frequencies(600.0, targets, 64, power_of_two_only=True)


@pytest.mark.parametrize("sample_rate, targets, want", [
    (1641.0, [6 * 1641 / 17], (17, 34)),
    (530.0, [81.53846153846153, 244.6153846153846], (13, 26)),
])
def test_hits_do_not_depend_on_n_through_rounding(sample_rate, targets, want):
    # k*fs/c is rounded once, so a hit at c holds at n = 2c as at any other n
    proposal = plan_for_frequencies(sample_rate, targets, 128, power_of_two_only=False)
    assert (proposal.plan.c, proposal.plan.n) == want
    assert all(a.rel_error == 0.0 for a in proposal.assignments)
    assert exhaustive_best(sample_rate, targets, 128, False, 0.0) == want


def test_optimality_randomized_against_exhaustive():
    rng = np.random.default_rng(41)
    checked = 0
    for trial in range(30):
        power_of_two_only = bool(trial % 2)
        max_n = 256
        sample_rate = float(rng.integers(200, 2000))
        if rng.random() < 0.7:
            # construct targets guaranteed to sit on some retained grid
            n0 = 2 ** int(rng.integers(3, 9)) if power_of_two_only else int(rng.integers(8, 129))
            divisors = [c for c in range(2, n0 // 2 + 1) if n0 % c == 0
                        and (not power_of_two_only or (c & (c - 1)) == 0)]
            if not divisors:
                continue
            c0 = int(rng.choice(divisors))
            l0 = n0 // c0
            ks = rng.choice(np.arange(1, c0), size=min(3, c0 - 1), replace=False)
            targets = sorted(float(k * l0 * sample_rate / n0) for k in ks)
            targets = [t for t in targets if 0 < t < sample_rate / 2]
            if not targets:
                continue
        else:
            targets = sorted(float(t) for t in rng.uniform(1.0, sample_rate / 2 - 1.0, size=2))
        want = exhaustive_best(sample_rate, targets, max_n, power_of_two_only, 0.0)
        if want is None:
            with pytest.raises(InfeasibleError):
                plan_for_frequencies(sample_rate, targets, max_n, power_of_two_only)
        else:
            proposal = plan_for_frequencies(sample_rate, targets, max_n, power_of_two_only)
            assert (proposal.plan.c, proposal.plan.n) == want
            assert want[1] == 2 * want[0]
        checked += 1
    assert checked >= 20


def test_determinism():
    args = (800.0, [100.0, 200.0], 128)
    assert plan_for_frequencies(*args) == plan_for_frequencies(*args)


def test_coverage_report_rows():
    proposal = plan_for_frequencies(800.0, [100.0, 200.0, 300.0], 64)
    # an already-assigned target reproduces its assignment row
    rows = coverage_report(proposal, [100.0])
    assert rows[0] == proposal.assignments[0]
    # midway between bins 2 (100 Hz) and 4 (200 Hz): tie resolves to the lower bin
    rows = coverage_report(proposal, [150.0])
    assert rows[0].bin_index == 2
    assert rows[0].achieved == 100.0
    # target zero maps to bin 0 with zero relative error
    rows = coverage_report(proposal, [0.0])
    assert rows[0].bin_index == 0 and rows[0].rel_error == 0.0


def test_max_n_must_be_an_integer_size():
    for max_n in (math.nan, math.inf, 4.5, 64.0, True):
        with pytest.raises(OutOfRangeError):
            plan_for_frequencies(800.0, [100.0], max_n)
    assert plan_for_frequencies(800.0, [100.0], np.int64(64)) == plan_for_frequencies(800.0, [100.0], 64)


def test_coverage_report_rejects_non_finite_targets():
    proposal = plan_for_frequencies(800.0, [100.0], 64)
    for t in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(OutOfRangeError):
            coverage_report(proposal, [t])


def test_coverage_report_matches_linear_scan():
    proposal = plan_for_frequencies(800.0, [100.0], 64)
    plan = proposal.plan
    bins = [k * plan.l for k in range(plan.c)]
    rng = np.random.default_rng(42)
    for t in rng.uniform(0.0, 400.0, size=50):
        row = coverage_report(proposal, [float(t)])[0]
        errs = [abs(b * proposal.bin_width - t) for b in bins]
        best = min(errs)
        # ties toward the lower bin: first index achieving the minimum
        want_bin = bins[errs.index(best)]
        assert row.bin_index == want_bin
    assert not hasattr(proposal, "extra")  # report never mutates the proposal
