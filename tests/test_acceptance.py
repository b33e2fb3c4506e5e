"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they pass; a plain ``pytest`` run shows them only on failure.
"""

import statistics
import time

import numpy as np

from ricdft import (
    Direction,
    NormalizationMode,
    OpCounter,
    compare_values,
    dft_direct,
    fold,
    make_plan,
    op_counts,
    plan_for_frequencies,
    ric_dft,
    ric_idft,
    ric_index_set,
    ric_op_counts,
    transform,
    InfeasibleError,
)
from ricdft.engine import twiddle_table

from helpers import (
    GOLDEN_FOLD,
    GOLDEN_FORWARD,
    GOLDEN_INVERSE_C,
    GOLDEN_INVERSE_N,
    GOLDEN_X,
    divisor_pairs,
    exhaustive_best_plan,
    fft_radix2,
    random_complex,
)

F, I = Direction.FORWARD, Direction.INVERSE
NONE, RECIP, UNITARY = (
    NormalizationMode.NONE,
    NormalizationMode.RECIPROCAL_N,
    NormalizationMode.UNITARY,
)


def _report(num: int, description: str, ok: bool, detail: str = ""):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {description}{detail}")
    assert ok, f"criterion {num} failed: {description}{detail}"


def _pow2_cs(n):
    cs = []
    c = 2
    while c <= n // 2:
        cs.append(c)
        c *= 2
    return cs


def _criterion3_grid():
    grid = {n: _pow2_cs(n) for n in (8, 16, 64, 1024, 4096)}
    grid[24] = [c for c, _ in divisor_pairs(24)]
    return grid


def test_criterion_1_golden_forward_example():
    t0 = time.perf_counter()
    plan = make_plan(8, 4)
    folded = fold(GOLDEN_X, plan).samples
    fold_exact = np.array_equal(folded, GOLDEN_FOLD)
    spectrum = ric_dft(GOLDEN_X, plan, NONE)
    indices_ok = spectrum.indices.tolist() == [0, 2, 4, 6]
    dft_err = float(np.max(np.abs(spectrum.values - GOLDEN_FORWARD)))
    elapsed = time.perf_counter() - t0
    ok = fold_exact and indices_ok and dft_err <= 1e-12 and elapsed < 1.0
    _report(1, "golden forward example", ok,
            f" (fold exact={fold_exact}, max abs err={dft_err:.3e}, {elapsed:.3f}s)")


def test_criterion_2_golden_inverse_example():
    plan = make_plan(8, 4)
    compressed = dft_direct(GOLDEN_FOLD, I, RECIP)
    err_c = float(np.max(np.abs(compressed - GOLDEN_INVERSE_C)))
    spectrum = np.concatenate([GOLDEN_FOLD, np.zeros(4, dtype=np.complex128)])
    corrected = ric_idft(spectrum, plan, RECIP).values
    err_n = float(np.max(np.abs(corrected - GOLDEN_INVERSE_N)))
    ok = err_c <= 1e-12 and err_n <= 1e-12
    _report(2, "golden inverse example", ok,
            f" (c-point err={err_c:.3e}, corrected err={err_n:.3e})")


def test_criterion_3_correspondence_grid():
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for n, cs in _criterion3_grid().items():
        plans = [make_plan(n, c) for c in cs]
        for i in range(20):
            rng = np.random.default_rng((3000, n, i))
            x = random_complex(rng, n)
            oracle = dft_direct(x)
            for plan in plans:
                got = ric_dft(x, plan, NONE).values
                report = compare_values(got, oracle[ric_index_set(plan)], 1e-9)
                worst = max(worst, report.max_rel_error)
                cases += 1
                assert report.passed, (n, plan.c, i, report)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 120.0
    _report(3, "folded path equals direct transform on the grid", ok,
            f" ({cases} cases, worst rel err={worst:.3e}, {elapsed:.1f}s)")


def test_criterion_4_operation_counts():
    failures = []
    for n, cs in _criterion3_grid().items():
        rng = np.random.default_rng((4000, n))
        x = random_complex(rng, n)
        for c in cs:
            plan = make_plan(n, c)
            fold_ctr = OpCounter()
            folded = fold(x, plan, fold_ctr)
            if fold_ctr.complex_adds != c * (plan.l - 1) or fold_ctr.complex_mults != 0:
                failures.append(("fold", n, c, fold_ctr))
            engine_ctr = OpCounter()
            transform(folded.samples, F, NONE, engine_ctr)
            if (engine_ctr.complex_adds, engine_ctr.complex_mults) != op_counts(c):
                failures.append(("engine", n, c, engine_ctr))
            total = (fold_ctr.complex_adds + engine_ctr.complex_adds,
                     fold_ctr.complex_mults + engine_ctr.complex_mults)
            if ric_op_counts(plan) != total:
                failures.append(("pipeline", n, c, ric_op_counts(plan), total))
    _report(4, "fold costs c*(l-1) adds, 0 mults; pipeline adds only the engine",
            not failures, f" (violations: {failures[:3]})" if failures else "")


def test_criterion_5_normalization_matrix():
    worst = 0.0
    for n, c in ((32, 4), (32, 8), (64, 16), (24, 6), (24, 3)):
        plan = make_plan(n, c)
        idx = ric_index_set(plan)
        for i in range(3):
            rng = np.random.default_rng((5000, n, c, i))
            x = random_complex(rng, n)
            for mode in (NONE, RECIP, UNITARY):
                fwd = compare_values(ric_dft(x, plan, mode).values,
                                     dft_direct(x, F, mode)[idx], 1e-9)
                inv = compare_values(ric_idft(x, plan, mode).values,
                                     dft_direct(x, I, mode)[idx], 1e-9)
                worst = max(worst, fwd.max_rel_error, inv.max_rel_error)
                assert fwd.passed and inv.passed, (n, c, mode, fwd, inv)
    _report(5, "all normalization modes match in both directions", worst <= 1e-9,
            f" (worst rel err={worst:.3e})")


def test_criterion_6_square_index_special_case():
    worst = 0.0
    for q in (4, 6, 8, 10, 12):
        n = 2 ** q
        plan = make_plan(n, 2 ** (q // 2))
        assert plan.l == plan.c
        for i in range(5):
            rng = np.random.default_rng((6000, n, i))
            x = random_complex(rng, n)
            got = ric_dft(x, plan, NONE).values
            report = compare_values(got, dft_direct(x)[ric_index_set(plan)], 1e-9)
            worst = max(worst, report.max_rel_error)
            assert report.passed, (n, report)
    _report(6, "square plans (l = c = sqrt(n)) match the oracle", worst <= 1e-9,
            f" (worst rel err={worst:.3e})")


def test_criterion_7_performance_direction():
    t0 = time.perf_counter()
    n, c = 2 ** 18, 2 ** 8
    plan = make_plan(n, c)
    rng = np.random.default_rng(7000)
    x = random_complex(rng, n)

    def ric_path(ctr):
        return fft_radix2(fold(x, plan, ctr).samples, F, NONE, ctr)

    def full_path(ctr):
        return fft_radix2(x, F, NONE, ctr)

    for fn in (ric_path, full_path):  # warm-up
        fn(OpCounter())
        fn(OpCounter())

    times = {"ric": [], "full": []}
    counters = {}
    for _ in range(11):
        for name, fn in (("ric", ric_path), ("full", full_path)):
            ctr = OpCounter()
            start = time.perf_counter_ns()
            fn(ctr)
            times[name].append(time.perf_counter_ns() - start)
            counters[name] = ctr
    med_ric = statistics.median(times["ric"])
    med_full = statistics.median(times["full"])
    mult_ratio = counters["full"].complex_mults / counters["ric"].complex_mults
    elapsed = time.perf_counter() - t0
    ok = med_ric < med_full and mult_ratio >= 10.0 and elapsed < 60.0
    _report(7, "folded path is faster and at least 10x cheaper in mults", ok,
            f" (median {med_ric / 1e6:.2f}ms vs {med_full / 1e6:.2f}ms, "
            f"mult ratio={mult_ratio:.0f}x, {elapsed:.1f}s)")


def _median_ratio(top, bottom, calls, runs):
    """Median time of ``top`` over median time of ``bottom``, in interleaved runs of ``calls`` calls."""
    fns = (("bottom", bottom), ("top", top))
    times = {"bottom": [], "top": []}
    for _, fn in fns:  # warm-up
        fn()
    for _ in range(runs):
        for name, fn in fns:
            start = time.perf_counter_ns()
            for _ in range(calls):
                fn()
            times[name].append(time.perf_counter_ns() - start)
    return statistics.median(times["top"]) / statistics.median(times["bottom"])


def _npfft_over_ric(x, plan, calls=1, runs=5):
    """Median np.fft.fft(x)[::l] time over median ric_dft time, interleaved runs of ``calls`` calls."""
    return _median_ratio(lambda: np.fft.fft(x)[:: plan.l], lambda: ric_dft(x, plan), calls, runs)


def test_criterion_10_faster_than_npfft_for_every_c():
    # against the strongest baseline available: pocketfft on the full signal,
    # then slicing
    t0 = time.perf_counter()
    n = 2 ** 18
    rng = np.random.default_rng(10000)
    x = random_complex(rng, n)
    slow, ratios = [], []
    for c in _pow2_cs(n):
        ratio = _npfft_over_ric(x, make_plan(n, c))
        ratios.append(f"c=2^{c.bit_length() - 1}: {ratio:.2f}x")
        if ratio <= 1.0:
            slow.append(c)
    elapsed = time.perf_counter() - t0
    print("[criterion 10] np.fft time / ric_dft time: " + ", ".join(ratios))
    _report(10, "ric_dft beats np.fft.fft(x)[::l] at n = 2^18 for every power-of-two c",
            not slow and elapsed < 60.0, f" (slower at c = {slow or 'none'}, {elapsed:.1f}s)")


def test_criterion_11_faster_than_npfft_for_every_divisor():
    # a non-power-of-two n = 2^6 * 3 * 5^3: every c-point transform has odd factors
    t0 = time.perf_counter()
    n = 24_000
    rng = np.random.default_rng(11000)
    x = random_complex(rng, n)
    slow, ratios = [], []
    for c, _ in divisor_pairs(n):
        ratio = _npfft_over_ric(x, make_plan(n, c))
        ratios.append(f"c={c}: {ratio:.2f}x")
        if ratio <= 1.0:
            slow.append(c)
    elapsed = time.perf_counter() - t0
    print("[criterion 11] np.fft time / ric_dft time: " + ", ".join(ratios))
    _report(11, f"ric_dft beats np.fft.fft(x)[::l] at n = 24000 for all {len(ratios)} divisors c",
            len(ratios) == 54 and not slow and elapsed < 60.0,
            f" (slower at c = {slow or 'none'}, {elapsed:.1f}s)")


def test_criterion_12_per_call_at_small_n():
    # a call at n = 1024 or 4096 takes about 9 to 30 us, so each run times a loop
    # of 200 calls; at n = 4096 ric_dft must be at or below np.fft.fft(x)[::l] for
    # every power-of-two c (it reads 1.3x to 3.9x); at n = 1024 it may be up to
    # 1/0.8 times slower, a margin set from the tightest cell, c = 512, which
    # reads 0.97x to 1.04x (every other c 1.2x to 1.5x) on 2 shared x86-64 cores
    t0 = time.perf_counter()
    rng = np.random.default_rng(12000)
    slow, ratios = [], []
    for n, floor in ((1024, 0.8), (4096, 1.0)):
        x = random_complex(rng, n)
        for c in _pow2_cs(n):
            ratio = _npfft_over_ric(x, make_plan(n, c), calls=200, runs=7)
            ratios.append(f"n={n}, c=2^{c.bit_length() - 1}: {ratio:.2f}x")
            if ratio < floor:
                slow.append((n, c))
    elapsed = time.perf_counter() - t0
    print("[criterion 12] np.fft time / ric_dft time: " + ", ".join(ratios))
    _report(12, "ric_dft per call at n = 4096 at or below np.fft.fft(x)[::l] for every power-of-two c,"
                " at n = 1024 within 1/0.8 of it",
            not slow and elapsed < 60.0, f" (slower at (n, c) = {slow or 'none'}, {elapsed:.1f}s)")


def test_criterion_13_fold_at_copy_speed_for_odd_l():
    # at odd l the fold reads its frame in rows of r*c values and adds the l mod r
    # rows left over, instead of l rows of c values (5 to 7 times a copy at
    # these plans); a fold takes 0.4 to 0.7 ms here, so each run times a loop
    # of 5 calls, and the fold must take at most 1.5 times an n-point copy (it
    # reads 0.5x to 0.7x on 2 shared x86-64 cores)
    t0 = time.perf_counter()
    rng = np.random.default_rng(13000)
    slow, ratios = [], []
    for n, c in ((2 * 524_287, 2), (3 ** 12, 3)):
        x, plan = random_complex(rng, n), make_plan(n, c)
        ratio = _median_ratio(lambda: fold(x, plan), x.copy, calls=5, runs=7)
        ratios.append(f"n={n}, c={c}: {ratio:.2f}x")
        if ratio > 1.5:
            slow.append((n, c))
    elapsed = time.perf_counter() - t0
    print("[criterion 13] fold time / n-point copy time: " + ", ".join(ratios))
    _report(13, "fold at odd l within 1.5x of an n-point copy at n = 2 * 524287 and n = 3^12",
            not slow and elapsed < 60.0, f" (slower at (n, c) = {slow or 'none'}, {elapsed:.1f}s)")


def test_criterion_8_planner_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8000)
    checked = 0
    trial = 0
    while checked < 50:
        trial += 1
        power_of_two_only = trial % 3 != 0
        max_n = 4096 if power_of_two_only else 256
        sample_rate = float(rng.integers(100, 5000))
        if rng.random() < 0.7:
            # targets constructed on some retained grid, so usually feasible
            if power_of_two_only:
                n0 = 2 ** int(rng.integers(3, 13))
            else:
                n0 = int(rng.integers(8, 257))
            divisors = [c for c in range(2, n0 // 2 + 1) if n0 % c == 0
                        and (not power_of_two_only or (c & (c - 1)) == 0)]
            if not divisors:
                continue
            c0 = int(rng.choice(divisors))
            l0 = n0 // c0
            ks = rng.choice(np.arange(1, c0), size=min(int(rng.integers(1, 4)), c0 - 1),
                            replace=False)
            targets = sorted(set(float(k * l0 * sample_rate / n0) for k in ks))
            targets = [t for t in targets if 0.0 < t < sample_rate / 2]
            if not targets:
                continue
        else:
            targets = sorted(float(t) for t in rng.uniform(1.0, sample_rate / 2 - 1.0, size=2))
        want = exhaustive_best_plan(sample_rate, targets, max_n, power_of_two_only, 0.0)
        if want is None:
            try:
                plan_for_frequencies(sample_rate, targets, max_n, power_of_two_only)
                assert False, f"planner found a plan the oracle says is infeasible: {targets}"
            except InfeasibleError:
                pass
        else:
            proposal = plan_for_frequencies(sample_rate, targets, max_n, power_of_two_only)
            got = (proposal.plan.c, proposal.plan.n)
            assert got == want, (sample_rate, targets, max_n, power_of_two_only, got, want)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked >= 50 and elapsed < 60.0
    _report(8, "planner matches exhaustive enumeration", ok,
            f" ({checked} target sets, {elapsed:.1f}s)")


def test_criterion_9_twiddle_collapse_identity():
    worst = 0.0
    for n in range(4, 1025):
        pairs = divisor_pairs(n)
        if not pairs:
            continue
        table_n = twiddle_table(n)
        for c, l in pairs:
            table_c = twiddle_table(c)
            k = np.arange(c, dtype=np.int64)
            kc = k[:, None] * k[None, :]  # k * col products for all pairs
            big = table_n[(kc * l) % n]   # entry holds W_n^(-k*l*col)
            small = table_c[kc % c]       # entry holds W_c^(-k*col)
            err = float(np.max(np.abs(big - small)))
            worst = max(worst, err)
            assert err <= 1e-12, (n, c, err)
    _report(9, "twiddle collapse identity on every plan up to 1024", worst <= 1e-12,
            f" (worst abs err={worst:.3e})")
