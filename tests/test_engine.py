import cmath
import importlib.util
import itertools
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from ricdft import engine
from ricdft import (
    Direction,
    NormalizationMode,
    OpCounter,
    OutOfRangeError,
    SequenceError,
    dft_direct,
    is_power_of_two,
    make_plan,
    transform,
)
from ricdft.engine import twiddle_table

from helpers import (
    GOLDEN_FOLD,
    GOLDEN_FORWARD,
    GOLDEN_INVERSE_C,
    fft_radix2,
    naive_dft,
    random_complex,
)

F, I = Direction.FORWARD, Direction.INVERSE
NONE, RECIP, UNITARY = (
    NormalizationMode.NONE,
    NormalizationMode.RECIPROCAL_N,
    NormalizationMode.UNITARY,
)


def test_direct_impulse():
    out = dft_direct(np.array([1, 0, 0, 0], dtype=np.complex128))
    np.testing.assert_allclose(out, np.ones(4), atol=1e-15)


def test_direct_golden_forward():
    np.testing.assert_allclose(dft_direct(GOLDEN_FOLD), GOLDEN_FORWARD, atol=1e-12)


def test_direct_golden_inverse_reciprocal():
    out = dft_direct(GOLDEN_FOLD, I, RECIP)
    np.testing.assert_allclose(out, GOLDEN_INVERSE_C, atol=1e-12)


def test_direct_matches_double_loop_oracle():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 7, 12, 16, 33):
        x = random_complex(rng, n)
        np.testing.assert_allclose(dft_direct(x), naive_dft(x, -1), rtol=0, atol=1e-9 * max(1, n))
        np.testing.assert_allclose(
            dft_direct(x, I, RECIP), naive_dft(x, +1, 1.0 / n), rtol=0, atol=1e-9
        )


def test_direct_matches_numpy():
    rng = np.random.default_rng(22)
    for n in (5, 16, 100, 128):
        x = random_complex(rng, n)
        np.testing.assert_allclose(dft_direct(x), np.fft.fft(x), rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(dft_direct(x, I, RECIP), np.fft.ifft(x), rtol=1e-10, atol=1e-12)


def _divisors(m):
    return [s for s in range(1, m + 1) if m % s == 0]


def _rows(x, step, direction):
    # the rows k = step*q of x's unscaled transform, from fresh twiddle blocks
    return engine._direct_rows(x, direction, engine._twiddles(len(x), step))


def _build(n):
    # the twiddle table and DFT matrix of length n, as a verify's first call builds them
    twiddle_table(n)
    engine._dft_matrix(n, engine._twiddles(n, 1).b)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 24, 4099, 4096, 3240, 24000, 60, 2310, 8198, 1 << 16])
@pytest.mark.parametrize("direction", [F, I])
def test_direct_rows_are_independent_of_the_row_set(m, direction):
    # the rows k = s*q at every step s that divides m get the bits the whole
    # transform gives them, so the oracle's rows are dft_direct's rows; at
    # m = 24,000 and step 24 the rows visit their residues mod M = 160 out of
    # order (g = 8, P = 20, step/g = 3), each chunk's rows read from its G in
    # one gather at the closed-form flat index ``at``, and step 1 takes a
    # product deeper than a threaded BLAS keeps in one pass; m = 2**16
    # (B = 256) sums G over two depth slices of F, and step 1 forms Y in
    # eight chunks of 32 residues
    rng = np.random.default_rng(m)
    x = random_complex(rng, m)
    full = _rows(x, 1, direction)
    for step in _divisors(m):
        got = _rows(x, step, direction)
        assert got.tobytes() == full[::step].tobytes(), step
    # an impulse at j gives each row the entry the definition names,
    # table[(k*j) mod m] with the exponent reduced in Python integers, as the
    # product of two entries: a few ulps off it, and any other entry is at
    # least 2*sin(pi/m) away
    table = twiddle_table(m) if direction is F else twiddle_table(m).conj()
    for j in rng.integers(0, m, 3).tolist():
        impulse = np.zeros(m, dtype=np.complex128)
        impulse[j] = 1.0
        for step in _divisors(m)[:4]:
            want = table[[k * j % m for k in range(0, m, step)]]
            got = _rows(impulse, step, direction)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("c", [64, 512, 4096])
def test_direct_rows_error_against_npfft_at_2_18(c):
    # the retained rows at n = 2**18 agree with np.fft to a normwise 1e-13
    n = 1 << 18
    x = random_complex(np.random.default_rng(c), n)
    for direction, want in ((F, np.fft.fft(x)), (I, np.fft.ifft(x, norm="forward"))):
        got = _rows(x, n // c, direction)
        err = np.max(np.abs(got - want[::n // c])) / np.max(np.abs(want[::n // c]))
        assert err <= 1e-13, (direction, err)


def test_direct_rows_block_memory():
    # blocks of three 128 KB matrices: at most 4 MiB, x never copied or padded;
    # the table and F are built first, and no direction copies either (16 MiB
    # each at n = 2**20)
    cases = ((4096, 512), (24000, 3000), (24000, 1000), (1 << 18, 4096), (1 << 20, 1024))
    for (n, c), direction in itertools.product(cases, (F, I)):
        x = random_complex(np.random.default_rng(7), n)
        _build(n)
        tracemalloc.start()
        try:
            _rows(x, n // c, direction)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, (n, c, direction, peak)


def test_direct_rows_block_memory_at_a_poor_split():
    # n = 2 * 524287 splits as B = 2, M = 524287: the 2 x M residue twiddles
    # are gathered one depth slice at a time, never held whole (16 MiB)
    n = 2 * 524287
    x = random_complex(np.random.default_rng(8), n)
    _build(n)
    for direction in (F, I):
        tracemalloc.start()
        try:
            _rows(x, n // 2, direction)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (direction, peak)


def test_direct_rows_hold_each_output_once():
    # n = 2**18, c = 2**17: the c outputs (2 MiB) are written once, into their
    # own buffer, each chunk's rows in one gather from its G at the flat
    # index ``at``, and Y, Z, G and ``at`` exist a chunk of 16 residues at a
    # time (4 MiB for all 256), with no c-point index array (a second copy of
    # the outputs would pass 6 MiB)
    n = 1 << 18
    x = random_complex(np.random.default_rng(9), n)
    _build(n)
    for direction in (F, I):
        tracemalloc.start()
        try:
            _rows(x, 2, direction)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20, (direction, peak)


def _largest_divisor_to_root(m):
    return max(d for d in range(1, math.isqrt(m) + 1) if m % d == 0)


@pytest.mark.parametrize(
    "m, b", [(1, 1), (2, 1), (3, 1), (4099, 1), (4006, 2), (4096, 64), (24000, 150), (3240, 54)]
)
def test_direct_rows_match_the_definition_for_every_split(m, b):
    # m = B*M with B the largest divisor of m not above isqrt(m): B = 1 for a
    # prime (and m <= 3), B = 2 for 2 * 2003, a square and non-square
    # composites; random rows of step 1 and every row of the steps with at
    # most five rows against the textbook sum at those rows only
    assert engine._twiddles(m, 1).b == b == _largest_divisor_to_root(m)
    rng = np.random.default_rng(m + 1)
    x = random_complex(rng, m)
    for step in [1] + [s for s in _divisors(m) if m // s <= 5]:
        q = np.sort(rng.choice(m // step, min(m // step, 5), replace=False))
        for direction, sign in ((F, -1), (I, +1)):
            got = _rows(x, step, direction)[q]
            want = naive_dft(x, sign, rows=(q * step).tolist())
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= 1e-12, (step, direction, err)


@pytest.mark.parametrize("m", [1, 2, 7, 24, 4006, 4096, 3240, 24000])
def test_twiddles_count_the_values_their_blocks_hold(m):
    # M*max(2, P) + max(2, P)*B at every step s: W_M**(r*j2) and W_m**(r*j1)
    # for each of the P = M/gcd(s, M) residues r = k mod M of the rows k = s*q,
    # at least two, and no per-row twiddle; the count and the geometry come
    # with the blocks, before any is gathered; a row set of at most
    # _KEPT_CELLS values comes back materialized, a larger one lazily; the
    # chunks of Y's rows, of two or more and lazily of about _BLOCK_CELLS
    # values, and their depth slices cover them in order, and each chunk's
    # read-only index at[i, p - p0] = (p - p0)*B + floor(s*p/M) + i*s/gcd(s, M)
    # reads row q = P*i + p of its places p < P from its G, flat, with
    # B == (c/P)*s/gcd(s, M): the chunks' real places cover [0, P) in order
    b = _largest_divisor_to_root(m)
    mm = m // b
    for step in _divisors(m):
        blocks = engine._twiddles(m, step)
        g = math.gcd(step, mm)
        period = mm // g
        assert blocks.values == mm * max(2, period) + max(2, period) * b, step
        assert blocks.b == b and blocks.rows == (m // step // period, period), step
        assert blocks.reusable == (blocks.values <= engine._KEPT_CELLS), step
        assert b == m // step // period * (step // g), step
        if blocks.reusable:
            assert isinstance(blocks.chunks, tuple), step
        held, r0, p0 = 0, 0, 0
        for ts, w, at in blocks.chunks:
            if blocks.reusable:
                assert isinstance(ts, tuple), step
            rows = w.shape[0]
            assert rows >= 2 and w.shape == (rows, b) and not w.flags.writeable, step
            assert blocks.reusable or w.size < 2 * max(engine._BLOCK_CELLS, 2 * b), step
            j2 = 0
            for d, t in ts:  # depth slices of x.reshape(M, B), in order
                assert d.start == j2 and t.shape == (rows, len(range(mm)[d])), step
                assert not t.flags.writeable, step
                held, j2 = held + t.size, j2 + t.shape[1]
            assert j2 == mm, step
            places = np.arange(r0, min(r0 + rows, period))  # the chunk's real places
            assert p0 == r0 and not at.flags.writeable, step
            assert at.shape == (m // step // period, len(places)), step
            i = np.arange(m // step // period)[:, None]
            assert np.array_equal(at, (places - r0) * b + step * places // mm + i * (step // g)), step
            p0 += places.size
            held, r0 = held + w.size, r0 + rows
        assert r0 == max(2, period) and p0 == period, step
        assert held == blocks.values, step


def test_oracle_at_2_18_gathers_under_a_million_twiddles():
    # n = 2**18, c = 2**17: 256 residues of M = 512, each with M residue
    # twiddles and B = 512 values of w, 262,144 in all, where a twiddle per
    # row product would be c*B = 67,108,864; F is the length's, not the plan's
    n = 1 << 18
    blocks = engine._twiddles(n, 2)
    assert not blocks.reusable and blocks.values == 256 * (512 + 512) < 1 << 20
    held = 0
    for ts, w, _ in blocks.chunks:
        held += w.size + sum(t.size for _, t in ts)
    assert held == blocks.values


def test_dft_matrix_is_read_only_and_cached_once_per_length():
    # F[j1, t] = W_B**(j1*t) holds B*B values, the length's table entries at
    # M*((j1*t) mod B) bit for bit, built once per length, however many plans
    # and directions read it, and no more of them kept than tables
    engine._dft_matrix.cache_clear()
    assert engine._dft_matrix.cache_info().maxsize == engine._TABLES
    for misses, m in enumerate((4096, 24000, 8198, 4099), 1):
        b = _largest_divisor_to_root(m)
        x = random_complex(np.random.default_rng(m), m)
        for direction, step in itertools.product((F, I), _divisors(m)[:4]):
            _rows(x, step, direction)
        dft_direct(x)
        f = engine._dft_matrix(m, b)
        assert f.shape == (b, b) and not f.flags.writeable
        exponents = np.multiply.outer(np.arange(b), np.arange(b)) % b
        assert f.tobytes() == twiddle_table(m)[m // b * exponents].tobytes()
        info = engine._dft_matrix.cache_info()
        assert (info.misses, info.currsize) == (misses, min(misses, engine._TABLES)), m


def test_fft_length_one_and_golden():
    z = np.array([2.5 - 1.5j])
    np.testing.assert_array_equal(fft_radix2(z), z)
    np.testing.assert_allclose(fft_radix2(GOLDEN_FOLD), GOLDEN_FORWARD, atol=1e-12)
    np.testing.assert_allclose(
        fft_radix2(GOLDEN_FOLD), dft_direct(GOLDEN_FOLD), rtol=0, atol=1e-12
    )


def test_fft_equals_direct_all_pow2_lengths():
    rng = np.random.default_rng(23)
    n = 1
    while n <= 4096:
        x = random_complex(rng, n)
        got = fft_radix2(x)
        want = dft_direct(x)
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * scale)
        n *= 2


# np.fft norm arguments giving the same scaling as each (direction, mode)
NUMPY = {
    (F, NONE): (np.fft.fft, "backward"),
    (F, RECIP): (np.fft.fft, "backward"),
    (F, UNITARY): (np.fft.fft, "ortho"),
    (I, NONE): (np.fft.ifft, "forward"),
    (I, RECIP): (np.fft.ifft, "backward"),
    (I, UNITARY): (np.fft.ifft, "ortho"),
}


@pytest.mark.parametrize("direction, mode", list(NUMPY), ids=lambda v: v.value)
def test_fft_matches_numpy_every_pow2_length_to_2_17(direction, mode):
    rng = np.random.default_rng(28)
    numpy_fft, norm = NUMPY[direction, mode]
    for q in range(18):
        x = random_complex(rng, 1 << q)
        want = numpy_fft(x, norm=norm)
        err = np.max(np.abs(fft_radix2(x, direction, mode) - want)) / np.max(np.abs(want))
        assert err <= 1e-12, (q, err)


def test_direct_reads_only_the_table_of_its_length():
    # the row kernel's twiddles and the DFT matrix F both read the one table
    twiddle_table.cache_clear()
    engine._dft_matrix.cache_clear()
    x = random_complex(np.random.default_rng(30), 1024)
    dft_direct(x, F)
    dft_direct(x, I)
    info = twiddle_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    assert twiddle_table(1024) is twiddle_table(1024)


def test_twiddle_cache_is_bounded():
    twiddle_table.cache_clear()
    maxsize = twiddle_table.cache_info().maxsize
    assert maxsize == engine._TABLES
    for m in range(2, 3 * maxsize):
        table = twiddle_table(m)
        assert not table.flags.writeable
        x = random_complex(np.random.default_rng(m), m)
        _rows(x, 1, I)
        assert twiddle_table.cache_info().currsize <= maxsize
    assert twiddle_table.cache_info().currsize == maxsize


@pytest.mark.parametrize("engine_fn", [fft_radix2, dft_direct, transform])
def test_output_never_aliases_or_changes_input(engine_fn):
    rng = np.random.default_rng(29)
    base = random_complex(rng, 32)
    for x in (base[:1], base[::2]):  # the m = 1 case and a strided complex128 view
        before = base.copy()
        for direction, mode in NUMPY:
            out = engine_fn(x, direction, mode)
            assert not np.shares_memory(out, base)
            assert np.array_equal(base, before)


@pytest.mark.parametrize("bad", [
    np.complex128(1 + 1j),
    np.ones((2, 4)),
    np.array([], dtype=np.complex128),
    np.array([1.0, np.nan, 0.0, 0.0]),
    np.array([1.0, 0.0, np.inf]),
    [[1, 2], [3]],
], ids=["0-d", "2-d", "empty", "nan-pow2", "inf-not-pow2", "ragged"])
def test_transform_rejects_bad_sequences(bad):
    with pytest.raises(SequenceError):
        transform(bad)


@pytest.mark.parametrize("engine_fn", [transform, dft_direct])
def test_transform_that_overflows_raises_the_typed_error(engine_fn):
    # finite samples whose sum overflows float64 (X[0] = 1e308 + 1e308, and the
    # unscaled inverse's x[0]): SequenceError with the pipeline's message, in
    # either direction and every mode, and no numpy warning even when the
    # caller's error state raises; that state is the caller's again afterwards
    outside = np.geterr()
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for direction, mode in itertools.product(Direction, NormalizationMode):
            with pytest.raises(SequenceError) as err:
                engine_fn([1e308, 1e308], direction, mode)
            assert str(err.value) == "non-finite values in the transform, which overflows float64"
        assert np.geterr()["over"] == "raise"
    assert np.geterr() == outside


def test_fft_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="not a power of two"):
        fft_radix2(np.zeros(12))


# the c values of the acceptance criterion 3 grid, plus lengths with odd factors
TRANSFORM_LENGTHS = [2 ** q for q in range(1, 12)] + [3, 6, 12, 24, 3000]


def test_transform_is_one_path_with_reference_counts():
    rng = np.random.default_rng(24)
    z = np.array([1 + 2j])
    for direction, mode in NUMPY:
        np.testing.assert_array_equal(transform(z, direction, mode), z)
    for m in TRANSFORM_LENGTHS:
        x = random_complex(rng, m)
        for direction, mode in NUMPY:
            got_ctr, direct_ctr, radix2_ctr = OpCounter(), OpCounter(), OpCounter()
            got = transform(x, direction, mode, got_ctr)
            refs = [dft_direct(x, direction, mode, direct_ctr)]
            if is_power_of_two(m):
                refs.append(fft_radix2(x, direction, mode, radix2_ctr))
            for ref in refs:
                err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
                assert err <= 1e-12, (m, direction, mode, err)
            # the counted engine that runs at this length pins the closed form
            want_ctr = radix2_ctr if is_power_of_two(m) else direct_ctr
            want = (want_ctr.complex_adds, want_ctr.complex_mults)
            assert (got_ctr.complex_adds, got_ctr.complex_mults) == want == engine.op_counts(m), m


def test_op_counts_rejects_a_length_that_is_no_positive_integer():
    for m in (-4, 0, True, 8.0, "8", None, -10**5000):
        with pytest.raises(OutOfRangeError):
            engine.op_counts(m)


def test_op_counts_at_length_one_and_numpy_integers():
    assert engine.op_counts(1) == (0, 0)
    assert engine.op_counts(np.int64(8)) == engine.op_counts(8) == (24, 12)
    assert engine.op_counts(np.int32(24)) == engine.op_counts(24) == (24 * 23, 24 * 24)


def test_fft_has_np_fft_bits_with_or_without_its_ufuncs(monkeypatch):
    # _fft calls the pocketfft ufuncs under np.fft.fft and np.fft.ifft(norm="forward")
    # directly; an engine loaded where numpy has no such module calls the wrappers.
    # Either gives the wrappers' bits, into a fresh array or a given one, on
    # contiguous and on strided input
    monkeypatch.setitem(sys.modules, "numpy.fft._pocketfft_umath", None)
    spec = importlib.util.spec_from_file_location("ricdft._engine_on_wrappers", engine.__file__)
    spec.loader.exec_module(wrapped := importlib.util.module_from_spec(spec))
    assert wrapped._pocket_fft is not engine._pocket_fft
    rng = np.random.default_rng(29)
    strided = [random_complex(rng, 2 * m)[::2] for m in (8, 24, 3000)]
    for x in [random_complex(rng, m) for m in [1] + TRANSFORM_LENGTHS] + strided:
        for direction, want in ((F, np.fft.fft(x)), (I, np.fft.ifft(x, norm="forward"))):
            for module in (engine, wrapped):
                out = np.full(len(x), np.nan, complex)
                assert module._fft(x, direction, out=out) is out
                assert out.tobytes() == module._fft(x, direction).tobytes() == want.tobytes()


def test_round_trips():
    rng = np.random.default_rng(25)
    for n in (4, 12, 64, 1024, 4096):
        x = random_complex(rng, n)
        back = transform(transform(x, F, NONE), I, RECIP)
        np.testing.assert_allclose(back, x, rtol=0, atol=1e-10 * max(1, float(np.max(np.abs(x)))))
        back = transform(transform(x, F, UNITARY), I, UNITARY)
        np.testing.assert_allclose(back, x, rtol=0, atol=1e-10 * max(1, float(np.max(np.abs(x)))))


def test_parseval_unitary():
    rng = np.random.default_rng(26)
    for n in (8, 24, 256):
        x = random_complex(rng, n)
        spectrum = transform(x, F, UNITARY)
        assert np.linalg.norm(spectrum) == pytest.approx(np.linalg.norm(x), rel=1e-10)


def test_counter_direct():
    ctr = OpCounter()
    dft_direct(np.ones(6), counter=ctr)
    assert ctr.complex_mults == 36 and ctr.complex_adds == 30


def test_counter_fft():
    for n in (2, 8, 256):
        ctr = OpCounter()
        fft_radix2(np.ones(n), counter=ctr)
        stages = n.bit_length() - 1
        assert ctr.complex_mults == (n // 2) * stages
        assert ctr.complex_adds == n * stages


def test_twiddle_factor_periodicity_and_magnitude():
    # twiddle_table(order)[r] is W_order^r; an exponent e reduces to r = e mod order
    for order in (4, 12, 1024):
        table = twiddle_table(order)
        for exponent in (-3, 0, 5, order, 7 * order + 2, -11 * order - 9):
            w = table[exponent % order]
            assert abs(abs(w) - 1.0) <= 1e-12
            w_shift = table[(exponent + order) % order]
            assert w == w_shift  # integer reduction makes this exact
            assert w == pytest.approx(cmath.exp(-2j * cmath.pi * exponent / order), abs=1e-10)


def test_twiddle_table_agrees_with_twiddle_factor():
    for order in (2, 4, 8, 12, 24, 1024):
        table = twiddle_table(order)
        r = np.arange(order)
        assert np.max(np.abs(np.abs(table) - 1.0)) <= 1e-12
        # bit for bit the defining expression exp(-2j*pi*r/order)
        assert np.array_equal(table, np.exp(-2j * np.pi * r / order))
        for ri in range(order):
            # W^(-r) == W^((-r) mod order), evaluated independently with cmath
            want = cmath.exp(2j * cmath.pi * ((-ri) % order) / order)
            assert table[ri] == pytest.approx(want, abs=1e-14)


def test_normalization_scales():
    rng = np.random.default_rng(27)
    x = random_complex(rng, 16)
    unscaled = transform(x, F, NONE)
    np.testing.assert_allclose(transform(x, F, RECIP), unscaled, atol=1e-12)
    np.testing.assert_allclose(transform(x, F, UNITARY), unscaled / 4.0, atol=1e-12)
    inv_unscaled = transform(x, I, NONE)
    np.testing.assert_allclose(transform(x, I, RECIP), inv_unscaled / 16.0, atol=1e-12)
    np.testing.assert_allclose(transform(x, I, UNITARY), inv_unscaled / 4.0, atol=1e-12)
