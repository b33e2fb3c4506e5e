import dataclasses
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

import ricdft.io
from ricdft import (
    LengthMismatchError,
    NormalizationMode,
    OutOfRangeError,
    SignalFileError,
    SignalFormat,
    dft_direct,
    make_plan,
    read_signal,
    ric_dft,
    ric_idft,
    ric_index_set,
    synthesize_tones,
    write_signal,
    write_spectrum,
)

from helpers import GOLDEN_X, random_complex


def test_read_csv_basic(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1,1\n2,2\n")
    np.testing.assert_array_equal(read_signal(path), np.array([1 + 1j, 2 + 2j]))


def test_read_csv_header_optional(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("re,im\n1,0\n-2.5,3e-1\n")
    np.testing.assert_array_equal(read_signal(path), np.array([1 + 0j, -2.5 + 0.3j]))


def test_read_csv_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1;2\n")
    with pytest.raises(SignalFileError) as excinfo:
        read_signal(path)
    assert excinfo.value.line == 1

    path.write_text("1,2\nnope,3\n")
    with pytest.raises(SignalFileError) as excinfo:
        read_signal(path)
    assert excinfo.value.line == 2


def test_read_csv_wrong_field_count(tmp_path):
    path = tmp_path / "bad.csv"
    for text, line in (("re,im\n1,2,3\n", 2), ("1,2\n\n3\n", 3)):
        path.write_text(text)
        with pytest.raises(SignalFileError) as excinfo:
            read_signal(path)
        assert excinfo.value.line == line


def test_read_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(SignalFileError):
        read_signal(path)
    path.write_text("re,im\n")  # header only
    with pytest.raises(SignalFileError):
        read_signal(path)


def test_read_raw_basic(tmp_path):
    path = tmp_path / "x.raw"
    np.array([1.0, -1.0], dtype="<f8").tofile(path)
    np.testing.assert_array_equal(read_signal(path, "raw-f64"), np.array([1 - 1j]))


def test_read_raw_truncated_and_empty(tmp_path):
    path = tmp_path / "bad.raw"
    np.array([1.0, 2.0, 3.0], dtype="<f8").tofile(path)
    with pytest.raises(SignalFileError):
        read_signal(path, "raw-f64")
    path.write_bytes(b"")
    with pytest.raises(SignalFileError):
        read_signal(path, "raw-f64")
    path.write_bytes(np.array([1.0, 2.0], dtype="<f8").tobytes() + b"\x00" * 4)
    with pytest.raises(SignalFileError):  # one whole sample plus 4 stray bytes
        read_signal(path, "raw-f64")


@pytest.mark.parametrize("bad", [complex(math.nan, 0), complex(0, math.inf), complex(-math.inf, 1)],
                         ids=["nan-re", "inf-im", "neg-inf-re"])
def test_read_raw_rejects_non_finite_samples(tmp_path, bad):
    # NaN or +-Inf in either part of any sample fails the file, not a later step
    x = GOLDEN_X.copy()
    x[5] = bad
    path = tmp_path / "x.raw"
    x.astype("<c16").tofile(path)
    with pytest.raises(SignalFileError, match="non-finite sample$"):
        read_signal(path, "raw-f64")


def test_raw_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(51)
    x = random_complex(rng, 64)
    path = tmp_path / "x.raw"
    write_signal(x, path, "raw-f64")
    back = read_signal(path, "raw-f64")
    assert np.array_equal(back, x)  # bit-exact


def test_raw_round_trip_keeps_signed_zeros(tmp_path):
    x = np.zeros(4, dtype=np.complex128)
    x.real = [0.0, -0.0, 0.0, -0.0]
    x.imag = [0.0, 0.0, -0.0, -0.0]
    path = tmp_path / "z.raw"
    write_signal(x, path, SignalFormat.RAW_F64)
    assert path.read_bytes() == x.astype("<c16").tobytes()
    for fmt in ("raw-f64", SignalFormat.RAW_F64):
        back = read_signal(path, fmt)
        assert back.tobytes() == x.astype("<c16").tobytes()


@pytest.mark.skipif(sys.byteorder != "little", reason="complex128 is '<c16' only on a little-endian host")
def test_raw_write_makes_no_copy_of_the_signal(tmp_path):
    # complex128 already has the "<c16" layout, so the write builds only the
    # finiteness mask (one byte a sample, 66,586 bytes at its peak was
    # measured), not a 16-byte-a-sample copy (1,053,408 bytes)
    x = random_complex(np.random.default_rng(53), 1 << 16)
    path = tmp_path / "x.raw"
    tracemalloc.start()
    try:
        write_signal(x, path, "raw-f64")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes // 4, (peak, x.nbytes)
    assert path.read_bytes() == x.tobytes()


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(52)
    x = random_complex(rng, 64)
    path = tmp_path / "x.csv"
    write_signal(x, path, "csv")
    back = read_signal(path, "csv")
    # shortest-roundtrip rendering makes this exact, well under the 1e-15 bound
    np.testing.assert_allclose(back, x, rtol=0, atol=1e-15)
    assert np.array_equal(back, x)


def test_unknown_format():
    with pytest.raises(OutOfRangeError):
        read_signal("whatever", "wav")


def test_write_spectrum_csv(tmp_path):
    spectrum = ric_dft(GOLDEN_X, make_plan(8, 4), NormalizationMode.NONE)
    path = tmp_path / "spec.csv"
    write_spectrum(spectrum, path, "csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,index,re,im"
    assert len(lines) == 5
    indices = [int(line.split(",")[1]) for line in lines[1:]]
    assert indices == [0, 2, 4, 6]
    values = [complex(float(l.split(",")[2]), float(l.split(",")[3])) for l in lines[1:]]
    np.testing.assert_allclose(values, spectrum.values, rtol=0, atol=0)


def test_write_spectrum_json(tmp_path):
    spectrum = ric_dft(GOLDEN_X, make_plan(8, 4), NormalizationMode.NONE)
    path = tmp_path / "spec.json"
    write_spectrum(spectrum, path, "json")
    doc = json.loads(path.read_text())
    assert doc["header"] == {"n": 8, "c": 4, "l": 2, "mode": "none", "direction": "forward"}
    assert [e["index"] for e in doc["entries"]] == [0, 2, 4, 6]
    assert [e["k"] for e in doc["entries"]] == [0, 1, 2, 3]
    got = [complex(e["re"], e["im"]) for e in doc["entries"]]
    np.testing.assert_allclose(got, spectrum.values, rtol=0, atol=0)


def test_write_spectrum_json_from_string_arguments(tmp_path):
    spectrum = ric_idft(GOLDEN_X, make_plan(8, 4), "unitary")
    path = tmp_path / "spec.json"
    write_spectrum(spectrum, path, "json")
    header = json.loads(path.read_text())["header"]
    assert header == {"n": 8, "c": 4, "l": 2, "mode": "unitary", "direction": "inverse"}


@pytest.mark.parametrize("fmt, shown", [
    ("wav", "'wav'"),
    (10**5000, "<16610-bit integer>"),  # too long to print: no plain ValueError
    (SignalFormat.CSV, "<SignalFormat.CSV: 'csv'>"),  # a signal format, named as given
], ids=["wav", "int-too-long", "signal-format"])
def test_write_spectrum_rejects_unknown_formats(tmp_path, fmt, shown):
    spectrum = ric_dft(GOLDEN_X, make_plan(8, 4), NormalizationMode.NONE)
    with pytest.raises(OutOfRangeError) as excinfo:
        write_spectrum(spectrum, tmp_path / "spec.out", fmt)
    assert str(excinfo.value) == f"unknown spectrum format {shown}"
    assert not (tmp_path / "spec.out").exists()


def test_write_spectrum_format_in_any_case(tmp_path):
    spectrum = ric_dft(GOLDEN_X, make_plan(8, 4), NormalizationMode.NONE)
    want, got = tmp_path / "want", tmp_path / "got"
    for kind in ("csv", "json"):
        write_spectrum(spectrum, want, kind)
        for spelling in (kind.upper(), kind.capitalize()):
            write_spectrum(spectrum, got, spelling)
            assert got.read_bytes() == want.read_bytes(), spelling


@pytest.mark.parametrize("size", (6, 3, 0))
def test_spectrum_of_another_count_than_c_raises_and_writes_nothing(tmp_path, size):
    # plan (8, 4) holds 4 values: 6 would lose 2, and 3 or none would write a
    # short file; csv and json raise before the file is opened, and entries raises
    spectrum = ric_dft(GOLDEN_X, make_plan(8, 4), NormalizationMode.NONE)
    spectrum = dataclasses.replace(spectrum, values=np.arange(size, dtype=np.complex128))
    message = f"spectrum has {size} values, plan expects 4"
    for kind in ("csv", "json"):
        with pytest.raises(LengthMismatchError) as excinfo:
            write_spectrum(spectrum, tmp_path / f"spec.{kind}", kind)
        assert str(excinfo.value) == message
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(LengthMismatchError) as excinfo:
        spectrum.entries
    assert str(excinfo.value) == message


@pytest.mark.parametrize("shape", ((2, 2), (4, 1), (1, 4)))
def test_spectrum_of_another_shape_than_c_raises_and_writes_nothing(tmp_path, shape):
    # plan (8, 4) holds 4 values in one axis: the same 4 values in two axes
    # would be paired with the indices row by row, so csv and json raise
    # before the file is opened, and entries raises
    spectrum = ric_dft(GOLDEN_X, make_plan(8, 4), NormalizationMode.NONE)
    spectrum = dataclasses.replace(spectrum, values=np.arange(4, dtype=np.complex128).reshape(shape))
    message = f"spectrum has values of shape {shape}, plan expects 4"
    for kind in ("csv", "json"):
        with pytest.raises(LengthMismatchError) as excinfo:
            write_spectrum(spectrum, tmp_path / f"spec.{kind}", kind)
        assert str(excinfo.value) == message
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(LengthMismatchError) as excinfo:
        spectrum.entries
    assert str(excinfo.value) == message


def test_write_spectrum_bad_path(tmp_path):
    spectrum = ric_dft(GOLDEN_X, make_plan(8, 4), NormalizationMode.NONE)
    with pytest.raises(OSError):
        write_spectrum(spectrum, tmp_path / "missing" / "spec.csv", "csv")


def test_synthesize_constant_tone():
    x = synthesize_tones(8, [(0, 1.0, 0.0)])
    np.testing.assert_allclose(x, np.ones(8), atol=1e-15)


def test_synthesize_tone_concentrates_on_retained_bin():
    plan = make_plan(64, 8)
    bin_index = 3 * plan.l  # k = 3
    x = synthesize_tones(64, [(bin_index, 1.0, 0.0)])
    spectrum = ric_dft(x, plan, NormalizationMode.NONE)
    # all energy lands on entry k = 3 with value n
    np.testing.assert_allclose(spectrum.values[3], 64.0, atol=1e-9)
    others = np.delete(spectrum.values, 3)
    assert float(np.max(np.abs(others))) < 1e-9
    # agrees with the full direct transform
    want = dft_direct(x)[ric_index_set(plan)]
    np.testing.assert_allclose(spectrum.values, want, rtol=0, atol=1e-9)


def test_synthesize_linearity():
    one = synthesize_tones(16, [(2, 1.0, 0.5)])
    two = synthesize_tones(16, [(5, 0.25, -1.0)])
    both = synthesize_tones(16, [(2, 1.0, 0.5), (5, 0.25, -1.0)])
    np.testing.assert_allclose(both, one + two, rtol=0, atol=1e-15)


def test_synthesize_size_must_be_an_integer():
    for n in (8.7, 8.0, True):
        with pytest.raises(OutOfRangeError):
            synthesize_tones(n, [(0, 1.0, 0.0)])
    np.testing.assert_array_equal(synthesize_tones(np.int64(8), [(1, 1.0, 0.0)]),
                                  synthesize_tones(8, [(1, 1.0, 0.0)]))


@pytest.mark.parametrize("tone", [
    (1, math.nan, 0.0), (1, 1.0, math.inf), (1, "a", 0.0), (1, None, 0.0),
    (True, 1.0, 0.0), (2.0, 1.0, 0.0), ("1", 1.0, 0.0), (1, 10**400, 0.0), (1, 1.0, 10**400),
    (10**5000, 1.0, 0.0), (1, 1.0), (1, 1.0, 0.0, 0.0), 1,
])
def test_synthesize_rejects_bad_tones(tone):
    with pytest.raises(OutOfRangeError):
        synthesize_tones(8, [tone])


def test_synthesize_rejects_an_overflowing_sum_and_an_unallocatable_n():
    # each tone is finite, their sum is not: no RuntimeWarning, a typed error
    with pytest.raises(OutOfRangeError):
        synthesize_tones(8, [(1, 1e308, 0.0), (1, 1e308, 0.0)])
    with pytest.raises(OutOfRangeError):  # numpy cannot even size 2**62 samples
        synthesize_tones(2 ** 62, [(1, 1.0, 0.0)])
    with pytest.raises(OutOfRangeError, match="too large to allocate"):  # too long to print whole
        synthesize_tones(10**5000, [(1, 1.0, 0.0)])


def test_synthesize_bin_out_of_range():
    with pytest.raises(OutOfRangeError):
        synthesize_tones(8, [(8, 1.0, 0.0)])
    with pytest.raises(OutOfRangeError):
        synthesize_tones(8, [(-1, 1.0, 0.0)])


def _read_like_line_loop(path):
    """read_signal(path), checked bit for bit against the line loop it replaces.

    Returns the samples, or the SignalFileError both raise with the same
    message and line.
    """
    try:
        want = ricdft.io._read_csv_lines(path)
    except SignalFileError as exc:
        with pytest.raises(SignalFileError) as excinfo:
            read_signal(path)
        assert (str(excinfo.value), excinfo.value.line) == (str(exc), exc.line)
        return exc
    got = read_signal(path)
    assert got.dtype == np.complex128
    assert got.tobytes() == want.tobytes()  # signs of zero included
    return got


_CSV_CASES = [
    ("x.csv", b"re,im\n1,2\n", [1 + 2j]),
    ("x.csv", b"RE, IM\n1,2\n", [1 + 2j]),
    ("x.csv", b"\n\n  re , im \n1,2\n", [1 + 2j]),
    ("x.csv", b"1,2\n3,4\n", [1 + 2j, 3 + 4j]),
    ("x.csv", b"re,im\r\n1,2\r\n3,4\r\n", [1 + 2j, 3 + 4j]),
    ("x.csv", b"1,2\r3,4\r", [1 + 2j, 3 + 4j]),
    ("x.csv", b"1,2\n\n\n3,4", [1 + 2j, 3 + 4j]),
    ("x.csv", b"1,2\n \t\n3,4\n", [1 + 2j, 3 + 4j]),
    ("x.csv", b" 1 , 2 \n\t3,\t4\n", [1 + 2j, 3 + 4j]),
    ("x.csv", b"+1,-0.0\n-0.0,0.0\n", [complex(1, -0.0), complex(-0.0, 0.0)]),
    ("x.csv", b"1e-320,-5e-324\n", [complex(1e-320, -5e-324)]),
    ("x.csv", b"1_0,2\n", [10 + 2j]),
    ("x.csv", "1\u2003,\u0662\n".encode(), [1 + 2j]),  # unicode space and digit
    ("x.csv.gz", b"re,im\n1,2\n", [1 + 2j]),  # plain text, whatever the name says
    ("x.csv", b"1,2\n3,4\nnan,1\n", 3),
    ("x.csv", b"1,2\n1,-inf\n", 2),
    ("x.csv", b"re,im\n1,2\n3\n", 3),
    ("x.csv", b"1,2\n1,2,3\n", 2),
    ("x.csv", b"1\r,2\n", 1),
    ("x.csv", b"1,2\x1e\n", [1 + 2j]),  # the line is stripped
    ("x.csv", b"1\x1e,2\n", 1),  # float() does not strip \x1c-\x1f from a field
    ("x.csv", b"1,2\x003,4\n", 1),
    ("x.csv", b"re,im\nre,im\n1,2\n", 2),  # the header is skipped once only
    ("x.csv", b"\xef\xbb\xbf1,2\n", 1),  # a byte-order mark is not whitespace
    ("x.csv", b"\xff\xfe1,2\n1,2\n", 1),  # not UTF-8
    ("x.csv", b"1,2\n1,2\n1,\xe92\n", 3),
    ("x.csv", b"", None),
    ("x.csv", b"re,im\n", None),
    ("x.csv", b"\n \r\n", None),
]
_CSV_IDS = [
    "header", "header-caps-spaced", "header-after-blanks", "no-header", "crlf", "cr",
    "blank-lines", "whitespace-line", "spaced-fields", "signed-zeros", "subnormals",
    "underscore", "unicode", "gz-name", "nan-line-3", "inf-line-2", "one-field",
    "three-fields", "cr-splits-a-row", "line-ends-1e", "field-ends-1e", "nul", "second-header",
    "bom", "not-utf8", "not-utf8-line-3", "empty", "header-only", "blank-only",
]


@pytest.mark.parametrize("name, data, want", _CSV_CASES, ids=_CSV_IDS)
def test_read_csv_matches_line_loop(tmp_path, name, data, want):
    path = tmp_path / name
    path.write_bytes(data)
    got = _read_like_line_loop(path)
    if isinstance(want, list):
        assert got.tobytes() == np.array(want, dtype=np.complex128).tobytes()
    else:
        assert isinstance(got, SignalFileError) and got.line == want


def _changed_signature(*args, **kwargs):
    raise TypeError("_load_from_filelike() got an unexpected keyword argument")


@pytest.mark.parametrize("reader", [None, _changed_signature], ids=["missing", "changed-signature"])
@pytest.mark.parametrize("name, data, want", _CSV_CASES, ids=_CSV_IDS)
def test_read_csv_without_chunked_reader_matches_line_loop(tmp_path, monkeypatch, reader, name, data, want):
    # a numpy that moved or changed its C reader: the line loop, not numpy, reads the same
    def loadtxt(*args, **kwargs):
        raise AssertionError("np.loadtxt ran")

    monkeypatch.setattr(ricdft.io, "_load_from_filelike", reader)
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    test_read_csv_matches_line_loop(tmp_path, name, data, want)


def test_read_csv_matches_line_loop_on_random_files(tmp_path):
    rng = np.random.default_rng(53)

    def pick(common, rare):
        return str(rng.choice(rare if rng.random() < 0.03 else common))

    def pad():
        return pick(["", " "], ["\t", "\x0b", "\x0c", "\x85", "\xa0", "\u2003", "\u2028", "\x00", "\x1e"])

    def csv_text():
        lines = ["re,im\n"] if rng.random() < 0.3 else []
        for _ in range(int(rng.integers(0, 6))):
            width = 2 if rng.random() > 0.03 else int(rng.integers(1, 4))
            fields = [pick(["1", "-0.0", "+2.5e-3", "1e-320", ".5", "7."],
                           ["1_0", "nan", "-inf", "x", "", "\xe9"]) for _ in range(width)]
            line = pick([",".join(pad() + f + pad() for f in fields)], ["", " ", "re,im", " RE , Im "])
            lines.append(line + pick(["\n", "\r\n"], ["\r", ""]))
        return "".join(lines)

    path = tmp_path / "fuzz.csv"
    outcomes = set()
    for _ in range(400):
        path.write_text(csv_text(), encoding="utf-8", newline="")
        outcomes.add(isinstance(_read_like_line_loop(path), SignalFileError))
    assert outcomes == {False, True}  # the draw reaches both outcomes


def test_well_formed_csv_never_reaches_line_loop(tmp_path, monkeypatch):
    def line_loop(path):
        raise AssertionError("the line loop ran")

    monkeypatch.setattr(ricdft.io, "_read_csv_lines", line_loop)
    path = tmp_path / "x.csv"
    write_signal(GOLDEN_X, path)
    np.testing.assert_array_equal(read_signal(path), GOLDEN_X)
    path.write_bytes(b"\r\n RE, im\r\n1, 2\r\n\r\n-0.0,3e-1\r\n")
    assert read_signal(path).tobytes() == np.array([1 + 2j, complex(-0.0, 0.3)]).tobytes()


def test_csv_round_trip_at_realistic_n(tmp_path):
    rng = np.random.default_rng(54)
    x = random_complex(rng, 1 << 16)
    path = tmp_path / "x.csv"
    write_signal(x, path)
    assert _read_like_line_loop(path).tobytes() == x.tobytes()


@pytest.mark.parametrize("x", [
    GOLDEN_X,
    np.array([complex(0.0, -0.0), complex(-0.0, 0.0), complex(5e-324, -1e-310),
              complex(-2.2250738585072014e-308, 1.7976931348623157e308)]),
    random_complex(np.random.default_rng(55), 4097),
], ids=["golden", "signed-zeros-subnormals", "random-4097"])
def test_write_csv_bytes_match_per_sample_format(tmp_path, x):
    path = tmp_path / "x.csv"
    write_signal(x, path)
    want = "re,im\n" + "".join(f"{float(z.real)!r},{float(z.imag)!r}\n" for z in x)
    assert path.read_bytes() == want.encode()


def _special_values(spectrum):
    """spectrum with signed zeros, subnormals and +-1e300 in its first entries."""
    specials = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, -2.2250738585072e-310),
                complex(1e300, -1e300), complex(-1e-300, 1.5)]
    values = spectrum.values.copy()
    values[:len(specials)] = specials[:values.size]
    return dataclasses.replace(spectrum, values=values)


def _json_dumps_bytes(spectrum):
    doc = {
        "header": {"n": spectrum.plan.n, "c": spectrum.plan.c, "l": spectrum.plan.l,
                   "mode": spectrum.mode.value, "direction": spectrum.direction.value},
        "entries": [{"k": k, "index": int(i), "re": float(z.real), "im": float(z.imag)}
                    for k, (i, z) in enumerate(zip(spectrum.indices, spectrum.values))],
    }
    return (json.dumps(doc, indent=2) + "\n").encode()


@pytest.mark.parametrize("case", range(12))
def test_json_spectrum_bytes_match_json_dumps(tmp_path, case):
    rng = np.random.default_rng(56 + case)
    n = int(rng.choice([8, 48, 256, 1000, 4096]))
    divisors = [c for c in range(2, n // 2 + 1) if n % c == 0]
    plan = make_plan(n, int(rng.choice(divisors)))
    x = random_complex(rng, n)
    path = tmp_path / "spec.json"
    for transform in (ric_dft, ric_idft):
        for mode in NormalizationMode:
            for spectrum in (transform(x, plan, mode), _special_values(transform(x, plan, mode))):
                write_spectrum(spectrum, path, "json")
                assert path.read_bytes() == _json_dumps_bytes(spectrum)


@pytest.mark.parametrize("values", [
    [complex(math.inf, 0.0), complex(-0.0, 5e-324), 1e300, -1e300],
    [complex(1.0, -math.inf), 0, 0, 0],
    [complex(math.nan, -0.0), 1, 2, 3],
    [complex(-math.inf, 0.5), complex(2.0, math.inf), 0, 0],
    [complex(math.copysign(math.nan, -1.0), 1.0), complex(0.5, math.copysign(math.nan, -1.0)), 0, 0],
], ids=["inf", "minus-inf", "nan", "minus-inf-re-inf-im", "sign-bit-nan"])
def test_json_spectrum_of_hand_built_values_bytes_match_json_dumps(tmp_path, values):
    spectrum = ric_dft(GOLDEN_X, make_plan(8, 4), NormalizationMode.NONE)
    spectrum = dataclasses.replace(spectrum, values=np.array(values, dtype=np.complex128))
    path = tmp_path / "spec.json"
    write_spectrum(spectrum, path, "json")
    assert path.read_bytes() == _json_dumps_bytes(spectrum)


def test_json_spectrum_with_a_few_non_finite_entries_bytes_match_json_dumps(tmp_path):
    # a 256-entry spectrum, finite apart from a few entries: each value is
    # spelled on its own, not the document as a whole
    x = random_complex(np.random.default_rng(57), 1024)
    spectrum = ric_dft(x, make_plan(1024, 256), NormalizationMode.UNITARY)
    values = spectrum.values.copy()
    values.real[[3, 200]] = math.inf, math.nan
    values.imag[[17, 255]] = -math.inf, math.copysign(math.nan, -1.0)
    spectrum = dataclasses.replace(spectrum, values=values)
    path = tmp_path / "spec.json"
    write_spectrum(spectrum, path, "json")
    assert path.read_bytes() == _json_dumps_bytes(spectrum)
    assert path.read_text().count("Infinity") == 2 and path.read_text().count("NaN") == 2
