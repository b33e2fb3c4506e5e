import json
import math

import numpy as np
import pytest

from ricdft import (
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
    (True, 1.0, 0.0), (2.0, 1.0, 0.0), ("1", 1.0, 0.0),
])
def test_synthesize_rejects_bad_tones(tone):
    with pytest.raises(OutOfRangeError):
        synthesize_tones(8, [tone])


def test_synthesize_bin_out_of_range():
    with pytest.raises(OutOfRangeError):
        synthesize_tones(8, [(8, 1.0, 0.0)])
    with pytest.raises(OutOfRangeError):
        synthesize_tones(8, [(-1, 1.0, 0.0)])
