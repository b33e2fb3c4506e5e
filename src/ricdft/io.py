"""Signal and spectrum interchange formats plus test-tone synthesis.

Two signal formats: ``csv`` is UTF-8 text holding one "re,im" decimal pair
per line with an optional "re,im" header; ``raw-f64`` holds little-endian
float64 pairs interleaved re,im with no header, which is the complex128
("<c16") byte layout.  Decimal rendering uses Python's shortest round-trip
repr, so csv round trips are exact; raw-f64 round trips are bit-exact,
signed zeros included.  A format is a :class:`SignalFormat` member or its
string value.

A csv signal is parsed in one ``np.loadtxt`` pass.  The line loop runs only
on a file that pass does not take (a bad line, no samples, or a number form
only ``float()`` reads, such as ``1_0``): it returns the same values, bit for
bit, or raises :class:`SignalFileError` with the first bad line.  Both read
the text through ``_csv_text``, which alone states how it is decoded and
which line is the header.  A spectrum's csv lines and json entries come
from one list of (k, index, re, im) rows.
"""

import contextlib
import json
import math
import warnings
from enum import Enum

import numpy as np

from .core import OutOfRangeError, RicdftError, _member, _real, _shown, _size, as_complex_sequence
from .ric import RicSpectrum


class SignalFormat(str, Enum):
    CSV = "csv"
    RAW_F64 = "raw-f64"


class SignalFileError(RicdftError, ValueError):
    """A signal file failed to parse or held no samples."""

    def __init__(self, message: str, path=None, line: int | None = None):
        super().__init__(message)
        self.path = path
        self.line = line


def read_signal(path, fmt=SignalFormat.CSV) -> np.ndarray:
    """Read a complex sequence; samples come back in file order."""
    if _member(SignalFormat, fmt) is SignalFormat.CSV:
        return _read_csv(path)
    return _read_raw(path)


@contextlib.contextmanager
def _csv_text(path):
    """(text file, number of the line it is at): a csv signal, open past its header.

    Bytes that are not UTF-8 decode to lone surrogates, which no number
    parses.  The first line that is not blank is the optional header when
    it reads "re,im", in any case and with spaces anywhere.
    """
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        lines = enumerate(iter(fh.readline, ""), start=1)
        lineno, first = next(((i, line) for i, line in lines if line.strip()), (0, ""))
        if first.strip().replace(" ", "").lower() != "re,im":
            fh.seek(0)  # no header: every line is read, from the first
            lineno = 0
        yield fh, lineno + 1


def _read_csv(path) -> np.ndarray:
    with _csv_text(path) as (fh, _):
        rows = _loadtxt(fh)
    if rows is not None and rows.shape[1] == 2 and np.all(np.isfinite(rows)):
        return rows.view(np.complex128).ravel()
    # the loop returns the same values, or raises for the first bad line
    return _read_csv_lines(path)


def _loadtxt(fh):
    """At least one row of floats from where fh is, in one np.loadtxt pass, or None."""
    start = fh.tell()
    for chunk in iter(lambda: fh.read(1 << 16), ""):
        if any(ch in chunk for ch in "\x1c\x1d\x1e\x1f"):
            return None  # loadtxt strips these around a field, float() does not
    fh.seek(start)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # no rows: loadtxt warns, so raise
            return np.loadtxt(fh, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except (ValueError, UserWarning):
        return None


def _read_csv_lines(path) -> np.ndarray:
    samples = []
    with _csv_text(path) as (fh, start):
        for lineno, raw in enumerate(fh, start=start):
            line = raw.strip()
            if not line:
                continue
            try:
                re_text, im_text = line.split(",")
                z = complex(float(re_text), float(im_text))
            except ValueError:  # other than two fields, or a bad number
                z = None
            if z is None or not (math.isfinite(z.real) and math.isfinite(z.imag)):
                what = "expected 're,im', got" if z is None else "non-finite sample"
                raise SignalFileError(f"{path}: line {lineno}: {what} {line!r}", path=path, line=lineno)
            samples.append(z)
    if not samples:
        raise SignalFileError(f"{path}: no samples", path=path)
    return np.array(samples, dtype=np.complex128)


def _read_raw(path) -> np.ndarray:
    data = np.fromfile(path, dtype=np.uint8)
    if data.size == 0:
        raise SignalFileError(f"{path}: no samples", path=path)
    if data.size % 16 != 0:
        raise SignalFileError(
            f"{path}: {data.size} bytes is not a whole number of 16-byte samples",
            path=path,
        )
    data = data.view("<c16")
    if not np.all(np.isfinite(data)):  # complex: both parts finite
        raise SignalFileError(f"{path}: non-finite sample", path=path)
    return data


def write_signal(x, path, fmt=SignalFormat.CSV):
    """Write a complex sequence in the given format."""
    x = as_complex_sequence(x)
    if _member(SignalFormat, fmt) is SignalFormat.CSV:
        with open(path, "w", newline="") as fh:
            fh.write("re,im\n")
            for i in range(0, x.size, 4096):  # a join per block, so the whole text is never held
                block = x[i:i + 4096]
                rows = zip(block.real.tolist(), block.imag.tolist())
                fh.write("".join(f"{a!r},{b!r}\n" for a, b in rows))
    else:
        x.astype("<c16").tofile(path)


def write_spectrum(spectrum: RicSpectrum, path, fmt="csv"):
    """Write retained coefficients as csv (k,index,re,im) or json.

    The json document holds a header record with the plan and conventions
    plus the list of entry records.
    """
    kind = str(fmt).lower() if isinstance(fmt, str) else None
    if kind not in ("csv", "json"):
        raise OutOfRangeError(f"unknown spectrum format {_shown(fmt)}")
    fields = ("k", "index", "re", "im")
    rows = [(k, idx, float(z.real), float(z.imag)) for k, (idx, z) in enumerate(spectrum.entries)]
    if kind == "csv":
        with open(path, "w", newline="") as fh:
            fh.write(",".join(fields) + "\n")
            fh.writelines(f"{k},{idx},{re!r},{im!r}\n" for k, idx, re, im in rows)
    else:
        doc = {
            "header": {"n": spectrum.plan.n, "c": spectrum.plan.c, "l": spectrum.plan.l,
                       "mode": spectrum.mode.value, "direction": spectrum.direction.value},
            "entries": [dict(zip(fields, row)) for row in rows],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


def synthesize_tones(n: int, tones) -> np.ndarray:
    """Sum of complex exponentials: amp * exp(j*(2*pi*bin*m/n + phase)).

    n is an integer size (Python or numpy integer, not bool or float).
    ``tones`` is an iterable of (bin, amplitude, phase) with integer bins
    in [0, n-1] and finite amplitude and phase, else OutOfRangeError, as is an n
    too large to allocate or a sum that overflows.  Bin*index products are
    reduced mod n, keeping every sample accurate to machine precision.
    """
    n = _size("n", n, 1)
    try:
        m = np.arange(n, dtype=np.int64)
        x = np.zeros(n, dtype=np.complex128)
    except ValueError:  # numpy: n * itemsize overflows its size type ("array is too big")
        raise OutOfRangeError(f"n={n} is too large to allocate") from None
    for bin_idx, amp, phase in tones:
        bin_idx, amp, phase = _size("tone bin", bin_idx), _real("amplitude", amp), _real("phase", phase)
        if bin_idx >= n:
            raise OutOfRangeError(f"tone bin {_shown(bin_idx)} outside [0, {n - 1}]")
        angle = 2.0 * np.pi * ((bin_idx * m) % n) / n + phase
        with np.errstate(over="ignore", invalid="ignore"):
            x += amp * np.exp(1j * angle)
    if not np.all(np.isfinite(x)):  # complex: both parts finite
        raise OutOfRangeError("the tones' sum overflows to a non-finite sample")
    return x
