"""Signal and spectrum interchange formats plus test-tone synthesis.

Two signal formats: ``csv`` is UTF-8 text holding one "re,im" decimal pair
per line with an optional "re,im" header; ``raw-f64`` holds little-endian
float64 pairs interleaved re,im with no header, which is the complex128
("<c16") byte layout.  Decimal rendering uses Python's shortest round-trip
repr, so csv round trips are exact; raw-f64 round trips are bit-exact,
signed zeros included.  A format is a :class:`SignalFormat` member or its
string value.

A csv signal is parsed in one pass of numpy's chunked C reader, the one
``np.loadtxt`` runs on a path, fed the open text a chunk at a time.  No path
is handed to numpy: its DataSource would gunzip a file named ``*.gz`` and,
for a missing file, open a compressed sibling such as ``<path>.gz``.  The
line loop runs on any file that pass does not take (a bad line, no samples,
or a number form only ``float()`` reads, such as ``1_0``), and on every file
when numpy lacks that reader: it returns the same values, bit for bit, or
raises :class:`SignalFileError` with the first bad line.  Both read the text
through ``_csv_text``, which alone states how it is decoded and which line
is the header.  A spectrum's csv lines and json entries come from one list
of (k, index, re, im) rows; a json spectrum is rendered from one template,
with the bytes ``json.dumps(doc, indent=2)`` gives, since ``indent`` keeps
``json`` on its pure-Python encoder.
"""

import contextlib
import json
import math
import types
from enum import Enum

import numpy as np

try:  # numpy-private, by the package's rule: missing, the line loop reads every csv
    from numpy._core._multiarray_umath import _load_from_filelike
except ImportError:
    _load_from_filelike = None

from .core import (OutOfRangeError, RicdftError, _allocated, _member, _float_guard, _real, _shown,
                   _size, as_complex_sequence)
from .ric import _index_range


class SignalFormat(str, Enum):
    CSV = "csv"
    RAW_F64 = "raw-f64"


_SPECTRUM_FORMATS = ("csv", "json")  # the names write_spectrum takes, in any case


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


def _screened(text: str) -> str:
    if any(ch in text for ch in "\x1c\x1d\x1e\x1f"):
        raise ValueError("numpy strips \\x1c-\\x1f around a field, float() does not")
    return text


def _loadtxt(fh):
    """At least one row of floats from where fh is, in one pass of numpy's C reader, or None.

    The reader pulls fh's text in chunks, each screened as it is read.  None
    when it refuses the text, or when it is missing or has another signature
    (calling None raises ``TypeError`` too): the line loop then reads the file.
    """
    try:
        rows = _load_from_filelike(
            types.SimpleNamespace(read=lambda size: _screened(fh.read(size))),
            delimiter=",", comment=None, quote=None, imaginary_unit="j", usecols=None,
            skiplines=0, max_rows=-1, converters=None, dtype=np.dtype(np.float64),
            encoding=fh.encoding, filelike=True, byte_converters=False)
    except (TypeError, ValueError):
        return None
    return rows if len(rows) else None


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


def write_spectrum(spectrum, path, fmt="csv"):
    """Write a :class:`ricdft.ric.RicSpectrum`'s coefficients as csv (k,index,re,im) or json.

    The json document holds a header record with the plan and conventions
    plus the list of entry records.  A spectrum that does not hold its
    plan's c values raises LengthMismatchError before the file is opened.
    """
    kind = str(fmt).lower() if isinstance(fmt, str) else None
    if kind not in _SPECTRUM_FORMATS:
        raise OutOfRangeError(f"unknown spectrum format {_shown(fmt)}")
    z, plan = spectrum.values, spectrum.plan
    rows = list(zip(range(z.size), _index_range(spectrum), z.real.tolist(), z.imag.tolist()))
    if kind == "csv":
        with open(path, "w", newline="") as fh:
            fh.write("k,index,re,im\n")
            fh.writelines(f"{k},{idx},{re!r},{im!r}\n" for k, idx, re, im in rows)
        return
    header = {"n": plan.n, "c": plan.c, "l": plan.l,
              "mode": spectrum.mode.value, "direction": spectrum.direction.value}
    head = ",\n".join(f"    {json.dumps(key)}: {json.dumps(value)}" for key, value in header.items())
    body = ",".join(f'\n    {{\n      "k": {k},\n      "index": {idx},\n      "re": {_json_float(re)},\n'
                    f'      "im": {_json_float(im)}\n    }}' for k, idx, re, im in rows)
    with open(path, "w") as fh:  # one write: json.dump writes each token
        fh.write(f'{{\n  "header": {{\n{head}\n  }},\n  "entries": [{body}\n  ]\n}}\n')


def _json_float(v: float) -> str:
    """v as ``json`` writes it: its repr when finite, else Infinity, -Infinity or NaN."""
    return repr(v) if math.isfinite(v) else json.dumps(v)


@_float_guard
def synthesize_tones(n: int, tones) -> np.ndarray:
    """Sum of complex exponentials: amp * exp(j*(2*pi*bin*m/n + phase)).

    n is an integer size (Python or numpy integer, not bool or float).
    ``tones`` is an iterable of (bin, amplitude, phase) with integer bins
    in [0, n-1] and finite amplitude and phase, else OutOfRangeError, as is an n
    too large to allocate or a sum that overflows float64 (never a numpy
    warning).  Bin*index products are reduced mod n, keeping every sample
    accurate to machine precision.
    """
    n = _size("n", n, 1)
    m, x = _allocated(n, lambda: (np.arange(n, dtype=np.int64), np.zeros(n, dtype=np.complex128)))
    for tone in tones:
        try:
            bin_idx, amp, phase = tone
        except (TypeError, ValueError):  # not iterable, or other than three items
            raise OutOfRangeError(
                f"tone {_shown(tone)} is not a (bin, amplitude, phase) triple") from None
        bin_idx, amp, phase = _size("tone bin", bin_idx), _real("amplitude", amp), _real("phase", phase)
        if bin_idx >= n:
            raise OutOfRangeError(f"tone bin {_shown(bin_idx)} outside [0, {n - 1}]")
        x += amp * np.exp(1j * (2.0 * np.pi * ((bin_idx * m) % n) / n + phase))
    if not np.all(np.isfinite(x)):  # complex: both parts finite
        raise OutOfRangeError("the tones' sum overflows to a non-finite sample")
    return x
