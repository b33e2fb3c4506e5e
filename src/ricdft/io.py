"""Signal and spectrum interchange formats plus test-tone synthesis.

Two signal formats: ``csv`` holds one "re,im" decimal pair per line with
an optional "re,im" header; ``raw-f64`` holds little-endian float64 pairs
interleaved re,im with no header, which is the complex128 ("<c16") byte
layout.  Decimal rendering uses Python's shortest round-trip repr, so csv
round trips are exact; raw-f64 round trips are bit-exact, signed zeros
included.  A format is a :class:`SignalFormat` member or its string value.
"""

import json
import math
from enum import Enum

import numpy as np

from .core import OutOfRangeError, RicdftError, _member, _size, as_complex_sequence
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


def _read_csv(path) -> np.ndarray:
    samples = []
    first_content = True
    with open(path, "r", newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            is_first = first_content
            first_content = False
            if is_first and line.replace(" ", "").lower() == "re,im":
                continue  # optional header, first content line only
            try:
                re_text, im_text = line.split(",")
                re, im = float(re_text), float(im_text)
            except ValueError:  # other than two fields, or a bad number
                raise SignalFileError(
                    f"{path}: line {lineno}: expected 're,im', got {line!r}",
                    path=path, line=lineno,
                ) from None
            if not (math.isfinite(re) and math.isfinite(im)):
                raise SignalFileError(
                    f"{path}: line {lineno}: non-finite sample {line!r}",
                    path=path, line=lineno,
                )
            samples.append(complex(re, im))
    if not samples:
        raise SignalFileError(f"{path}: no samples", path=path)
    return np.array(samples, dtype=np.complex128)


def _read_raw(path) -> np.ndarray:
    data = np.fromfile(path, dtype="<f8")
    if data.size == 0:
        raise SignalFileError(f"{path}: no samples", path=path)
    if data.size % 2 != 0:
        raise SignalFileError(
            f"{path}: truncated sample pair at byte offset {(data.size - 1) * 8}",
            path=path,
        )
    if not np.all(np.isfinite(data)):
        raise SignalFileError(f"{path}: non-finite sample", path=path)
    return data.view("<c16")


def write_signal(x, path, fmt=SignalFormat.CSV):
    """Write a complex sequence in the given format."""
    x = as_complex_sequence(x)
    if _member(SignalFormat, fmt) is SignalFormat.CSV:
        with open(path, "w", newline="") as fh:
            fh.write("re,im\n")
            for z in x:
                fh.write(f"{float(z.real)!r},{float(z.imag)!r}\n")
    else:
        x.astype("<c16").tofile(path)


def write_spectrum(spectrum: RicSpectrum, path, fmt="csv"):
    """Write retained coefficients as csv (k,index,re,im) or json.

    The json document holds a header record with the plan and conventions
    plus the list of entry records.
    """
    fmt = str(fmt).lower()
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            fh.write("k,index,re,im\n")
            for k, (idx, z) in enumerate(spectrum.entries):
                fh.write(f"{k},{idx},{float(z.real)!r},{float(z.imag)!r}\n")
    elif fmt == "json":
        doc = {
            "header": {
                "n": spectrum.plan.n,
                "c": spectrum.plan.c,
                "l": spectrum.plan.l,
                "mode": spectrum.mode.value,
                "direction": spectrum.direction.value,
            },
            "entries": [
                {"k": k, "index": idx, "re": float(z.real), "im": float(z.imag)}
                for k, (idx, z) in enumerate(spectrum.entries)
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    else:
        raise OutOfRangeError(f"unknown spectrum format {fmt!r}")


def synthesize_tones(n: int, tones) -> np.ndarray:
    """Sum of complex exponentials: amp * exp(j*(2*pi*bin*m/n + phase)).

    n is an integer size (Python or numpy integer, not bool or float).
    ``tones`` is an iterable of (bin, amplitude, phase) with integer bins
    in [0, n-1].  Bin*index products are reduced mod n before the angle is
    formed, keeping every sample accurate to machine precision.
    """
    n = _size("n", n)
    if n < 1:
        raise OutOfRangeError(f"n={n} must be positive")
    m = np.arange(n, dtype=np.int64)
    x = np.zeros(n, dtype=np.complex128)
    for bin_idx, amp, phase in tones:
        if int(bin_idx) != bin_idx or not 0 <= int(bin_idx) < n:
            raise OutOfRangeError(f"tone bin {bin_idx} outside [0, {n - 1}]")
        angle = 2.0 * np.pi * ((int(bin_idx) * m) % n) / n + float(phase)
        x += float(amp) * np.exp(1j * angle)
    return x
