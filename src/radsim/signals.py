"""Uniformly sampled real-valued waveforms and their on-disk format.

A signal file holds raw little-endian float64 samples, plus a JSON metadata
sidecar (``<path>.json``) holding sample_rate, length and a format tag.
It round-trips bit-exactly. A signal starts at t = 0: its first sample is
where a carrier's initial phase falls. Spectra and spectrograms are stored
the same way (see ``spectral.write_spectrum``), with a shape in place of a
length.

All JSON goes through :func:`_read_json` and :func:`_write_json`: strict, no ``NaN``.
A file or directory that must appear whole or not at all (a run directory, a
signature library) is built under :func:`_commit`, the one commit protocol.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError, ParseError, RadsimError, ShapeError, check_real

SIGNAL_FORMAT_TAG = "f64le"


# The most float64 samples an array can hold: numpy answers a larger request
# with a ValueError rather than a MemoryError. Integer inputs that size arrays
# are bounded by it too.
_MAX_SAMPLES = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


def _check_length(n_samples: float) -> None:
    """Reject a signal length no array can hold, before numpy is asked for it."""
    if not n_samples <= _MAX_SAMPLES:  # also rejects NaN
        # Not formatted as a float: an integer count can exceed the float range.
        raise ParameterError(f"the signal would have more samples than the largest array "
                             f"holds ({_MAX_SAMPLES})")


@dataclass(eq=False)
class SampledSignal:
    """A real-valued waveform sampled uniformly at ``sample_rate`` Hz, from t = 0."""

    sample_rate: float
    samples: np.ndarray

    def __post_init__(self):
        check_real("sample_rate", self.sample_rate, 0, bounds="()")
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ShapeError(f"samples must be one-dimensional, got shape {self.samples.shape}")
        # The extremes are NaN or infinite exactly when some sample is, and
        # finding them takes no signal-sized array of flags.
        if self.samples.size and not (np.isfinite(self.samples.min())
                                      and np.isfinite(self.samples.max())):
            raise ParameterError("samples contain non-finite values")

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


def _check_aligned(a: SampledSignal, b: SampledSignal) -> None:
    """Reject two signals whose samples do not fall at the same instants."""
    if a.sample_rate != b.sample_rate:
        raise ShapeError(f"sample rates differ: {a.sample_rate} vs {b.sample_rate}")
    if len(a) != len(b):
        raise ShapeError(f"lengths differ: {len(a)} vs {len(b)}")


def _read_text(path) -> str:
    """A file's text; bytes that are not UTF-8 raise :class:`ParseError` naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text (byte {e.object[e.start]:#04x} "
                         f"at offset {e.start})") from e


def _finite_float(literal: str) -> float:
    """A JSON number as a float64; ``NaN``, ``Infinity`` and ``1e400`` raise ValueError."""
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"{literal} is not a finite number")
    return value


def _read_json(path) -> dict:
    """The JSON object in a file, read strictly; anything else raises one :class:`ParseError`."""
    text = _read_text(path)
    try:
        doc = json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}") from e
    except (ValueError, RecursionError) as e:  # or an integer too long to convert, or deep nesting
        raise ParseError(f"{path}: invalid JSON ({e})") from e
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: not a JSON object")
    return doc


def _write_json(path, doc: dict) -> None:
    """Write ``doc`` as indented JSON with sorted keys; a non-finite float raises ValueError."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


@contextlib.contextmanager
def _commit(path):
    """Yield a hidden sibling ``.<name>.<token>.partial`` of ``path``, and rename it onto ``path``.

    The block builds the sibling, a file or a directory; when it ends, the
    sibling takes the mode of what ``path`` holds, if anything, and is renamed
    onto it, so ``path`` changes at one point. On any exception the sibling is
    removed and the exception re-raised, leaving ``path`` as it was; only a
    killed process can leave the sibling. A symlink at ``path`` is followed.
    """
    target = Path(os.path.realpath(path))
    partial = target.parent / f".{target.name}.{os.urandom(8).hex()}.partial"
    try:
        yield partial
        with contextlib.suppress(FileNotFoundError):  # a new target takes the default mode
            shutil.copymode(target, partial)
        os.replace(partial, target)
    except BaseException:
        if partial.is_dir():
            shutil.rmtree(partial, ignore_errors=True)
        else:
            partial.unlink(missing_ok=True)
        raise


def sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def _write_f64(values: np.ndarray, path, meta: dict) -> None:
    """Write ``values`` as raw little-endian float64, and ``meta`` plus the format tag as its sidecar."""
    path = Path(path)
    np.ascontiguousarray(values, dtype="<f8").tofile(path)
    _write_json(sidecar_path(path), dict(meta, format=SIGNAL_FORMAT_TAG))


def _read_f64(path, size_key: str, keys: tuple[str, ...], build):
    """Read a file written by :func:`_write_f64` as ``build(values, **grid)``.

    ``meta[size_key]`` gives the values' length (an integer) or shape (a list
    of integers); ``keys`` names the other keys the sidecar must hold, which
    make up ``grid``. An error that ``build`` raises is prefixed with ``path``,
    as every other error here names its file.
    """
    path = Path(path)
    side = sidecar_path(path)
    meta = _read_json(side)
    for key in ("format", size_key, *keys):
        if key not in meta:
            raise ParseError(f"{side}: missing metadata key {key!r}")
    if meta["format"] != SIGNAL_FORMAT_TAG:
        raise ParseError(f"{side}: unknown format tag {meta['format']!r}")
    size = meta[size_key]
    dims = size if isinstance(size, list) else [size]
    if not all(isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in dims):
        raise ParseError(f"{side}: {size_key} must be nonnegative integers, got {size!r}")
    raw = path.read_bytes()
    expected = 8 * math.prod(dims)
    if len(raw) != expected:
        raise ParseError(f"{path}: expected {expected} bytes for {size_key} {size}, found {len(raw)}")
    values = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
    try:
        return build(values, **{key: meta[key] for key in keys})
    except RadsimError as e:
        raise type(e)(f"{path}: {e}") from e


def write_signal(signal: SampledSignal, path) -> None:
    """Write raw little-endian float64 samples plus a JSON sidecar."""
    _write_f64(signal.samples, path, {"length": len(signal), "sample_rate": signal.sample_rate})


def read_signal(path) -> SampledSignal:
    """Read a raw-binary signal written by :func:`write_signal`; every error names the file."""
    return _read_f64(path, "length", ("sample_rate",),
                     lambda samples, sample_rate: SampledSignal(sample_rate, samples))
