"""Uniformly sampled real-valued waveforms and their on-disk format.

A signal file holds raw little-endian float64 samples, plus a JSON metadata
sidecar (``<path>.json``) holding sample_rate, start_time, length and a
format tag. It round-trips bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError, ParseError, ShapeError

SIGNAL_FORMAT_TAG = "f64le"


@dataclass(eq=False)
class SampledSignal:
    """A real-valued waveform sampled uniformly at ``sample_rate`` Hz."""

    sample_rate: float
    samples: np.ndarray
    start_time: float = 0.0

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ParameterError(f"sample_rate must be positive, got {self.sample_rate}")
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ShapeError(f"samples must be one-dimensional, got shape {self.samples.shape}")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ParameterError("samples contain non-finite values")

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    def times(self) -> np.ndarray:
        """Sample instants in seconds."""
        return self.start_time + np.arange(self.samples.size) / self.sample_rate


def sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def write_signal(signal: SampledSignal, path) -> None:
    """Write raw little-endian float64 samples plus a JSON sidecar."""
    path = Path(path)
    meta = {
        "format": SIGNAL_FORMAT_TAG,
        "length": len(signal),
        "sample_rate": signal.sample_rate,
        "start_time": signal.start_time,
    }
    path.write_bytes(signal.samples.astype("<f8").tobytes())
    sidecar_path(path).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def read_signal(path) -> SampledSignal:
    """Read a raw-binary signal written by :func:`write_signal`."""
    path = Path(path)
    try:
        meta = json.loads(sidecar_path(path).read_text())
    except json.JSONDecodeError as e:
        raise ParseError(f"{sidecar_path(path)}: invalid JSON at line {e.lineno} column {e.colno}") from e
    for key in ("format", "length", "sample_rate", "start_time"):
        if key not in meta:
            raise ParseError(f"{sidecar_path(path)}: missing metadata key {key!r}")
    if meta["format"] != SIGNAL_FORMAT_TAG:
        raise ParseError(f"{sidecar_path(path)}: unknown format tag {meta['format']!r}")
    raw = path.read_bytes()
    expected = int(meta["length"]) * 8
    if len(raw) != expected:
        raise ParseError(f"{path}: expected {expected} bytes for {meta['length']} samples, found {len(raw)}")
    samples = np.frombuffer(raw, dtype="<f8")
    return SampledSignal(meta["sample_rate"], samples.copy(), meta["start_time"])

