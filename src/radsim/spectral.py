"""Frequency-domain analysis: magnitude spectra, spectrograms, peak picking.

Scaling convention (documented because every tool picks its own): spectra
are one-sided with magnitudes ``c_k * |X_k| / N_fft`` where ``c_k`` is 2 for
interior bins and 1 for DC and (when present) Nyquist. A bin-aligned cosine
of amplitude A therefore shows a single peak of magnitude A. Parseval's
identity in this scaling reads

    sum(x**2) == N_fft * (M_dc**2 + M_nyq**2 + sum(M_interior**2) / 2)

Spectra hold their magnitudes and the grid that fixes their axes: bin ``k``
lies at ``k * sample_rate / N_fft`` (as ``np.fft.rfftfreq`` computes it), derived
where it is read, and STFT frame ``i`` is centred at ``(i * hop +
window_length / 2) / sample_rate``.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ParameterError, ShapeError, check_int, check_real
from .signals import _MAX_SAMPLES, SampledSignal, _read_f64, _write_f64

__all__ = [
    "Spectrum",
    "Spectrogram",
    "SpectralPeak",
    "fft_magnitude",
    "stft",
    "find_peaks",
    "write_spectrum",
    "read_spectrum",
    "read_spectrogram",
    "write_spectrum_csv",
    "write_peaks_csv",
]


def _magnitudes_view(magnitudes) -> np.ndarray:
    """``magnitudes`` as a read-only float64 view; each must be finite and nonnegative."""
    view = np.asarray(magnitudes, dtype=np.float64).view()
    view.flags.writeable = False
    if view.size:
        # The extremes are NaN or infinite exactly when some magnitude is.
        lowest, highest = view.min(), view.max()
        if not (np.isfinite(lowest) and np.isfinite(highest)):
            raise ParameterError("magnitudes must be finite")
        if lowest < 0:
            raise ParameterError("magnitudes must be nonnegative")
    return view


def _bin_frequencies(bins, spectrum: Spectrum, out: np.ndarray | None = None) -> np.ndarray:
    """Frequencies of ``bins`` on the spectrum's grid, by ``np.fft.rfftfreq``'s arithmetic."""
    return np.multiply(bins, 1.0 / (spectrum.fft_size * (1.0 / spectrum.sample_rate)), out=out)


@dataclass(eq=False)
class Spectrum:
    """One-sided magnitude spectrum on the bin grid of ``(sample_rate, fft_size)``.

    A spectrum rebuilt from its grid and magnitudes equals the one
    :func:`fft_magnitude` returned, bit for bit. The magnitudes are a
    read-only view: what is derived from them is computed once and stays true.
    """

    magnitudes: np.ndarray
    sample_rate: float
    fft_size: int

    def __post_init__(self):
        self.magnitudes = _magnitudes_view(self.magnitudes)
        check_real("sample_rate", self.sample_rate, 0, bounds="()")
        check_int("fft_size", self.fft_size, 2)
        if self.magnitudes.shape != (self.fft_size // 2 + 1,):
            raise ShapeError(f"magnitudes must have shape ({self.fft_size // 2 + 1},) for "
                             f"fft_size {self.fft_size}, got {self.magnitudes.shape}")

    @cached_property
    def bin_frequencies(self) -> np.ndarray:
        """Every bin's frequency, equal to ``np.fft.rfftfreq`` of the grid bit for bit."""
        return _bin_frequencies(np.arange(self.magnitudes.size), self)

    @cached_property
    def _centred(self) -> tuple[np.ndarray, float]:
        """The magnitudes less their mean, and the sum of squares of those."""
        d = self.magnitudes - self.magnitudes.mean()
        return d, float(np.dot(d, d))

    @property
    def bin_width(self) -> float:
        return self.sample_rate / self.fft_size


@dataclass(eq=False)
class Spectrogram:
    """Short-time magnitude spectra: one row per frame, one column per bin.

    A spectrogram rebuilt from its grid and magnitudes equals the one
    :func:`stft` returned, bit for bit. Its magnitudes are read-only.
    """

    magnitudes: np.ndarray
    sample_rate: float
    window_length: int
    hop: int
    window: str = "hann"

    def __post_init__(self):
        self.magnitudes = _magnitudes_view(self.magnitudes)
        _check_window(self.window_length, self.hop, self.window)
        check_real("sample_rate", self.sample_rate, 0, bounds="()")
        if self.magnitudes.ndim != 2 or self.magnitudes.shape[1] != self.window_length // 2 + 1:
            raise ShapeError(f"magnitudes must be a frames x {self.window_length // 2 + 1} "
                             f"matrix, got shape {self.magnitudes.shape}")


@dataclass(frozen=True)
class SpectralPeak:
    frequency: float
    magnitude: float
    bin_index: int


def _one_sided_magnitudes(mags: np.ndarray, fft_size: int) -> None:
    """Scale |rfft| values in place to one-sided magnitudes; rows of a matrix are frames."""
    mags /= fft_size
    if fft_size % 2 == 0:
        mags[..., 1:-1] *= 2.0
    else:
        mags[..., 1:] *= 2.0


def _check_fft_size(fft_size: int) -> None:
    """Reject an analysis FFT size that is not a power of two >= 2, or that no array holds."""
    check_int("fft_size", fft_size, 2, _MAX_SAMPLES)
    if fft_size & (fft_size - 1):
        raise ParameterError(f"fft_size must be a power of two, got {fft_size!r}")


def fft_magnitude(signal: SampledSignal, fft_size: int | None = None) -> Spectrum:
    """One-sided magnitude spectrum (full signal length, or a power-of-two size).

    With an explicit ``fft_size`` the signal is truncated or zero-padded to
    that length, matching the usual FFT semantics.
    """
    if len(signal) < 2:
        raise ShapeError(f"signal must have at least 2 samples, got {len(signal)}")
    if fft_size is None:
        fft_size = len(signal)
    else:
        _check_fft_size(fft_size)
    mags = np.abs(np.fft.rfft(signal.samples, n=fft_size))
    _one_sided_magnitudes(mags, fft_size)
    return Spectrum(mags, signal.sample_rate, fft_size)


# Each window's taper of a given length; a rectangular window has none to apply.
_WINDOWS = {
    "rectangular": None,
    "hann": np.hanning,
}


def _check_window(window_length: int, hop: int, window: str) -> None:
    """Reject an STFT analysis grid that no signal could use."""
    check_int("window_length", window_length, 2, _MAX_SAMPLES)
    check_int("hop", hop, 1, _MAX_SAMPLES)
    if not (isinstance(window, str) and window in _WINDOWS):
        raise ParameterError(f"unknown window {window!r} (expected one of {sorted(_WINDOWS)})")


# Frames tapered and transformed per block in :func:`_frame_magnitudes`.
_STFT_BLOCK_FRAMES = 512
# Magnitudes (frames x bins) a spectrogram may hold per signal sample; the default grid holds ~1.
_STFT_MAX_PER_SAMPLE = 64


def _check_stft(window_length: int, hop: int, window: str, n_samples: int) -> None:
    """Reject an STFT grid that no ``n_samples`` signal can use, or that is too fine for it."""
    _check_window(window_length, hop, window)
    if window_length > n_samples:
        raise ShapeError(f"window_length {window_length} exceeds signal length {n_samples}")
    frames, bins = (n_samples - window_length) // hop + 1, window_length // 2 + 1
    if frames * bins > _STFT_MAX_PER_SAMPLE * n_samples:
        raise ShapeError(f"{frames} frames x {bins} bins exceed {_STFT_MAX_PER_SAMPLE} "
                         f"magnitudes per sample of the {n_samples}-sample signal")


def _frame_magnitudes(samples: np.ndarray, window_length: int, hop: int,
                      window: str) -> np.ndarray:
    """Unscaled |rfft| of every ``hop``-spaced ``window_length`` frame, one row per frame.

    A frame starts at each multiple of ``hop`` that leaves ``window_length``
    samples; there must be at least one. A block of frames is tapered and
    transformed at a time, so the tapered copies and their transforms never
    take more than one block's workspace; each row's rfft is the same.
    """
    n_frames = (len(samples) - window_length) // hop + 1
    if hop == window_length:  # disjoint frames: a reshape is the cheapest view of them
        frames = samples[:n_frames * hop].reshape(n_frames, hop)
    else:
        frames = np.lib.stride_tricks.sliding_window_view(samples, window_length)[::hop]
    taper = _WINDOWS[window]
    if taper is not None:
        taper = taper(window_length)
    mags = np.empty((n_frames, window_length // 2 + 1))
    for start in range(0, n_frames, _STFT_BLOCK_FRAMES):
        # Rebinding ``block`` frees the last block's tapered copy before the next is made.
        block = frames[start:start + _STFT_BLOCK_FRAMES]
        if taper is not None:
            block = block * taper
        np.abs(np.fft.rfft(block, axis=1), out=mags[start:start + _STFT_BLOCK_FRAMES])
    return mags


def stft(signal: SampledSignal, window_length: int, hop: int,
         window: str = "hann") -> Spectrogram:
    """Short-time Fourier transform; frame times mark window centers."""
    _check_stft(window_length, hop, window, len(signal))
    mags = _frame_magnitudes(signal.samples, window_length, hop, window)
    _one_sided_magnitudes(mags, window_length)
    return Spectrogram(mags, signal.sample_rate, window_length, hop, window)


def _check_peak_options(relative_threshold: float, min_separation: float) -> None:
    """Reject a peak threshold outside (0, 1] or a negative peak spacing."""
    check_real("relative_threshold", relative_threshold, 0, 1, "(]")
    check_real("min_separation", min_separation, 0)


def find_peaks(spectrum: Spectrum, relative_threshold: float = 0.1,
               min_separation: float = 0.0, *, limit: int | None = None) -> list[SpectralPeak]:
    """Local maxima above a relative threshold, thinned to a minimum spacing.

    A candidate is a local maximum at or above ``relative_threshold * max``:
    a maximal run of equal magnitudes (one bin, or a plateau) whose outside
    neighbours are both strictly lower, a missing neighbour at either edge
    counting as lower; it is reported at the run's lowest bin, so a plateau
    is one peak and a shoulder (a run rising on into a higher bin) is none.

    Candidates are kept greedily in descending magnitude (ties broken toward
    lower frequency) when they lie at least ``min_separation`` from every
    peak already kept, and are returned sorted by frequency. Only the nearest
    kept peak on each side can be too close, so each candidate costs one
    bisection of the kept frequencies, plus a list insert if it is kept.

    With a ``limit``, keeping stops once that many peaks are kept. As peaks
    are kept from the strongest down, they are the ``limit`` strongest of
    the unlimited result (ties toward lower frequency), still returned
    sorted by frequency. :func:`radsim.recognition.extract_features` asks
    for its 5 dominant peaks only; ``radsim peaks`` and a run's
    ``peaks.csv`` keep every peak.
    """
    _check_peak_options(relative_threshold, min_separation)
    if limit is not None:
        check_int("limit", limit, 1)
    m = spectrum.magnitudes
    peak_floor = relative_threshold * float(m.max()) if m.size else 0.0
    if peak_floor <= 0.0:
        return []
    # A run of equal magnitudes that can peak starts at a bin at or above the
    # floor and above its left neighbour. It ends at the first bin from there
    # that differs from its right neighbour, and peaks if that one is lower.
    # A missing neighbour at either edge counts as lower.
    rises = np.empty(m.size, dtype=bool)
    rises[0] = True
    np.greater(m[1:], m[:-1], out=rises[1:])
    starts = np.flatnonzero(rises & (m >= peak_floor))
    # Each run ends at its start unless a start begins a plateau; only then are
    # run ends looked up (the wrap compares the last bin with bin 0: harmless).
    ends = starts
    if np.any(m.take(starts + 1, mode="wrap") == m[starts]):
        run_ends = np.append(np.flatnonzero(m[:-1] != m[1:]), m.size - 1)
        ends = run_ends[np.searchsorted(run_ends, starts)]
    candidates = starts[(ends == m.size - 1) | (m.take(ends + 1, mode="clip") < m[starts])]
    # Candidates ascend in frequency, so a stable sort breaks ties toward the lower one.
    order = candidates[np.argsort(-m[candidates], kind="stable")]
    kept_freqs: list[float] = []
    kept_bins: list[int] = []
    for k, fk in zip(order.tolist(), _bin_frequencies(order, spectrum).tolist()):
        i = bisect_left(kept_freqs, fk)
        if ((i == 0 or fk - kept_freqs[i - 1] >= min_separation)
                and (i == len(kept_freqs) or kept_freqs[i] - fk >= min_separation)):
            kept_freqs.insert(i, fk)
            kept_bins.insert(i, k)
            if len(kept_bins) == limit:
                break
    return [SpectralPeak(f, v, k)
            for f, v, k in zip(kept_freqs, m[kept_bins].tolist(), kept_bins)]


# Sidecar keys of a spectrum file besides format and shape: the grid of its magnitudes.
_GRID_FIELDS = {cls: tuple(f.name for f in fields(cls) if f.name != "magnitudes")
                for cls in (Spectrum, Spectrogram)}


def write_spectrum(spectrum: Spectrum | Spectrogram, path) -> None:
    """Raw little-endian float64 magnitudes plus a JSON sidecar of their shape and grid.

    This is the signal file format of :mod:`radsim.signals` with ``shape`` in
    place of ``length``. The grid is the spectrum's other fields:
    ``fft_size`` and ``sample_rate`` for a :class:`Spectrum`; ``sample_rate``,
    ``window_length``, ``hop`` and ``window`` for a :class:`Spectrogram`,
    whose magnitudes are frames x bins. :func:`read_spectrum` and
    :func:`read_spectrogram` rebuild it bit for bit.
    """
    meta = {name: getattr(spectrum, name) for name in _GRID_FIELDS[type(spectrum)]}
    _write_f64(spectrum.magnitudes, path, dict(meta, shape=list(spectrum.magnitudes.shape)))


def _read_grid(cls, path):
    """The ``cls`` instance in a file written by :func:`write_spectrum`."""
    magnitudes, meta = _read_f64(path, "shape", _GRID_FIELDS[cls])
    return cls(magnitudes, **{name: meta[name] for name in _GRID_FIELDS[cls]})


def read_spectrum(path) -> Spectrum:
    """Read a spectrum written by :func:`write_spectrum`."""
    return _read_grid(Spectrum, path)


def read_spectrogram(path) -> Spectrogram:
    """Read a spectrogram written by :func:`write_spectrum`."""
    return _read_grid(Spectrogram, path)


# Rows formatted per write by :func:`write_spectrum_csv`.
_CSV_CHUNK_ROWS = 4096


def write_spectrum_csv(spectrum: Spectrum, path) -> None:
    """``frequency_hz,magnitude`` rows under ``# fft_size=`` and ``# sample_rate=`` lines.

    An export: radsim reads spectra back only from :func:`write_spectrum`'s
    file. Every value is written as its ``repr``. Rows are formatted and
    written a chunk at a time, so memory beyond the data stays bounded by
    ``_CSV_CHUNK_ROWS`` rows whatever the spectrum's size.
    """
    # What follows each value of a chunk, row by row; a last, shorter chunk
    # uses the start of it.
    separators = [",", "\n"] * _CSV_CHUNK_ROWS
    with open(path, "w") as fh:
        fh.write(f"# fft_size={spectrum.fft_size}\n"
                 f"# sample_rate={float(spectrum.sample_rate)!r}\n"
                 "frequency_hz,magnitude\n")
        for start in range(0, spectrum.magnitudes.size, _CSV_CHUNK_ROWS):
            magnitudes = spectrum.magnitudes[start:start + _CSV_CHUNK_ROWS]
            frequencies = _bin_frequencies(np.arange(start, start + magnitudes.size), spectrum)
            values = np.column_stack((frequencies, magnitudes)).ravel().tolist()
            # One join sizes the chunk's text once. Formatting into a growing
            # buffer instead (``%`` on a long template) fragments the heap, and
            # a process that writes run after run grows with it.
            fh.write("".join(map(operator.add, map(repr, values), separators)))


def write_peaks_csv(peaks: list[SpectralPeak], path) -> None:
    lines = ["frequency_hz,magnitude,bin_index"]
    lines.extend(f"{p.frequency!r},{p.magnitude!r},{p.bin_index}" for p in peaks)
    Path(path).write_text("\n".join(lines) + "\n")
