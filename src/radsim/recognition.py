"""Signal recognition: feature extraction, signature library, classification.

The defense pipeline is: receive -> magnitude spectrum on the library's bin
grid -> Pearson correlation against each stored template -> threshold. A
signal whose best correlation clears the threshold is labeled with that
template's name, otherwise "unknown". The decision statistic is the template
correlation alone. Time/frequency features are for inspection: ``radsim
features`` extracts them from a signal, and the library does not store them.

A matching spectrum is the mean of the signal's rectangular STFT frames at
hop ``fft_size``: the one-sided magnitudes of its disjoint ``fft_size``
blocks, averaged. A trailing partial block is dropped, and a signal shorter
than ``fft_size`` is zero-padded into one frame. Templates are stored
normalized to unit energy.

Libraries persist as versioned JSON with stable key order, in format 2.0.
Each entry holds a label, its template and metadata. The template is
``template_f64``, the base64 text of its magnitudes as little-endian float64
(the bytes of a ``.f64`` file), so it survives bit-exactly. The reader ignores
any other entry key. A file of another major version, 1.x included, is
refused with one line that names its version.
"""

from __future__ import annotations

import math
from base64 import b64decode, b64encode
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .errors import (ConfigurationError, ConflictError, ParameterError, ParseError, RadsimError,
                     ShapeError, check_int, check_real)
from .signals import _MAX_SAMPLES, SampledSignal, _commit, _read_json, _write_json
from .spectral import (Spectrum, _bin_frequencies, _frame_magnitudes, _one_sided_magnitudes,
                       fft_magnitude, find_peaks)

__all__ = [
    "FeatureVector",
    "SignatureEntry",
    "SignatureLibrary",
    "ClassificationResult",
    "UNKNOWN_LABEL",
    "DEFAULT_FFT_SIZE",
    "DEFAULT_THRESHOLD",
    "extract_features",
    "matching_spectrum",
    "spectral_correlation",
    "classify",
    "library_add",
    "library_save",
    "library_load",
]

UNKNOWN_LABEL = "unknown"
DEFAULT_FFT_SIZE = 4096
DEFAULT_THRESHOLD = 0.8

LIBRARY_FORMAT = "radsim-signature-library"
LIBRARY_MAJOR_VERSION = 2
LIBRARY_MINOR_VERSION = 0

# Peak-picking defaults for the dominant_peaks feature; fixed for determinism.
_PEAK_THRESHOLD = 0.05
_PEAK_SEPARATION_BINS = 4
_MAX_DOMINANT_PEAKS = 5


def _check_fft_size(fft_size: int) -> None:
    """Reject a matching FFT size that is not a power of two >= 2, or that no array holds."""
    check_int("fft_size", fft_size, 2, _MAX_SAMPLES)
    if fft_size & (fft_size - 1):
        raise ParameterError(f"fft_size must be a power of two, got {fft_size!r}")


@dataclass(frozen=True)
class FeatureVector:
    """Interpretable time- and frequency-domain summary of a signal."""

    rms_power: float
    zero_crossing_rate: float
    crest_factor: float
    spectral_centroid: float
    spectral_bandwidth: float
    spectral_entropy: float
    dominant_peaks: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        check_real("rms_power", self.rms_power, 0)
        check_real("zero_crossing_rate", self.zero_crossing_rate, 0, 1)
        check_real("crest_factor", self.crest_factor, 0)
        check_real("spectral_centroid", self.spectral_centroid, 0)
        check_real("spectral_bandwidth", self.spectral_bandwidth, 0)
        check_real("spectral_entropy", self.spectral_entropy, 0, 1)
        peaks = tuple((frequency, rel) for frequency, rel in self.dominant_peaks)
        if len(peaks) > _MAX_DOMINANT_PEAKS:
            raise ParameterError(f"at most {_MAX_DOMINANT_PEAKS} dominant peaks allowed")
        for i, (frequency, rel) in enumerate(peaks):
            check_real("dominant peak frequency", frequency, 0)
            # At most the one before: peaks run from the strongest down.
            check_real("dominant peak magnitude", rel, 0, peaks[i - 1][1] if i else 1, "(]")
        object.__setattr__(self, "dominant_peaks", peaks)


@dataclass(frozen=True)
class SignatureEntry:
    label: str
    template_spectrum: Spectrum
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (isinstance(self.label, str) and self.label):
            raise ParameterError(f"label must be a nonempty string, got {self.label!r}")
        if self.label == UNKNOWN_LABEL:
            raise ParameterError(f"label {UNKNOWN_LABEL!r} is reserved for a rejected signal")
        if not isinstance(self.metadata, dict):
            raise ParameterError(f"metadata must be a dict, got {self.metadata!r}")
        energy = float(np.sum(self.template_spectrum.magnitudes ** 2))
        if not abs(energy - 1.0) <= 1e-9:  # also rejects a NaN energy
            raise ParameterError(f"template spectrum energy must be 1, got {energy}")


@dataclass(eq=False)
class SignatureLibrary:
    """Labeled template spectra sharing one analysis grid (fft_size, sample_rate)."""

    fft_size: int = DEFAULT_FFT_SIZE
    sample_rate: float = 48000.0
    entries: tuple[SignatureEntry, ...] = ()

    def __post_init__(self):
        _check_fft_size(self.fft_size)
        check_real("sample_rate", self.sample_rate, 0, bounds="()")
        self.entries = tuple(self.entries)
        labels = set()
        for e in self.entries:
            t = e.template_spectrum
            if (t.fft_size, t.sample_rate) != (self.fft_size, self.sample_rate):
                raise ShapeError(f"template {e.label!r} is not on the library's bin grid "
                                 f"(fft_size {self.fft_size}, sample_rate {self.sample_rate})")
            if e.label in labels:
                raise ConflictError(f"label {e.label!r} already exists in the library")
            labels.add(e.label)

    def __len__(self) -> int:
        return len(self.entries)

    def labels(self) -> list[str]:
        return [e.label for e in self.entries]


@dataclass(frozen=True)
class ClassificationResult:
    label: str
    score: float
    runner_up: tuple[str, float] | None = None


def extract_features(signal: SampledSignal) -> FeatureVector:
    """Deterministic feature set; needs at least 64 samples."""
    x = signal.samples
    if x.size < 64:
        raise ShapeError(f"signal must have at least 64 samples, got {x.size}")
    # One signal-sized buffer holds x**2, then the lag products x[k] * x[k + 1].
    work = np.square(x)
    rms = float(np.sqrt(np.mean(work)))
    crossings = int(np.count_nonzero(np.multiply(x[:-1], x[1:], out=work[:-1]) < 0))
    del work  # freed before the FFT, which allocates its output, plan and scratch as large
    zcr = crossings / (x.size - 1)
    crest = float(max(x.max(), -x.min()) / rms) if rms > 0 else 0.0

    spectrum = fft_magnitude(signal)
    mags = spectrum.magnitudes
    # Two bin-sized buffers: the bin frequencies, then p; the weighted
    # frequencies, then the spread, then p log p.
    freqs = np.arange(mags.size, dtype=np.float64)
    _bin_frequencies(freqs, spectrum, out=freqs)
    work = freqs * mags
    total = float(mags.sum())
    if total > 0:
        centroid = float(work.sum() / total)
        spread = np.subtract(freqs, centroid, out=work)
        spread *= spread
        bandwidth = float(np.sqrt(np.multiply(spread, mags, out=spread).sum() / total))
    else:
        centroid = 0.0
        bandwidth = 0.0

    p = np.square(mags, out=freqs)
    power_total = float(p.sum())
    if power_total > 0 and mags.size > 1:
        p /= power_total
        p = p if p.min() > 0 else p[p > 0]  # zero bins add nothing; log 0 is -inf
        plogp = np.log(p, out=work[:p.size])
        plogp *= p
        entropy = float(-plogp.sum() / math.log(mags.size))
        entropy = min(max(entropy, 0.0), 1.0)
    else:
        entropy = 0.0

    top = find_peaks(spectrum, relative_threshold=_PEAK_THRESHOLD,
                     min_separation=_PEAK_SEPARATION_BINS * spectrum.bin_width,
                     limit=_MAX_DOMINANT_PEAKS)
    top.sort(key=attrgetter("magnitude"), reverse=True)  # stable: ties stay by frequency
    max_mag = top[0].magnitude if top else 0.0
    dominant = tuple((pk.frequency, pk.magnitude / max_mag) for pk in top)

    return FeatureVector(rms, zcr, crest, centroid, bandwidth, entropy, dominant)


def matching_spectrum(signal: SampledSignal, fft_size: int = DEFAULT_FFT_SIZE) -> Spectrum:
    """Mean of the rectangular frames at hop ``fft_size``, normalised to unit energy.

    The frames are the signal's disjoint ``fft_size`` blocks, untapered: a
    trailing partial block is dropped, and a signal shorter than ``fft_size``
    is zero-padded into one frame. The frames' |rfft| are summed and scaled
    once; as ``fft_size`` is a power of two, that equals the mean of the
    frames' one-sided spectra bit for bit unless a scaled magnitude is
    subnormal or the sum overflows.
    A spectrum whose energy is 0 or overflows float64 raises :class:`ParameterError`.
    """
    _check_fft_size(fft_size)
    if len(signal) < 2:
        raise ShapeError(f"signal must have at least 2 samples, got {len(signal)}")
    samples = signal.samples
    if len(samples) < fft_size:
        samples = np.zeros(fft_size)
        samples[:len(signal)] = signal.samples
    frames = _frame_magnitudes(samples, fft_size, fft_size, None)
    total = frames.sum(axis=0)
    _one_sided_magnitudes(total, fft_size)
    mean = total / len(frames)
    energy = math.sqrt(float(np.sum(mean ** 2)))
    if not 0.0 < energy < math.inf:  # the root is 0 or inf exactly when the sum is
        raise ParameterError(f"signal spectrum energy is {energy}; cannot normalize")
    return Spectrum(mean / energy, signal.sample_rate, fft_size)


def spectral_correlation(a: Spectrum, b: Spectrum) -> float:
    """Pearson correlation of two magnitude spectra on identical bin grids."""
    if a.magnitudes.size != b.magnitudes.size:
        raise ShapeError(f"bin counts differ: {a.magnitudes.size} vs {b.magnitudes.size}")
    # Both grids start at 0 Hz, so they differ most at the last bin.
    if (a.magnitudes.size - 1) * abs(a.bin_width - b.bin_width) > 1e-9:
        raise ShapeError("bin grids differ; spectra are not comparable")
    da, va = a._centred
    db, vb = b._centred
    if va == 0.0 or vb == 0.0:
        raise ParameterError("zero-variance spectrum; correlation is undefined")
    return float(np.dot(da, db) / math.sqrt(va * vb))


def _library_spectrum(signal: SampledSignal, library: SignatureLibrary) -> Spectrum:
    """The signal's matching spectrum on the library's grid, which needs its sample rate."""
    if signal.sample_rate != library.sample_rate:
        raise ConfigurationError(
            f"signal sample rate {signal.sample_rate} does not match the library "
            f"grid ({library.sample_rate}); analysis bins would not align")
    return matching_spectrum(signal, library.fft_size)


def classify(signal: SampledSignal, library: SignatureLibrary,
             threshold: float = DEFAULT_THRESHOLD) -> ClassificationResult:
    """Nearest-template decision by spectral correlation with a detection threshold."""
    if len(library) == 0:
        raise ConfigurationError("signature library is empty")
    check_real("threshold", threshold, 0, 1, "()")
    probe = _library_spectrum(signal, library)
    scored = sorted(
        ((spectral_correlation(probe, e.template_spectrum), e.label) for e in library.entries),
        key=lambda sc: (-sc[0], sc[1]))
    best_score, best_label = scored[0]
    runner_up = (scored[1][1], scored[1][0]) if len(scored) > 1 else None
    label = best_label if best_score >= threshold else UNKNOWN_LABEL
    return ClassificationResult(label, best_score, runner_up)


def library_add(library: SignatureLibrary, label: str, signal: SampledSignal,
                metadata: dict | None = None) -> SignatureLibrary:
    """Return a new library with the signal's template added."""
    entry = SignatureEntry(
        label=label,
        template_spectrum=_library_spectrum(signal, library),
        metadata=dict(metadata or {}),
    )
    return SignatureLibrary(library.fft_size, library.sample_rate, library.entries + (entry,))


def library_save(library: SignatureLibrary, path) -> None:
    """Write the library as format 2.0, committed at one point by :func:`signals._commit`.

    A failed save leaves ``path`` with its old bytes. A symlink at ``path`` is
    followed, and a replaced file keeps its permission bits.
    """
    doc = {
        "format": LIBRARY_FORMAT,
        "version": {"major": LIBRARY_MAJOR_VERSION, "minor": LIBRARY_MINOR_VERSION},
        "fft_size": library.fft_size,
        "sample_rate": library.sample_rate,
        "entries": [
            {
                "label": e.label,
                "template_f64": b64encode(np.ascontiguousarray(
                    e.template_spectrum.magnitudes, dtype="<f8").tobytes()).decode("ascii"),
                "metadata": e.metadata,
            }
            for e in library.entries
        ],
    }
    with _commit(path) as partial:
        _write_json(partial, doc)


def _template_values(stored) -> np.ndarray:
    """The float64 values an entry stores as its ``template_f64`` text."""
    if not isinstance(stored, str):
        raise ParseError(f"template_f64 must be a base64 string, got {stored!r:.40}")
    try:
        raw = b64decode(stored, validate=True)
    except ValueError as e:  # binascii.Error, or text that is not ASCII
        raise ParseError(f"template_f64 is not base64 ({e})") from e
    if len(raw) % 8:
        raise ParseError(f"template_f64 holds {len(raw)} bytes, not a whole number of float64s")
    return np.frombuffer(raw, dtype="<f8")


def library_load(path) -> SignatureLibrary:
    """Read a library of format 2.x; every error names the file, and the entry if one."""
    doc = _read_json(path)
    if doc.get("format") != LIBRARY_FORMAT:
        raise ParseError(f"{path}: not a signature library file")
    version = doc.get("version")
    major = version.get("major") if isinstance(version, dict) else None
    check_int(f"{path}: library major version", major, 0)  # JSON true is not 1
    if major != LIBRARY_MAJOR_VERSION:
        raise ParseError(f"{path}: unsupported library major version {major!r} "
                         f"(supported: {LIBRARY_MAJOR_VERSION})")
    try:
        fft_size, sample_rate, raw_entries = doc["fft_size"], doc["sample_rate"], doc["entries"]
    except KeyError as e:
        raise ParseError(f"{path}: missing key {e.args[0]!r}") from e
    try:
        _check_fft_size(fft_size)
        check_real("sample_rate", sample_rate, 0, bounds="()")
    except RadsimError as e:
        raise type(e)(f"{path}: {e}") from e
    sample_rate = float(sample_rate)
    if not (isinstance(raw_entries, list) and all(isinstance(raw, dict) for raw in raw_entries)):
        raise ParseError(f"{path}: entries must be a list of JSON objects")
    entries = []
    for i, raw in enumerate(raw_entries):
        try:
            label, stored = raw["label"], raw["template_f64"]
        except KeyError as e:
            raise ParseError(f"{path}: entry missing key {e.args[0]!r}") from e
        try:
            entries.append(SignatureEntry(label, Spectrum(_template_values(stored),
                                                          sample_rate, fft_size),
                                          raw.get("metadata", {})))
        except RadsimError as e:
            raise type(e)(f"{path}: entry {i} ({label!r}): {e}") from e
    try:
        return SignatureLibrary(fft_size, sample_rate, tuple(entries))
    except ConflictError as e:
        raise ConflictError(f"{path}: {e}") from e
