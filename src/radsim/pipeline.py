"""End-to-end experiment: payload -> modulate -> compose -> channel -> analyze.

One :func:`run_experiment` call writes the chain's artifacts (payload bits,
emitted and received signals, FFT spectrum CSV, binary STFT spectrogram,
peak list, decoded bits, optional classification) into the directory it is
given, which is not part of the config, with a ``report.json`` summary. The
directory appears whole or not at all. Runs are fully deterministic per seed:
identical configs produce byte-identical directories.

:func:`recognition_benchmark` scores a signature library of one template per
modulation scheme on seeded noisy probes and on white noise.

The receiver is idealized: when the emitted signal is the carrier plus the
modulated signal, demodulation first subtracts the (gain-scaled) carrier,
which the simulation knows exactly. Without this the added carrier would
bias the per-bit correlators.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import codec, modulation, spectral
from .channel import ChannelParams, apply_channel, measure_snr
from .errors import ConfigurationError, ConflictError, check_int, check_real
from .modulation import CarrierSpec
from .recognition import (DEFAULT_FFT_SIZE, DEFAULT_THRESHOLD, UNKNOWN_LABEL, ClassificationResult,
                          SignatureLibrary, classify, library_add, library_load)
from .signals import _MAX_SAMPLES, SampledSignal, _commit, _write_json, write_signal

__all__ = ["ExperimentConfig", "ExperimentReport", "run_experiment",
           "config_from_json", "DEFAULT_CONFIG", "RecognitionBenchmark",
           "recognition_benchmark"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a pipeline run depends on; all randomness flows from seeds."""

    seed: int = 0
    payload_bits: int = 64
    bit_rate: float = 250.0
    carrier: CarrierSpec = field(default_factory=lambda: CarrierSpec(
        center_frequency=2000.0, amplitude=1.0, initial_phase=0.0, sample_rate=48000.0))
    modulation: str = "fsk"
    compose_with_carrier: bool = True
    channel: ChannelParams | None = None
    demodulate: bool = True
    stft_window: int = 256
    stft_hop: int = 128
    stft_window_type: str = "hann"
    peak_relative_threshold: float = 0.1
    peak_min_separation: float | None = None  # defaults to bit_rate / 2
    library_path: str | None = None
    classification_threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        check_int("seed", self.seed, 0)
        check_int("payload_bits", self.payload_bits, 1, _MAX_SAMPLES)
        check_real("bit_rate", self.bit_rate, 0, bounds="()")
        for name in ("compose_with_carrier", "demodulate"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigurationError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if not (isinstance(self.modulation, str) and self.modulation in modulation.MODULATORS):
            raise ConfigurationError(f"unknown modulation {self.modulation!r} "
                                     f"(expected one of {sorted(modulation.MODULATORS)})")
        if not isinstance(self.carrier, CarrierSpec):
            raise ConfigurationError(f"carrier must be a carrier spec, got {self.carrier!r}")
        if not (self.channel is None or isinstance(self.channel, ChannelParams)):
            raise ConfigurationError(f"channel must be channel parameters or null, "
                                     f"got {self.channel!r}")
        if not (self.library_path is None or isinstance(self.library_path, str)):
            raise ConfigurationError(f"library_path must be a path string or null, "
                                     f"got {self.library_path!r}")
        check_real("classification_threshold", self.classification_threshold, 0, 1, "()")
        # The analysis settings are checked here, before a run writes anything.
        n_samples = self.payload_bits * modulation.samples_per_bit(self.carrier, self.bit_rate)
        spectral._check_stft(self.stft_window, self.stft_hop, self.stft_window_type, n_samples)
        spectral._check_peak_options(self.peak_relative_threshold, self.peak_separation)

    @property
    def peak_separation(self) -> float:
        return self.bit_rate / 2.0 if self.peak_min_separation is None else self.peak_min_separation


DEFAULT_CONFIG = ExperimentConfig()


@dataclass(eq=False)
class ExperimentReport:
    config: ExperimentConfig
    files: dict = field(default_factory=dict)
    peak_frequencies_hz: list = field(default_factory=list)
    measured_snr_db: float | None = None  # also None when infinite: no noise was added
    bit_errors: int | None = None
    ber: float | None = None
    classification: ClassificationResult | None = None


def config_from_json(doc: dict) -> ExperimentConfig:
    """Build a config from the JSON layout of ``dataclasses.asdict(config)``."""
    try:
        kwargs = {**doc}  # a TypeError if doc is not a mapping
        if kwargs.get("carrier") is not None:
            kwargs["carrier"] = CarrierSpec(**kwargs["carrier"])
        if kwargs.get("channel") is not None:
            kwargs["channel"] = ChannelParams(**kwargs["channel"])
        return ExperimentConfig(**kwargs)
    except TypeError as e:
        raise ConfigurationError(f"bad experiment config: {e}") from e


def run_experiment(config: ExperimentConfig, output_dir) -> ExperimentReport:
    """Run the full chain and write all artifacts into ``output_dir``.

    ``report.json`` is ``asdict`` of the returned report. ``output_dir`` must
    not exist or must be an empty directory, else :class:`ConflictError` is
    raised before any work. The run dir is committed at one point by
    :func:`signals._commit`, once ``report.json`` is written, so a failed run
    leaves no ``output_dir``. Missing parent directories are made; a failed
    run removes them again, deepest first, as far as they are empty.
    """
    out = Path(output_dir)
    if out.exists() and not (out.is_dir() and next(out.iterdir(), None) is None):
        raise ConflictError(f"{out} exists and is not an empty directory")
    missing = []  # the parents the run makes, deepest first
    try:
        with _commit(out) as partial:
            missing = list(itertools.takewhile(lambda parent: not parent.exists(), partial.parents))
            # Made by mkdir, not tempfile.mkdtemp, so a new run dir has the mode
            # a plain mkdir gives rather than 0700.
            partial.mkdir(parents=True)
            return _write_run(config, partial)
    except BaseException:
        for parent in missing:
            with contextlib.suppress(OSError):  # not empty: another process uses it
                parent.rmdir()
        raise


def _write_run(config: ExperimentConfig, out: Path) -> ExperimentReport:
    """Run the chain, writing every artifact and ``report.json`` into ``out``."""
    report = ExperimentReport(config)
    files = report.files
    payload = codec.random_payload(config.seed, config.payload_bits, config.bit_rate)

    codec.write_bits(payload, out / "payload.txt")
    files["payload"] = "payload.txt"

    emitted = modulation.MODULATORS[config.modulation](payload, config.carrier)
    if config.compose_with_carrier:
        carrier = modulation.generate_carrier(config.carrier,
                                              len(emitted) / config.carrier.sample_rate)
        emitted = modulation.compose_emitted(carrier, emitted)
    write_signal(emitted, out / "emitted.f64")
    files["emitted"] = "emitted.f64"

    received = emitted
    if config.channel is not None:
        received = apply_channel(emitted, config.channel)
        snr = measure_snr(emitted, received)
        report.measured_snr_db = snr if math.isfinite(snr) else None  # JSON has no Infinity
    write_signal(received, out / "received.f64")
    files["received"] = "received.f64"

    spectrum = spectral.fft_magnitude(received)
    spectral.write_spectrum_csv(spectrum, out / "spectrum.csv")
    files["spectrum"] = "spectrum.csv"
    spectrogram = spectral.stft(received, config.stft_window, config.stft_hop,
                                config.stft_window_type)
    spectral.write_spectrum(spectrogram, out / "stft.f64")
    files["stft"] = "stft.f64"
    peaks = spectral.find_peaks(spectrum, config.peak_relative_threshold, config.peak_separation)
    spectral.write_peaks_csv(peaks, out / "peaks.csv")
    files["peaks"] = "peaks.csv"
    report.peak_frequencies_hz = [p.frequency for p in peaks]

    if config.demodulate:
        to_demodulate = received
        gain = config.channel.linear_gain if config.channel is not None else 1.0
        if config.compose_with_carrier:
            # received - gain * carrier, bit for bit, with one signal-sized array.
            residual = carrier.samples * -gain
            residual += received.samples
            to_demodulate = SampledSignal(received.sample_rate, residual)
        # The receiver takes the carrier as it arrives (ASK decides against its
        # amplitude); one attenuated below the least float arrives as the least.
        amplitude = max(config.carrier.amplitude * gain, math.ulp(0.0))
        received_carrier = replace(config.carrier, amplitude=amplitude)
        demodulate = modulation.DEMODULATORS[config.modulation]
        decoded = demodulate(to_demodulate, received_carrier, config.payload_bits, config.bit_rate)
        codec.write_bits(decoded, out / "demodulated.txt")
        files["demodulated"] = "demodulated.txt"
        report.bit_errors = int(np.count_nonzero(decoded.bits != payload.bits))
        report.ber = report.bit_errors / config.payload_bits

    if config.library_path is not None:
        library = library_load(config.library_path)
        report.classification = classify(received, library, config.classification_threshold)
        _write_json(out / "classification.json", asdict(report.classification))
        files["classification"] = "classification.json"

    _write_json(out / "report.json", asdict(report))
    return report


# The recognition benchmark's schemes, in the order that numbers their probe
# seeds, each with its template's payload seed.
_BENCHMARK_TEMPLATES = (("fsk", 1000), ("psk", 2000), ("ask", 3000))
# Probes per scheme above this would reuse the next scheme's seeds.
_MAX_BENCHMARK_PROBES = 1000


@dataclass(frozen=True)
class RecognitionBenchmark:
    """How the benchmark library labelled its noisy probes and its white noise.

    ``decisions[scheme][label]`` counts the probes of ``scheme`` that were
    labelled ``label`` (a scheme or ``"unknown"``). ``noise_rejected`` counts
    the white-noise probes labelled ``"unknown"``.
    """

    snr_db: float
    probes: int
    threshold: float
    decisions: dict
    noise_rejected: int

    @property
    def correct(self) -> int:
        return sum(counts.get(scheme, 0) for scheme, counts in self.decisions.items())


def recognition_benchmark(snr_db: float, probes: int, threshold: float) -> RecognitionBenchmark:
    """Score a library of one template per scheme on noisy probes and on white noise.

    Every signal uses ``DEFAULT_CONFIG``'s carrier and bit rate, with no
    carrier added. The fsk, psk and ask templates carry 1024-bit payloads of
    seeds 1000, 2000 and 3000. Probe k of the i-th scheme in that order
    carries a 256-bit payload of seed 10_000 + 1000*i + k through a channel
    at ``snr_db`` with seed 20_000 + 1000*i + k, and is classified at
    ``threshold``. White-noise probe k, for k below ``probes``, is a probe's
    length of standard normal samples of seed 90_000 + k, classified at
    ``threshold`` too, so the rejections count false alarms at that threshold.
    """
    check_int("probes", probes, 1, _MAX_BENCHMARK_PROBES)
    spec, rate = DEFAULT_CONFIG.carrier, DEFAULT_CONFIG.bit_rate
    library = SignatureLibrary(DEFAULT_FFT_SIZE, spec.sample_rate)
    for scheme, seed in _BENCHMARK_TEMPLATES:
        template = modulation.MODULATORS[scheme](codec.random_payload(seed, 1024, rate), spec)
        library = library_add(library, scheme, template)

    decisions = {}
    for i, (scheme, _) in enumerate(_BENCHMARK_TEMPLATES):
        labels = Counter()
        for k in range(probes):
            payload = codec.random_payload(10_000 + 1000 * i + k, 256, rate)
            received = apply_channel(modulation.MODULATORS[scheme](payload, spec),
                                     ChannelParams(snr_db=snr_db, seed=20_000 + 1000 * i + k))
            labels[classify(received, library, threshold).label] += 1
        decisions[scheme] = dict(labels)

    probe_samples = 256 * modulation.samples_per_bit(spec, rate)
    rejected = 0
    for k in range(probes):
        noise = SampledSignal(spec.sample_rate,
                              np.random.default_rng(90_000 + k).standard_normal(probe_samples))
        rejected += classify(noise, library, threshold).label == UNKNOWN_LABEL
    return RecognitionBenchmark(snr_db, probes, threshold, decisions, rejected)
