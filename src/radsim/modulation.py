"""Carrier generation and binary ASK/FSK/PSK modulation with their receivers.

Conventions:

* carriers are cosines ``A * cos(2*pi*fc*t + theta0)``; their samples are
  read-only and shared: the last carrier is kept (one carrier's memory,
  about 25 MB after a 16384-bit run), and asking for it again returns the
  same signal;
* FSK signals bit 0 at ``fc - bit_rate/2`` and bit 1 at ``fc + bit_rate/2``,
  phase-continuous across bit boundaries by default (``phase_continuous=False``
  restores the literal per-bit cosine definition);
* ASK gates the carrier on for 1 and off for 0; PSK flips the carrier phase
  by pi for 0;
* ``sample_rate / bit_rate`` must be an integer so bit boundaries land
  exactly on samples.

The receivers know the bit timing and exist so round trips can be verified
and bit error rates measured. ASK and PSK share one coherent correlator that
decides at the keyed levels' midpoint; FSK is noncoherent (tone magnitudes).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .codec import BitStream, _check_nonempty, _samples_per_bit
from .errors import ConfigurationError, ParameterError, ShapeError, check_int, check_real
from .signals import SampledSignal, _check_aligned, _check_length

__all__ = [
    "CarrierSpec",
    "samples_per_bit",
    "generate_carrier",
    "ask_modulate",
    "fsk_modulate",
    "psk_modulate",
    "compose_emitted",
    "ask_demodulate",
    "fsk_demodulate",
    "psk_demodulate",
    "MODULATORS",
    "DEMODULATORS",
]


# The largest carrier amplitude: below it the powers and energies of any
# signal an array can hold (sums of squared samples) stay finite.
_MAX_AMPLITUDE = 1e100


@dataclass(frozen=True)
class CarrierSpec:
    """Cosine carrier: center frequency fc, amplitude A, initial phase, sample rate."""

    center_frequency: float
    amplitude: float = 1.0
    initial_phase: float = 0.0
    sample_rate: float = 48000.0

    def __post_init__(self):
        check_real("center_frequency", self.center_frequency, 0)
        check_real("amplitude", self.amplitude, 0, _MAX_AMPLITUDE, "(]")
        check_real("initial_phase", self.initial_phase)
        check_real("sample_rate", self.sample_rate, 0, bounds="()")
        _check_nyquist(self, self.center_frequency)


def _check_nyquist(spec: CarrierSpec, max_frequency: float) -> None:
    if spec.sample_rate <= 2 * max_frequency:
        raise ConfigurationError(
            f"sample_rate {spec.sample_rate} violates Nyquist for content up to "
            f"{max_frequency} Hz (needs > {2 * max_frequency})")


def samples_per_bit(spec: CarrierSpec, bit_rate: float) -> int:
    """Integer samples per bit; rejects non-integer ratios so bit edges stay exact."""
    return _samples_per_bit(spec.sample_rate, bit_rate)


def generate_carrier(spec: CarrierSpec, duration: float) -> SampledSignal:
    """Pure carrier tone of the given duration (sample count = round(duration*fs)).

    The signal and its read-only samples are shared: the last carrier asked
    for is kept, and asking for it again returns the same signal object
    without computing or checking it.
    """
    check_real("duration", duration, 0, bounds="(]")
    _check_length(duration * spec.sample_rate)
    n = int(round(duration * spec.sample_rate))
    if n == 0:
        raise ParameterError(f"duration {duration!r} s is under half a sample at "
                             f"{spec.sample_rate} Hz: the carrier would have no samples")
    return _carrier(spec.sample_rate, spec, n)


# One entry serves the repeats that occur: a keyed signal composed with its carrier.
# Typed, so equal specs whose rates differ in type (48000 and 48000.0) do not share
# a signal: its rate goes into every sidecar written from it.
@functools.lru_cache(maxsize=1, typed=True)
def _carrier(sample_rate: float, spec: CarrierSpec, n: int) -> SampledSignal:
    """The carrier's first n samples A*cos(2*pi*fc*t + theta0), read-only, as a signal."""
    # Evaluated in one array, in the order (and so with the rounding) of that
    # expression. fc is taken as a float64, so specs that compare equal give
    # the same samples.
    samples = np.arange(n, dtype=np.float64)
    samples /= spec.sample_rate
    samples *= 2 * np.pi * float(spec.center_frequency)
    samples += spec.initial_phase
    np.cos(samples, out=samples)
    samples *= spec.amplitude
    samples.flags.writeable = False
    return SampledSignal(sample_rate, samples)


def _fsk_tones(spec: CarrierSpec, bit_rate: float) -> tuple[float, float]:
    f0 = spec.center_frequency - bit_rate / 2.0
    f1 = spec.center_frequency + bit_rate / 2.0
    if f0 < 0:
        raise ConfigurationError(
            f"bit_rate {bit_rate} places the low tone at {f0} Hz; "
            "the carrier frequency must be at least bit_rate/2")
    _check_nyquist(spec, f1)
    return f0, f1


def fsk_modulate(stream: BitStream, spec: CarrierSpec, phase_continuous: bool = True) -> SampledSignal:
    """Binary FSK: tone fc - R/2 for 0, fc + R/2 for 1 (R = bit rate)."""
    _check_nonempty(stream, "FSK-modulate")
    f0, f1 = _fsk_tones(spec, stream.bit_rate)
    spb = samples_per_bit(spec, stream.bit_rate)
    _check_length(len(stream) * spb)
    freqs = np.where(stream.bits == 1, f1, f0)
    # The (bits, spb) phase matrix is built and turned into samples in place,
    # each step in the order (and so with the rounding) of the phase formula.
    if phase_continuous:
        # Phase accumulates across bit boundaries: no discontinuity, no splatter.
        # Bit b's phase is start_b + 2*pi*f_b*k/fs over its samples k.
        increments = 2 * np.pi * freqs * spb / spec.sample_rate
        starts = spec.initial_phase + np.concatenate(([0.0], np.cumsum(increments[:-1])))
        phases = np.empty((len(stream), spb))
        np.multiply(2 * np.pi * freqs[:, None], np.arange(spb), out=phases)
        phases /= spec.sample_rate
        phases += starts[:, None]
    else:
        # Literal per-bit cosine of the global time axis: 2*pi*f_b*t + theta0.
        phases = np.arange(len(stream) * spb, dtype=np.float64).reshape(len(stream), spb)
        phases /= spec.sample_rate
        phases *= 2 * np.pi * freqs[:, None]
        phases += spec.initial_phase
    np.cos(phases, out=phases)
    phases *= spec.amplitude
    return SampledSignal(spec.sample_rate, phases.ravel())


# The carrier's level for bit 0 and for bit 1, read by the keyed transmitter and receiver.
_KEYED_LEVELS = {"ask": (0.0, 1.0), "psk": (-1.0, 1.0)}


def _keyed_carrier(stream: BitStream, spec: CarrierSpec, scheme: str) -> SampledSignal:
    """The carrier over the stream, each bit's samples multiplied by that bit's level."""
    _check_nonempty(stream, f"{scheme.upper()}-modulate")
    spb = samples_per_bit(spec, stream.bit_rate)
    carrier = generate_carrier(spec, len(stream) * spb / spec.sample_rate)
    levels = np.array(_KEYED_LEVELS[scheme])[stream.bits]
    keyed = carrier.samples.reshape(len(stream), spb) * levels[:, None]
    return SampledSignal(spec.sample_rate, keyed.ravel())


def ask_modulate(stream: BitStream, spec: CarrierSpec) -> SampledSignal:
    """On-off keying: carrier for 1, silence for 0."""
    return _keyed_carrier(stream, spec, "ask")


def psk_modulate(stream: BitStream, spec: CarrierSpec) -> SampledSignal:
    """Binary PSK: carrier phase 0 for 1, phase pi (negated carrier) for 0."""
    return _keyed_carrier(stream, spec, "psk")


def compose_emitted(carrier: SampledSignal, modulated: SampledSignal) -> SampledSignal:
    """Sample-wise sum of carrier and modulated signal (the emitted signal)."""
    _check_aligned(carrier, modulated)
    return SampledSignal(carrier.sample_rate, carrier.samples + modulated.samples)


def _bit_windows(signal: SampledSignal, spb: int, n_bits: int) -> np.ndarray:
    check_int("n_bits", n_bits, 1)
    needed = n_bits * spb
    if len(signal) < needed:
        raise ShapeError(f"signal has {len(signal)} samples, need {needed} for {n_bits} bits")
    return signal.samples[:needed].reshape(n_bits, spb)


def _one_bit_angles(frequencies, spb: int, sample_rate: float) -> np.ndarray:
    """``(spb, len(frequencies))`` phases 2*pi*f*j/fs over the samples j of one bit."""
    return 2 * np.pi * np.outer(np.arange(spb) / sample_rate, frequencies)


def _tone_correlations(windows: np.ndarray, frequencies,
                       sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Each bit window's correlations with one bit of cos, and of sin, at each frequency.

    One product of the window matrix with a small real matrix: the windows
    are neither copied nor made complex.
    """
    angles = _one_bit_angles(frequencies, windows.shape[1], sample_rate)
    zc, zs = np.hsplit(windows @ np.hstack([np.cos(angles), np.sin(angles)]), 2)
    return zc, zs


def _bit_phases(spec: CarrierSpec, spb: int, n_bits: int) -> np.ndarray:
    """Carrier phase at the first sample of each bit: 2*pi*fc*b*spb/fs + theta0."""
    return (2 * np.pi * spec.center_frequency * (np.arange(n_bits) * spb / spec.sample_rate)
            + spec.initial_phase)


def fsk_demodulate(signal: SampledSignal, spec: CarrierSpec, n_bits: int,
                   bit_rate: float) -> BitStream:
    """Per-bit tone correlation at f0/f1; larger magnitude wins, ties decode as 0.

    A tone's phase at the start of a bit is a unit-modulus factor of its
    correlation with that bit, so it drops out of the magnitudes: every bit
    is scored against one bit of each tone.
    """
    f0, f1 = _fsk_tones(spec, bit_rate)
    spb = samples_per_bit(spec, bit_rate)
    zc, zs = _tone_correlations(_bit_windows(signal, spb, n_bits), (f0, f1), spec.sample_rate)
    mag0, mag1 = np.hypot(zc, zs).T
    bits = (mag1 > mag0).astype(np.uint8)
    return BitStream(bits, bit_rate)


def _keyed_demodulate(signal: SampledSignal, spec: CarrierSpec, n_bits: int,
                      bit_rate: float, scheme: str) -> BitStream:
    """Coherent correlation with the carrier; above the levels' midpoint decodes as 1.

    With theta_b from :func:`_bit_phases` and a_j = 2*pi*fc*j/fs, the window's
    correlation with cos(theta_b + a_j) is cos(theta_b)*zc - sin(theta_b)*zs,
    zc and zs being its correlations with one bit of cos(a_j) and sin(a_j).
    Without noise, level l gives l*A*E_b for E_b = sum_j cos(theta_b + a_j)**2,
    which is spb/2 + (cos(2*theta_b)*C2 - sin(2*theta_b)*S2)/2 for C2 and S2
    the sums of cos(2*a_j) and sin(2*a_j) over one bit.
    """
    midpoint = sum(_KEYED_LEVELS[scheme]) / 2
    spb = samples_per_bit(spec, bit_rate)
    zc, zs = _tone_correlations(_bit_windows(signal, spb, n_bits), (spec.center_frequency,),
                                spec.sample_rate)
    theta = _bit_phases(spec, spb, n_bits)
    correlation = np.cos(theta) * zc[:, 0] - np.sin(theta) * zs[:, 0]
    angles = _one_bit_angles((2 * spec.center_frequency,), spb, spec.sample_rate)
    c2, s2 = np.cos(angles).sum(), np.sin(angles).sum()
    bit_energies = spb / 2 + (np.cos(2 * theta) * c2 - np.sin(2 * theta) * s2) / 2
    bits = (correlation > midpoint * spec.amplitude * bit_energies).astype(np.uint8)
    return BitStream(bits, bit_rate)


def psk_demodulate(signal: SampledSignal, spec: CarrierSpec, n_bits: int,
                   bit_rate: float) -> BitStream:
    """Coherent correlation with the carrier; positive correlation decodes as 1."""
    return _keyed_demodulate(signal, spec, n_bits, bit_rate, "psk")


def ask_demodulate(signal: SampledSignal, spec: CarrierSpec, n_bits: int,
                   bit_rate: float) -> BitStream:
    """Coherent correlation with the carrier; above half a full-carrier bit's decodes as 1."""
    return _keyed_demodulate(signal, spec, n_bits, bit_rate, "ask")


# The scheme registry: every scheme name the package accepts, and the one place
# that maps it to its transmitter and receiver.
MODULATORS = {"ask": ask_modulate, "fsk": fsk_modulate, "psk": psk_modulate}
DEMODULATORS = {"ask": ask_demodulate, "fsk": fsk_demodulate, "psk": psk_demodulate}
