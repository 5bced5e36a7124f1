"""Channel degradation: scalar attenuation plus additive white Gaussian noise.

Attenuation models space loss and field-to-line coupling as a single dB
gain. When noise is sized by SNR, the variance is derived from the measured
mean power of the *attenuated* signal, so ``snr_db`` means "SNR at the
receiver". Noise is drawn from PCG64, deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParameterError, ShapeError, check_int, check_real
from .signals import SampledSignal, _check_aligned

__all__ = ["ChannelParams", "apply_channel", "measure_snr"]

_MAX_SNR_DB = 3000.0


@dataclass(frozen=True)
class ChannelParams:
    """Attenuation in dB plus exactly one noise specification (snr_db or noise_power)."""

    attenuation_db: float = 0.0
    snr_db: float | None = None
    noise_power: float | None = None
    seed: int = 0

    def __post_init__(self):
        check_real("attenuation_db", self.attenuation_db, 0)
        if self.snr_db is not None:
            # Keeps the linear ratio 10**(snr_db/10) a normal float64. The noise
            # variance it sizes can still overflow, which apply_channel refuses.
            check_real("snr_db", self.snr_db, -_MAX_SNR_DB, _MAX_SNR_DB)
        if self.noise_power is not None:
            check_real("noise_power", self.noise_power, 0)
        if (self.snr_db is None) == (self.noise_power is None):
            raise ConfigurationError("exactly one of snr_db / noise_power must be set")
        check_int("seed", self.seed, 0)

    @property
    def linear_gain(self) -> float:
        return 10.0 ** (-self.attenuation_db / 20.0)


def apply_channel(signal: SampledSignal, params: ChannelParams) -> SampledSignal:
    """Scale by the attenuation gain and add i.i.d. Gaussian noise."""
    if len(signal) == 0:
        raise ShapeError("cannot apply a channel to an empty signal")
    scaled = params.linear_gain * signal.samples
    if params.noise_power is not None:
        variance, noisy = params.noise_power, np.empty_like(scaled)
    else:
        noisy = np.square(scaled)
        power = float(np.mean(noisy))
        if power == 0.0:
            raise ParameterError("cannot size noise by SNR for a zero-power signal")
        variance = power / 10.0 ** (params.snr_db / 10.0)
        if not math.isfinite(variance):
            raise ParameterError(f"snr_db={params.snr_db!r} at signal power {power!r} "
                                 "needs a noise variance beyond float64")
    if variance > 0.0:
        # The draw of standard_normal(len(signal)), made in place.
        np.random.default_rng(params.seed).standard_normal(out=noisy)
        noisy *= math.sqrt(variance)
        scaled = np.add(noisy, scaled, out=noisy)
    return SampledSignal(signal.sample_rate, scaled)


def measure_snr(clean: SampledSignal, noisy: SampledSignal) -> float:
    """Output SNR in dB after a least-squares gain fit of clean onto noisy.

    Returns ``math.inf`` when the residual is exactly zero (no noise).
    """
    _check_aligned(clean, noisy)
    clean_energy = float(np.dot(clean.samples, clean.samples))
    if clean_energy == 0.0:
        raise ParameterError("clean signal has zero power; SNR is undefined")
    gain = float(np.dot(clean.samples, noisy.samples)) / clean_energy
    # One working array: the fit, the residual, its squares; the fit again, its squares.
    work = np.multiply(gain, clean.samples)
    np.subtract(noisy.samples, work, out=work)
    noise_power = float(np.mean(np.square(work, out=work)))
    if noise_power == 0.0:
        return math.inf
    np.multiply(gain, clean.samples, out=work)
    signal_power = float(np.mean(np.square(work, out=work)))
    return 10.0 * math.log10(signal_power / noise_power)
