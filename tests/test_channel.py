import math

import numpy as np
import pytest

from radsim.channel import ChannelParams, apply_channel, measure_snr
from radsim.errors import ConfigurationError, ParameterError, ShapeError
from radsim.signals import SampledSignal
from reference import channel_samples, fitted_snr_db


def tone(n=100_000, rate=48000.0, freq=1000.0):
    t = np.arange(n) / rate
    return SampledSignal(rate, np.cos(2 * np.pi * freq * t))


class TestParams:
    def test_needs_exactly_one_noise_spec(self):
        with pytest.raises(ConfigurationError):
            ChannelParams()
        with pytest.raises(ConfigurationError):
            ChannelParams(snr_db=10.0, noise_power=0.1)

    def test_attenuation_nonnegative(self):
        for value in (-1.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                ChannelParams(attenuation_db=value, noise_power=0.0)

    def test_noise_power_nonnegative(self):
        for value in (-0.1, math.nan, math.inf):
            with pytest.raises(ParameterError):
                ChannelParams(noise_power=value)

    def test_snr_db_finite(self):
        for value in (math.nan, math.inf, -math.inf, 1e300, -1e300, 2 ** 60):
            with pytest.raises(ParameterError):
                ChannelParams(snr_db=value)

    def test_seed_nonnegative(self):
        with pytest.raises(ParameterError, match="seed"):
            ChannelParams(snr_db=10.0, seed=-1)

    def test_linear_gain(self):
        assert ChannelParams(attenuation_db=20.0, noise_power=0.0).linear_gain == pytest.approx(0.1)


class TestApplyChannel:
    def test_identity(self):
        x = tone(n=1000)
        y = apply_channel(x, ChannelParams(attenuation_db=0.0, noise_power=0.0))
        assert np.array_equal(y.samples, x.samples)

    def test_pure_attenuation_scales_exactly(self):
        x = tone(n=1000)
        y = apply_channel(x, ChannelParams(attenuation_db=20.0, noise_power=0.0))
        assert np.array_equal(y.samples, 0.1 * x.samples)

    def test_snr_calibration(self):
        x = tone()
        y = apply_channel(x, ChannelParams(snr_db=10.0, seed=3))
        assert measure_snr(x, y) == pytest.approx(10.0, abs=0.2)

    def test_deterministic_per_seed(self):
        x = tone(n=5000)
        params = ChannelParams(snr_db=5.0, seed=17)
        assert np.array_equal(apply_channel(x, params).samples, apply_channel(x, params).samples)

    def test_attenuation_commutes_with_scaling(self):
        x = tone(n=1000)
        doubled = SampledSignal(x.sample_rate, 2.0 * x.samples)
        params = ChannelParams(attenuation_db=6.0, noise_power=0.0)
        assert np.allclose(apply_channel(doubled, params).samples,
                           2.0 * apply_channel(x, params).samples, atol=1e-15)

    def test_noise_is_white(self):
        # i.i.d. Gaussian: normalized autocorrelation at small lags stays
        # within ~6 sigma of zero for 100k samples.
        x = tone()
        y = apply_channel(x, ChannelParams(snr_db=0.0, seed=9))
        residual = y.samples - x.samples
        residual = residual - residual.mean()
        denom = float(np.dot(residual, residual))
        for lag in range(1, 11):
            rho = float(np.dot(residual[:-lag], residual[lag:])) / denom
            assert abs(rho) < 0.02

    def test_empty_signal_rejected(self):
        empty = SampledSignal(100.0, np.zeros(0))
        with pytest.raises(ShapeError):
            apply_channel(empty, ChannelParams(noise_power=0.0))

    def test_zero_power_snr_rejected(self):
        silent = SampledSignal(100.0, np.zeros(64))
        with pytest.raises(ParameterError):
            apply_channel(silent, ChannelParams(snr_db=10.0))

    def test_preserves_metadata(self):
        x = SampledSignal(8000.0, np.ones(32))
        y = apply_channel(x, ChannelParams(noise_power=0.01, seed=1))
        assert y.sample_rate == 8000.0
        assert len(y) == 32

    def test_overflowing_noise_variance_rejected(self):
        # Power 5e9 over a ratio of 1e-300 is a variance beyond float64.
        with pytest.raises(ParameterError, match=r"snr_db=-3000\.0 .*signal power"):
            apply_channel(SampledSignal(48000.0, np.full(64, 1e5)), ChannelParams(snr_db=-3000.0))

    # Odd lengths, so numpy's pairwise sums end on a partial block.
    @pytest.mark.parametrize("params", [ChannelParams(attenuation_db=6.0, snr_db=-5.0, seed=11),
                                        ChannelParams(attenuation_db=3.0, noise_power=0.3, seed=2),
                                        ChannelParams(attenuation_db=6.0, noise_power=0.0)],
                             ids=["snr", "noise_power", "noiseless"])
    @pytest.mark.parametrize("n", [1, 4097, 100_003])
    def test_matches_the_formula_bit_for_bit(self, params, n):
        x = tone(n=n, freq=1234.5)
        y = apply_channel(x, params)
        assert y.samples.tobytes() == channel_samples(x.samples, params).tobytes()


class TestMeasureSnr:
    @pytest.mark.parametrize("params", [ChannelParams(attenuation_db=6.0, snr_db=10.0, seed=3),
                                        ChannelParams(snr_db=-5.0, seed=4),
                                        ChannelParams(noise_power=0.3, seed=5),
                                        ChannelParams(noise_power=0.0)])
    @pytest.mark.parametrize("n", [4097, 100_003])
    def test_matches_the_formula_bit_for_bit(self, params, n):
        x = tone(n=n, freq=1234.5)
        y = apply_channel(x, params)
        assert measure_snr(x, y) == fitted_snr_db(x.samples, y.samples)

    def test_identical_signals_infinite(self):
        x = tone(n=1000)
        assert measure_snr(x, x) == math.inf

    def test_twenty_db(self):
        x = tone()
        y = apply_channel(x, ChannelParams(snr_db=20.0, seed=4))
        assert measure_snr(x, y) == pytest.approx(20.0, abs=0.5)

    def test_zero_db(self):
        x = tone()
        y = apply_channel(x, ChannelParams(snr_db=0.0, seed=21))
        assert measure_snr(x, y) == pytest.approx(0.0, abs=1.0)

    def test_gain_fit_removes_attenuation(self):
        x = tone()
        y = apply_channel(x, ChannelParams(attenuation_db=14.0, snr_db=12.0, seed=6))
        assert measure_snr(x, y) == pytest.approx(12.0, abs=0.3)

    def test_zero_clean_power_rejected(self):
        silent = SampledSignal(100.0, np.zeros(64))
        with pytest.raises(ParameterError):
            measure_snr(silent, silent)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            measure_snr(tone(n=100), tone(n=101))
