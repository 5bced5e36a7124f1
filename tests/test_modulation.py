import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radsim import modulation
from radsim.channel import ChannelParams, apply_channel
from radsim.codec import BitStream, random_payload
from radsim.errors import ConfigurationError, ParameterError, ShapeError
from radsim.modulation import (DEMODULATORS, MODULATORS, CarrierSpec, ask_modulate,
                               compose_emitted, fsk_demodulate, fsk_modulate, generate_carrier,
                               psk_demodulate, psk_modulate, samples_per_bit)
from radsim.signals import SampledSignal
from radsim.spectral import fft_magnitude, find_peaks
from reference import parseval_energy

# Default-scale carrier (192 samples per bit at 250 bit/s).
SPEC = CarrierSpec(center_frequency=2000.0, amplitude=1.0, initial_phase=0.0, sample_rate=48000.0)
RATE = 250.0
# Coarse carrier for bit-error runs where noise must actually flip bits.
SPEC8 = CarrierSpec(center_frequency=2000.0, amplitude=1.0, initial_phase=0.0, sample_rate=8000.0)
RATE8 = 1000.0

bit_lists = st.lists(st.integers(0, 1), min_size=1, max_size=64)

# Demodulators must agree with the references below wherever the reference's
# decision is clear of a tie by this fraction of its scale (float64 sums of
# at most a few thousand terms round far below it).
TIE_TOLERANCE = 1e-9


def reference_fsk_demodulate(signal, spec, n_bits, bit_rate):
    """Full-length complex tones at f0 and f1: returns the bits and where they are no tie.

    The scale is sum(|w|), which bounds both tone magnitudes of a window w.
    """
    f0 = spec.center_frequency - bit_rate / 2.0
    f1 = spec.center_frequency + bit_rate / 2.0
    spb = samples_per_bit(spec, bit_rate)
    windows = signal.samples[:n_bits * spb].reshape(n_bits, spb)
    t = (np.arange(n_bits * spb) / spec.sample_rate).reshape(n_bits, spb)
    mag0 = np.abs((windows * np.exp(-2j * np.pi * f0 * t)).sum(axis=1))
    mag1 = np.abs((windows * np.exp(-2j * np.pi * f1 * t)).sum(axis=1))
    scale = np.abs(windows).sum(axis=1)
    return mag1 > mag0, np.abs(mag1 - mag0) > TIE_TOLERANCE * scale


def reference_psk_demodulate(signal, spec, n_bits, bit_rate):
    """Correlation with a full-length carrier; the scale A * sum(|w|) bounds it."""
    spb = samples_per_bit(spec, bit_rate)
    windows = signal.samples[:n_bits * spb].reshape(n_bits, spb)
    reference = generate_carrier(spec, n_bits * spb / spec.sample_rate).samples.reshape(n_bits, spb)
    correlation = (windows * reference).sum(axis=1)
    scale = spec.amplitude * np.abs(windows).sum(axis=1)
    return correlation > 0, np.abs(correlation) > TIE_TOLERANCE * scale


def reference_ask_demodulate(signal, spec, n_bits, bit_rate):
    """Correlation with a full-length carrier against half the carrier's energy.

    The scale A * sum(|w|) + A**2 * spb bounds both sides' terms.
    """
    spb = samples_per_bit(spec, bit_rate)
    windows = signal.samples[:n_bits * spb].reshape(n_bits, spb)
    reference = generate_carrier(spec, n_bits * spb / spec.sample_rate).samples.reshape(n_bits, spb)
    correlation = (windows * reference).sum(axis=1)
    thresholds = (reference ** 2).sum(axis=1) / 2
    scale = spec.amplitude * np.abs(windows).sum(axis=1) + spec.amplitude ** 2 * spb
    return correlation > thresholds, np.abs(correlation - thresholds) > TIE_TOLERANCE * scale


REFERENCE_DEMODULATORS = {"ask": reference_ask_demodulate, "fsk": reference_fsk_demodulate,
                          "psk": reference_psk_demodulate}


def stream(bits, rate=RATE):
    return BitStream(np.asarray(bits, dtype=np.uint8), rate)


class TestCarrierSpec:
    def test_nyquist_violation(self):
        with pytest.raises(ConfigurationError):
            CarrierSpec(center_frequency=30000.0, sample_rate=48000.0)

    def test_zero_frequency_allowed(self):
        spec = CarrierSpec(center_frequency=0.0, sample_rate=100.0)
        carrier = generate_carrier(spec, 0.1)
        assert np.allclose(carrier.samples, 1.0)

    def test_amplitude_positive(self):
        with pytest.raises(ParameterError):
            CarrierSpec(center_frequency=10.0, amplitude=0.0, sample_rate=100.0)

    def test_amplitude_bounded(self):
        # Larger amplitudes make signal powers overflow to inf.
        CarrierSpec(center_frequency=10.0, amplitude=1e100, sample_rate=100.0)
        with pytest.raises(ParameterError, match="amplitude"):
            CarrierSpec(center_frequency=10.0, amplitude=1e300, sample_rate=100.0)


def carrier_formula(spec, n):
    """The spec's first n samples, computed from the carrier formula."""
    t = np.arange(n) / spec.sample_rate
    return spec.amplitude * np.cos(2 * np.pi * spec.center_frequency * t + spec.initial_phase)


class TestGenerateCarrier:
    def test_length(self):
        carrier = generate_carrier(SPEC, 0.25)
        assert len(carrier) == round(0.25 * 48000)

    def test_quarter_phase_is_negative_sine(self):
        spec = CarrierSpec(100.0, 1.0, np.pi / 2, 10000.0)
        carrier = generate_carrier(spec, 0.5)
        t = np.arange(len(carrier)) / 10000.0
        assert np.allclose(carrier.samples, -np.sin(2 * np.pi * 100.0 * t), atol=1e-12)

    def test_tone_spectrum(self):
        spec = CarrierSpec(100.0, 1.0, 0.0, 10000.0)
        spectrum = fft_magnitude(generate_carrier(spec, 1.0))
        peak = spectrum.bin_frequencies[int(np.argmax(spectrum.magnitudes))]
        assert abs(peak - 100.0) <= spectrum.bin_width

    def test_duration_positive(self):
        with pytest.raises(ParameterError):
            generate_carrier(SPEC, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(fc=st.floats(0.0, 23_000.0), amplitude=st.floats(1e-3, 1e3),
           phase=st.floats(-100.0, 100.0), n=st.integers(1, 5000))
    def test_bit_identical_to_the_expression(self, fc, amplitude, phase, n):
        spec = CarrierSpec(fc, amplitude, phase, 48000.0)
        expected = carrier_formula(spec, n)
        assert generate_carrier(spec, n / 48000.0).samples.tobytes() == expected.tobytes()

    def test_memory_is_the_output(self, traced_peak):
        # 4096 bits x 192 samples: the 6.3 MB output, nothing else signal-sized.
        n = 4096 * 192
        peak = traced_peak(lambda: generate_carrier(SPEC, n / SPEC.sample_rate))
        assert peak <= 1.1 * n * 8

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf])
    def test_duration_must_be_finite(self, duration):
        with pytest.raises(ParameterError, match=r"^duration must be a finite number > 0, got"):
            generate_carrier(SPEC, duration)

    @pytest.mark.parametrize("duration", [1e-6, 0.5 / 48000.0, 5e-324])
    def test_duration_under_half_a_sample_is_refused(self, duration):
        with pytest.raises(ParameterError, match=r"^duration .* the carrier would have no samples$"):
            generate_carrier(SPEC, duration)


class TestCarrierCache:
    def test_repeat_is_the_same_read_only_array(self, traced_peak):
        n = 4096 * 192
        first = generate_carrier(SPEC, n / SPEC.sample_rate)
        peak = traced_peak(lambda: generate_carrier(SPEC, n / SPEC.sample_rate))
        again = generate_carrier(replace(SPEC), n / SPEC.sample_rate)  # an equal spec
        assert again is first
        assert not again.samples.flags.writeable
        assert peak < 0.01 * n * 8

    @pytest.mark.parametrize("first, second", [(48000.0, 48000), (48000, 48000.0)],
                             ids=["float-then-int", "int-then-float"])
    def test_a_rate_keeps_its_type(self, first, second):
        # The rate goes into the sidecar of every signal built on the carrier:
        # 48000 and 48000.0 are equal specs, but not the same JSON.
        modulation._carrier.cache_clear()
        generate_carrier(CarrierSpec(2000.0, sample_rate=first), 0.25)
        carrier = generate_carrier(CarrierSpec(2000.0, sample_rate=second), 0.25)
        assert type(carrier.sample_rate) is type(second)

    def test_samples_cannot_be_written(self):
        carrier = generate_carrier(SPEC, 0.01)
        with pytest.raises(ValueError, match="read-only"):
            carrier.samples[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            carrier.samples *= 2.0
        assert carrier.samples.tobytes() == carrier_formula(SPEC, len(carrier)).tobytes()

    def test_alternating_requests_equal_the_formula(self):
        other = CarrierSpec(3000.0, 2.0, 0.5, 48000.0)
        for spec, n in [(SPEC, 1000), (other, 1000), (SPEC, 1000), (SPEC, 999), (SPEC, 1000)]:
            carrier = generate_carrier(spec, n / spec.sample_rate)
            assert carrier.samples.tobytes() == carrier_formula(spec, n).tobytes()

    @pytest.mark.parametrize("first, second", [
        (CarrierSpec(0.0, sample_rate=100.0), CarrierSpec(-0.0, sample_rate=100.0)),
        (CarrierSpec(-0.0, sample_rate=100.0), CarrierSpec(0.0, sample_rate=100.0)),
        (CarrierSpec(10.0, 1.0, 0.0, 100.0), CarrierSpec(10.0, 1.0, -0.0, 100.0)),
        (CarrierSpec(10.0, 1.0, -0.0, 100.0), CarrierSpec(10.0, 1.0, 0.0, 100.0)),
        (CarrierSpec(0.0, 1.0, -0.0, 100.0), CarrierSpec(-0.0, 1.0, 0.0, 100.0)),
        (CarrierSpec(2000.0, 3.0, 1.0, 48000.0), CarrierSpec(2000, 3, 1, 48000)),
        (CarrierSpec(2000, 3, 1, 48000), CarrierSpec(2000.0, 3.0, 1.0, 48000.0)),
        (CarrierSpec(2000.0, 3.0, 1.0, 48000.0),
         CarrierSpec(np.float64(2000.0), np.float64(3.0), np.float64(1.0), np.float64(48000.0))),
    ], ids=["fc-0", "fc+0", "phase-0", "phase+0", "both", "ints", "floats", "numpy"])
    def test_equal_specs_share_exact_samples(self, first, second):
        assert first == second and hash(first) == hash(second)
        generate_carrier(first, 0.5)
        shared = generate_carrier(second, 0.5)
        assert shared.samples.tobytes() == carrier_formula(second, len(shared)).tobytes()

    def test_a_float32_frequency_is_read_as_float64(self):
        # It compares equal to the float64 spec, so both must give its samples.
        narrow = CarrierSpec(np.float32(2000.0), 1.0, 0.0, 48000.0)
        assert narrow == SPEC
        modulation._carrier.cache_clear()
        for spec in (narrow, SPEC, narrow):
            carrier = generate_carrier(spec, 0.5)
            assert carrier.samples.tobytes() == carrier_formula(SPEC, 24000).tobytes()


class TestSamplesPerBit:
    def test_exact_ratio(self):
        assert samples_per_bit(SPEC, 250.0) == 192

    def test_non_integer_rejected(self):
        with pytest.raises(ConfigurationError):
            samples_per_bit(SPEC, 7.0)


class TestFsk:
    def test_all_ones_tone_at_f1(self):
        signal = fsk_modulate(stream([1] * 64), SPEC)
        spectrum = fft_magnitude(signal)
        peak = spectrum.bin_frequencies[int(np.argmax(spectrum.magnitudes))]
        assert abs(peak - 2125.0) <= spectrum.bin_width

    def test_all_zeros_tone_at_f0(self):
        signal = fsk_modulate(stream([0] * 64), SPEC)
        spectrum = fft_magnitude(signal)
        peak = spectrum.bin_frequencies[int(np.argmax(spectrum.magnitudes))]
        assert abs(peak - 1875.0) <= spectrum.bin_width

    def test_alternating_bits_show_both_tones(self):
        # Peaks must sit exactly on the signaling tones. Single-bit
        # alternation also puts a keying harmonic at fc itself, so assert
        # membership rather than "top two".
        signal = fsk_modulate(stream(np.tile([0, 1], 64)), SPEC)
        spectrum = fft_magnitude(signal)
        peaks = find_peaks(spectrum, relative_threshold=0.5, min_separation=RATE / 2)
        freqs = [p.frequency for p in peaks]
        assert any(abs(f - 1875.0) <= spectrum.bin_width for f in freqs)
        assert any(abs(f - 2125.0) <= spectrum.bin_width for f in freqs)

    def test_phase_reset_mode_differs_but_round_trips(self):
        payload = random_payload(11, 128, RATE)
        continuous = fsk_modulate(payload, SPEC, phase_continuous=True)
        reset = fsk_modulate(payload, SPEC, phase_continuous=False)
        assert not np.array_equal(continuous.samples, reset.samples)
        decoded = fsk_demodulate(reset, SPEC, 128, RATE)
        assert np.array_equal(decoded.bits, payload.bits)

    def test_low_tone_must_stay_nonnegative(self):
        spec = CarrierSpec(center_frequency=100.0, sample_rate=8000.0)
        with pytest.raises(ConfigurationError):
            fsk_modulate(stream([1, 0], 1000.0), spec)

    def test_spectral_concentration(self):
        # At least 90% of the energy within [f0 - R, f1 + R] (measured ~99.7%).
        signal = fsk_modulate(random_payload(5, 256, RATE), SPEC)
        spectrum = fft_magnitude(signal)
        masked = spectrum.magnitudes.copy()
        band = (spectrum.bin_frequencies >= 1875.0 - RATE) & (spectrum.bin_frequencies <= 2125.0 + RATE)
        masked[~band] = 0.0
        from radsim.spectral import Spectrum
        in_band = parseval_energy(Spectrum(masked, spectrum.sample_rate, spectrum.fft_size))
        assert in_band / parseval_energy(spectrum) >= 0.9


def reference_fsk_modulate(stream, spec, phase_continuous):
    """FSK samples from the phase formulas, one whole-matrix expression per step."""
    f0 = spec.center_frequency - stream.bit_rate / 2.0
    f1 = spec.center_frequency + stream.bit_rate / 2.0
    spb = samples_per_bit(spec, stream.bit_rate)
    freqs = np.where(stream.bits == 1, f1, f0)
    if phase_continuous:
        increments = 2 * np.pi * freqs * spb / spec.sample_rate
        starts = spec.initial_phase + np.concatenate(([0.0], np.cumsum(increments[:-1])))
        phases = starts[:, None] + 2 * np.pi * freqs[:, None] * np.arange(spb) / spec.sample_rate
    else:
        t = (np.arange(len(stream) * spb) / spec.sample_rate).reshape(len(stream), spb)
        phases = 2 * np.pi * freqs[:, None] * t + spec.initial_phase
    return spec.amplitude * np.cos(phases).ravel()


class TestFskInPlace:
    @settings(max_examples=50, deadline=None)
    @given(bits=bit_lists, rate=st.sampled_from([125.0, 250.0, 1000.0]),
           fc=st.floats(500.0, 20_000.0), amplitude=st.floats(1e-3, 1e3),
           phase=st.floats(-100.0, 100.0), phase_continuous=st.booleans())
    def test_bit_identical_to_the_formulas(self, bits, rate, fc, amplitude, phase,
                                           phase_continuous):
        spec = CarrierSpec(fc, amplitude, phase, 48000.0)
        stream = BitStream(np.array(bits, dtype=np.uint8), rate)
        expected = reference_fsk_modulate(stream, spec, phase_continuous)
        got = fsk_modulate(stream, spec, phase_continuous).samples
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("phase_continuous", [True, False])
    def test_memory_is_the_output(self, traced_peak, phase_continuous):
        # 4096 bits x 192 samples: the 6.3 MB output; the formulas took 3-4 times it.
        stream = random_payload(3, 4096, RATE)
        peak = traced_peak(lambda: fsk_modulate(stream, SPEC, phase_continuous))
        assert peak <= 1.1 * 4096 * 192 * 8


class TestAsk:
    def test_all_zeros_silent(self):
        signal = ask_modulate(stream([0] * 16), SPEC)
        assert np.all(signal.samples == 0.0)

    def test_all_ones_equals_carrier(self):
        signal = ask_modulate(stream([1] * 16), SPEC)
        carrier = generate_carrier(SPEC, len(signal) / SPEC.sample_rate)
        assert np.array_equal(signal.samples, carrier.samples)

    def test_one_zero_layout(self):
        signal = ask_modulate(stream([1, 0]), SPEC)
        half = len(signal) // 2
        assert np.sqrt(np.mean(signal.samples[half:] ** 2)) == 0.0
        assert np.sqrt(np.mean(signal.samples[:half] ** 2)) > 0.5

    def test_energy_bounded_by_carrier(self):
        payload = random_payload(3, 64, RATE)
        signal = ask_modulate(payload, SPEC)
        carrier = generate_carrier(SPEC, len(signal) / SPEC.sample_rate)
        assert np.sum(signal.samples ** 2) < np.sum(carrier.samples ** 2)


class TestPsk:
    def test_all_ones_equals_carrier(self):
        signal = psk_modulate(stream([1] * 16), SPEC)
        carrier = generate_carrier(SPEC, len(signal) / SPEC.sample_rate)
        assert np.array_equal(signal.samples, carrier.samples)

    def test_all_zeros_equals_negated_carrier(self):
        signal = psk_modulate(stream([0] * 16), SPEC)
        carrier = generate_carrier(SPEC, len(signal) / SPEC.sample_rate)
        assert np.allclose(signal.samples, -carrier.samples, atol=1e-12)

    def test_chip_identity(self):
        payload = random_payload(17, 32, RATE)
        signal = psk_modulate(payload, SPEC)
        spb = samples_per_bit(SPEC, RATE)
        chips = np.repeat(np.where(payload.bits == 1, 1.0, -1.0), spb)
        carrier = generate_carrier(SPEC, len(signal) / SPEC.sample_rate)
        assert np.allclose(signal.samples, chips * carrier.samples, atol=1e-12)

    def test_opposite_half_correlations(self):
        signal = psk_modulate(stream([1, 0]), SPEC)
        carrier = generate_carrier(SPEC, len(signal) / SPEC.sample_rate)
        half = len(signal) // 2
        first = float(np.dot(signal.samples[:half], carrier.samples[:half]))
        second = float(np.dot(signal.samples[half:], carrier.samples[half:]))
        assert first > 0 > second


class TestCompose:
    def test_additive_identity(self):
        signal = fsk_modulate(stream([1, 0, 1]), SPEC)
        zeros = SampledSignal(SPEC.sample_rate, np.zeros(len(signal)))
        assert np.array_equal(compose_emitted(signal, zeros).samples, signal.samples)

    def test_cancellation(self):
        signal = fsk_modulate(stream([1, 0, 1]), SPEC)
        negated = SampledSignal(SPEC.sample_rate, -signal.samples)
        assert np.all(compose_emitted(signal, negated).samples == 0.0)

    def test_mismatched_rate(self):
        a = SampledSignal(100.0, np.zeros(4))
        b = SampledSignal(200.0, np.zeros(4))
        with pytest.raises(ShapeError):
            compose_emitted(a, b)

    def test_mismatched_length(self):
        a = SampledSignal(100.0, np.zeros(4))
        b = SampledSignal(100.0, np.zeros(5))
        with pytest.raises(ShapeError):
            compose_emitted(a, b)

    def test_carrier_plus_fsk_has_three_peaks(self):
        payload = random_payload(0, 64, RATE)
        modulated = fsk_modulate(payload, SPEC)
        carrier = generate_carrier(SPEC, len(modulated) / SPEC.sample_rate)
        spectrum = fft_magnitude(compose_emitted(carrier, modulated))
        peaks = find_peaks(spectrum, relative_threshold=0.1, min_separation=RATE / 2)
        assert [p.frequency for p in peaks] == [1875.0, 2000.0, 2125.0]


class TestKeyed:
    @pytest.mark.parametrize("scheme, levels", [("ask", (0.0, 1.0)), ("psk", (-1.0, 1.0))])
    def test_bit_identical_to_the_keyed_carrier(self, scheme, levels):
        payload = random_payload(8, 64, RATE)
        signal = MODULATORS[scheme](payload, SPEC)
        keyed = np.repeat(np.array(levels)[payload.bits], samples_per_bit(SPEC, RATE))
        assert signal.samples.tobytes() == (carrier_formula(SPEC, len(signal)) * keyed).tobytes()

    @pytest.mark.parametrize("scheme", ["ask", "psk"])
    def test_memory_is_the_carrier_and_the_output(self, traced_peak, scheme):
        # 4096 bits x 192 samples: a miss computes the 6.3 MB carrier and the
        # output; a repeat, as when the emitter adds the carrier, only the output.
        payload = random_payload(3, 4096, RATE)
        size = 4096 * 192 * 8
        modulation._carrier.cache_clear()
        assert traced_peak(lambda: MODULATORS[scheme](payload, SPEC)) <= 2.1 * size
        assert traced_peak(lambda: MODULATORS[scheme](payload, SPEC)) <= 1.1 * size


class TestSampleCounts:
    @pytest.mark.parametrize("modulate", [MODULATORS[s] for s in sorted(MODULATORS)])
    def test_exact_length(self, modulate):
        payload = random_payload(2, 23, RATE)
        assert len(modulate(payload, SPEC)) == 23 * samples_per_bit(SPEC, RATE)

    @pytest.mark.parametrize("scheme", sorted(MODULATORS))
    def test_empty_stream_makes_no_signal(self, scheme):
        with pytest.raises(ShapeError, match=f"^cannot {scheme.upper()}-modulate an empty stream$"):
            MODULATORS[scheme](stream([]), SPEC)


class TestRoundTrips:
    @settings(max_examples=25, deadline=None)
    @given(bit_lists)
    def test_noiseless_exact_all_schemes(self, bits):
        payload = stream(bits, RATE8)
        for scheme in sorted(MODULATORS):
            signal = MODULATORS[scheme](payload, SPEC8)
            decoded = DEMODULATORS[scheme](signal, SPEC8, len(bits), RATE8)
            assert np.array_equal(decoded.bits, payload.bits)

    def test_long_noiseless_round_trips(self):
        payload = random_payload(42, 10_000, RATE8)
        for scheme in sorted(MODULATORS):
            signal = MODULATORS[scheme](payload, SPEC8)
            decoded = DEMODULATORS[scheme](signal, SPEC8, 10_000, RATE8)
            assert np.array_equal(decoded.bits, payload.bits)


class TestDemodulatorsMatchReferences:
    @settings(max_examples=200, deadline=None)
    @given(scheme=st.sampled_from(sorted(DEMODULATORS)),
           snr_db=st.one_of(st.none(), st.floats(-10.0, 30.0)),
           amplitude=st.floats(1e-3, 1e3),
           initial_phase=st.floats(-np.pi, np.pi),
           phase_continuous=st.booleans(),
           n_bits=st.integers(1, 200),
           carrier_bins=st.integers(1, 15),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_same_bits_where_the_reference_is_clear_of_a_tie(
            self, scheme, snr_db, amplitude, initial_phase, phase_continuous,
            n_bits, carrier_bins, seed):
        # 32 samples per bit; the carrier sits on a multiple of half the bit
        # rate, from the lowest FSK allows to just below Nyquist.
        spec = CarrierSpec(carrier_bins * RATE8 / 2, amplitude, initial_phase, 32 * RATE8)
        payload = random_payload(seed, n_bits, RATE8)
        options = {"phase_continuous": phase_continuous} if scheme == "fsk" else {}
        signal = MODULATORS[scheme](payload, spec, **options)
        if snr_db is not None:  # noise against the carrier's power: ASK may be all zeros
            noise_power = amplitude ** 2 / 2 * 10 ** (-snr_db / 10)
            signal = apply_channel(signal, ChannelParams(noise_power=noise_power, seed=seed))
        expected, clear = REFERENCE_DEMODULATORS[scheme](signal, spec, n_bits, RATE8)
        decoded = DEMODULATORS[scheme](signal, spec, n_bits, RATE8)
        assert np.array_equal(decoded.bits[clear], expected[clear])

    @pytest.mark.parametrize("scheme", sorted(DEMODULATORS))
    def test_same_bits_on_a_long_noisy_run(self, scheme):
        payload = random_payload(7, 4096, RATE)
        received = apply_channel(MODULATORS[scheme](payload, SPEC),
                                 ChannelParams(snr_db=0.0, seed=8))
        expected, clear = REFERENCE_DEMODULATORS[scheme](received, SPEC, 4096, RATE)
        decoded = DEMODULATORS[scheme](received, SPEC, 4096, RATE)
        assert clear.all()
        assert np.array_equal(decoded.bits, expected)


class TestDemodulatorEdges:
    def test_silence_decodes_as_zeros(self):
        silence = SampledSignal(SPEC.sample_rate, np.zeros(192 * 8))
        for demodulate in DEMODULATORS.values():
            decoded = demodulate(silence, SPEC, 8, RATE)
            assert np.all(decoded.bits == 0)

    @pytest.mark.parametrize("scheme", sorted(DEMODULATORS))
    def test_memory_does_not_grow_with_the_signal(self, scheme, traced_peak):
        # 4096 bits x 192 samples: one full-length float64 array is 6.3 MB.
        received = apply_channel(MODULATORS[scheme](random_payload(9, 4096, RATE), SPEC),
                                 ChannelParams(noise_power=0.1, seed=10))
        demodulate = DEMODULATORS[scheme]
        assert traced_peak(lambda: demodulate(received, SPEC, 4096, RATE)) < 1e6

    def test_short_signal_rejected(self):
        short = SampledSignal(SPEC.sample_rate, np.zeros(100))
        with pytest.raises(ShapeError):
            fsk_demodulate(short, SPEC, 8, RATE)


class TestBerUnderNoise:
    def test_fsk_ber_at_10db_is_small(self):
        payload = random_payload(101, 10_000, RATE8)
        received = apply_channel(fsk_modulate(payload, SPEC8), ChannelParams(snr_db=10.0, seed=55))
        decoded = fsk_demodulate(received, SPEC8, 10_000, RATE8)
        ber = np.mean(decoded.bits != payload.bits)
        assert ber < 1e-2

    def test_psk_ber_monotone_in_snr(self):
        payload = random_payload(101, 10_000, RATE8)
        signal = psk_modulate(payload, SPEC8)
        bers = []
        for snr in (0.0, -10.0):
            received = apply_channel(signal, ChannelParams(snr_db=snr, seed=66))
            decoded = psk_demodulate(received, SPEC8, 10_000, RATE8)
            bers.append(float(np.mean(decoded.bits != payload.bits)))
        assert bers[0] < bers[1]


# Closed-form bit error rate of each receiver at Eb/N0 (linear), Eb being the
# average bit energy: coherent BPSK, noncoherent orthogonal FSK (the tones are
# a bit rate apart) and coherent on-off keying.
THEORY_BER = {
    "psk": lambda ebn0: 0.5 * math.erfc(math.sqrt(ebn0)),
    "fsk": lambda ebn0: 0.5 * math.exp(-ebn0 / 2),
    "ask": lambda ebn0: 0.5 * math.erfc(math.sqrt(ebn0 / 2)),
}
THEORY_EBN0_DB = (0.0, 2.0, 4.0, 6.0, 8.0)
THEORY_BITS = 20_000


class TestBerAgainstTheory:
    @pytest.mark.parametrize("point", range(len(THEORY_EBN0_DB)))
    @pytest.mark.parametrize("scheme", sorted(THEORY_BER))
    def test_errors_within_four_sigma_of_theory(self, scheme, point):
        # The channel sizes noise against the signal's mean power P per
        # sample: Eb = P * spb and N0 = 2 * noise variance, so the channel SNR
        # is Eb/N0 / (spb/2). Every point draws its own noise.
        ebn0_db = THEORY_EBN0_DB[point]
        spb = samples_per_bit(SPEC8, RATE8)
        payload = random_payload(404, THEORY_BITS, RATE8)
        channel = ChannelParams(snr_db=ebn0_db - 10 * math.log10(spb / 2),
                                seed=1000 + 100 * sorted(THEORY_BER).index(scheme) + point)
        received = apply_channel(MODULATORS[scheme](payload, SPEC8), channel)
        decoded = DEMODULATORS[scheme](received, SPEC8, THEORY_BITS, RATE8)
        errors = int(np.count_nonzero(decoded.bits != payload.bits))
        p = THEORY_BER[scheme](10 ** (ebn0_db / 10))
        sigma = math.sqrt(THEORY_BITS * p * (1 - p))
        assert abs(errors - THEORY_BITS * p) <= 4 * sigma, (errors, THEORY_BITS * p)
