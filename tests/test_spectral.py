import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radsim import spectral
from radsim.errors import ParameterError, ParseError, ShapeError
from radsim.signals import SampledSignal, sidecar_path
from radsim.spectral import (Spectrogram, Spectrum, fft_magnitude, find_peaks, read_spectrogram,
                             read_spectrum, stft, write_peaks_csv, write_spectrum,
                             write_spectrum_csv)
from reference import frame_times, parseval_energy


def reference_find_peaks(spectrum, relative_threshold, min_separation):
    """Per-bin scan and greedy O(K * kept) thinning, as plain loops.

    find_peaks must return exactly these peaks on spectra without equal
    neighbouring bins (where its plateau rule and this ">=" rule agree).
    """
    m = spectrum.magnitudes
    freqs = spectrum.bin_frequencies
    peak_floor = relative_threshold * float(m.max())
    if peak_floor <= 0.0:
        return []
    candidates = [k for k in range(m.size)
                  if m[k] >= peak_floor
                  and (k == 0 or m[k] >= m[k - 1])
                  and (k == m.size - 1 or m[k] >= m[k + 1])]
    candidates.sort(key=lambda k: (-m[k], freqs[k]))
    kept = []
    for k in candidates:
        if all(abs(freqs[k] - freqs[j]) >= min_separation for j in kept):
            kept.append(k)
    kept.sort()
    return [(float(freqs[k]), float(m[k]), int(k)) for k in kept]


def reference_run_peaks(spectrum, relative_threshold, min_separation):
    """find_peaks by its definition, bin by bin, plateaus included.

    A maximal run of equal magnitudes whose outside neighbours are both
    lower (a missing one at an edge counts as lower) and that lies at or
    above the floor is one candidate, at its lowest bin. Candidates are kept
    from the strongest down, ties toward lower frequency, when no kept peak
    lies closer than min_separation.
    """
    m = spectrum.magnitudes.tolist()
    freqs = spectrum.bin_frequencies.tolist()
    peak_floor = relative_threshold * max(m)
    if peak_floor <= 0.0:
        return []
    candidates = []
    start = 0
    while start < len(m):
        end = start
        while end + 1 < len(m) and m[end + 1] == m[start]:
            end += 1
        left = m[start - 1] if start > 0 else -math.inf
        right = m[end + 1] if end + 1 < len(m) else -math.inf
        if left < m[start] > right and m[start] >= peak_floor:
            candidates.append(start)
        start = end + 1
    candidates.sort(key=lambda k: (-m[k], freqs[k]))
    kept = []
    for k in candidates:
        if all(abs(freqs[k] - freqs[j]) >= min_separation for j in kept):
            kept.append(k)
    return [(freqs[k], m[k], k) for k in sorted(kept)]


def strongest(peaks, limit):
    """The ``limit`` strongest of (frequency, magnitude, bin) peaks, ties toward
    lower frequency, sorted back by frequency."""
    return sorted(sorted(peaks, key=lambda p: (-p[1], p[0]))[:limit])


def reference_write_spectrum_csv(spectrum, path):
    """The whole file as one string, as write_spectrum_csv wrote it before it streamed."""
    lines = [
        f"# fft_size={spectrum.fft_size}",
        f"# sample_rate={float(spectrum.sample_rate)!r}",
        "frequency_hz,magnitude",
    ]
    lines.extend(f"{float(f)!r},{float(v)!r}"
                 for f, v in zip(spectrum.bin_frequencies, spectrum.magnitudes))
    Path(path).write_text("\n".join(lines) + "\n")


# Rows per write of the spectrum CSV.
SPECTRUM_CHUNK = spectral._CSV_CHUNK_ROWS


def cosine(freq, rate, n, amplitude=1.0):
    t = np.arange(n) / rate
    return SampledSignal(rate, amplitude * np.cos(2 * np.pi * freq * t))


class TestFftMagnitude:
    def test_bin_aligned_cosine_peak_is_amplitude(self):
        # One-sided doubling + 1/N scaling: a bin-aligned cosine of amplitude
        # A lands a single interior peak of magnitude A.
        spectrum = fft_magnitude(cosine(100.0, 1000.0, 1000, amplitude=3.0))
        k = int(np.argmax(spectrum.magnitudes))
        assert spectrum.bin_frequencies[k] == 100.0
        assert spectrum.magnitudes[k] == pytest.approx(3.0, abs=1e-9)
        others = np.delete(spectrum.magnitudes, k)
        assert others.max() / 3.0 < 1e-9

    def test_zero_signal_zero_spectrum(self):
        spectrum = fft_magnitude(SampledSignal(100.0, np.zeros(64)))
        assert np.all(spectrum.magnitudes == 0.0)

    def test_too_short(self):
        with pytest.raises(ShapeError):
            fft_magnitude(SampledSignal(100.0, np.ones(1)))

    def test_fft_size_must_be_power_of_two(self):
        with pytest.raises(ParameterError):
            fft_magnitude(SampledSignal(100.0, np.ones(64)), fft_size=48)

    def test_explicit_fft_size_zero_pads(self):
        spectrum = fft_magnitude(SampledSignal(100.0, np.ones(40)), fft_size=64)
        assert spectrum.fft_size == 64
        assert spectrum.magnitudes.size == 33

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 2000), st.integers(0, 2 ** 31))
    def test_parseval(self, n, seed):
        rng = np.random.default_rng(seed)
        sig = SampledSignal(1234.0, rng.standard_normal(n))
        spectrum = fft_magnitude(sig)
        energy = float(np.sum(sig.samples ** 2))
        if energy > 0:
            assert abs(parseval_energy(spectrum) - energy) / energy < 1e-9

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(512)
        a = fft_magnitude(SampledSignal(100.0, x)).magnitudes
        b = fft_magnitude(SampledSignal(100.0, np.roll(x, 137))).magnitudes
        assert np.max(np.abs(a - b)) / a.max() < 1e-9

    def test_linearity_in_scale(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(256)
        a = fft_magnitude(SampledSignal(100.0, x)).magnitudes
        b = fft_magnitude(SampledSignal(100.0, 7.5 * x)).magnitudes
        assert np.allclose(b, 7.5 * a, rtol=1e-12, atol=1e-12)


class TestSpectrum:
    def test_bins_derive_from_the_grid(self):
        spectrum = Spectrum(np.zeros(5), sample_rate=44100.0, fft_size=9)
        assert np.array_equal(spectrum.bin_frequencies, np.fft.rfftfreq(9, d=1.0 / 44100.0))
        assert spectrum.bin_width == 44100.0 / 9

    def test_bin_frequencies_are_rfftfreq_byte_for_byte(self):
        # Frequencies are derived where they are read, by rfftfreq's own arithmetic.
        for fft_size in [*range(2, 70), 127, 1000, 4095, 4096, 98304]:
            for rate in (1.0, 7.0, 1000.0, 44100.0 / 3.0, 48000.0, 96000.0, 0.1, 1e6, 12345.678):
                spectrum = Spectrum(np.zeros(fft_size // 2 + 1), rate, fft_size)
                expected = np.fft.rfftfreq(fft_size, d=1.0 / rate)
                assert spectrum.bin_frequencies.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mags, rate, fft_size, error", [
        (np.zeros(4), 100.0, 8, ShapeError),
        (np.zeros((2, 5)), 100.0, 8, ShapeError),
        (np.zeros(5), 100.0, 8.0, ParameterError),
        (np.zeros(1), 100.0, 1, ParameterError),
        (np.zeros(5), float("nan"), 8, ParameterError),
        (np.zeros(5), 0.0, 8, ParameterError),
        (np.array([0.0, 1.0, np.inf, 0.0, 0.0]), 100.0, 8, ParameterError),
        (np.array([0.0, -1.0, 0.0, 0.0, 0.0]), 100.0, 8, ParameterError),
    ], ids=["short", "matrix", "float-fft-size", "fft-size-1", "nan-rate", "zero-rate",
            "inf-magnitude", "negative-magnitude"])
    def test_bad_spectrum_rejected(self, mags, rate, fft_size, error):
        with pytest.raises(error):
            Spectrum(mags, rate, fft_size)

    @pytest.mark.parametrize("mags, message", [
        ([0.0, 1.0, np.nan, 0.0, 0.0], "finite"),
        ([0.0, 1.0, np.inf, 0.0, 0.0], "finite"),
        ([0.0, -np.inf, 1.0, 0.0, 0.0], "finite"),
        ([0.0, -1.0, np.nan, 0.0, 0.0], "finite"),
        ([0.0, 1.0, -1e-300, 0.0, 0.0], "nonnegative"),
    ], ids=["nan", "inf", "minus-inf", "negative-and-nan", "negative"])
    def test_bad_magnitude_message(self, mags, message):
        # A spectrogram of 3 frames with these bins is checked as a spectrum is.
        for cls, grid, shape in ((Spectrum, (100.0, 8), (5,)),
                                 (Spectrogram, (100.0, 8, 4), (3, 5))):
            with pytest.raises(ParameterError, match=f"^magnitudes must be {message}$"):
                cls(np.broadcast_to(mags, shape), *grid)

    def test_magnitudes_are_read_only(self):
        for cls, grid, shape in ((Spectrum, (100.0, 8), (5,)),
                                 (Spectrogram, (100.0, 8, 4), (3, 5))):
            mags = np.linspace(0.0, 1.0, math.prod(shape)).reshape(shape)
            spectrum = cls(mags, *grid)
            with pytest.raises(ValueError, match="read-only"):
                spectrum.magnitudes[0] = 2.0
            with pytest.raises(ValueError, match="read-only"):
                spectrum.magnitudes *= 2.0
            assert mags.flags.writeable  # the caller's array is left as it was
            assert np.array_equal(spectrum.magnitudes,
                                  np.linspace(0.0, 1.0, math.prod(shape)).reshape(shape))


class TestStft:
    def test_stationary_tone_constant_argmax(self):
        gram = stft(cosine(1000.0, 8000.0, 4096), window_length=256, hop=128)
        argmaxes = gram.magnitudes.argmax(axis=1)
        assert np.all(argmaxes == argmaxes[0])

    def test_fsk_run_boundary_visible(self):
        from radsim.codec import BitStream
        from radsim.modulation import CarrierSpec, fsk_modulate
        spec = CarrierSpec(2000.0, 1.0, 0.0, 48000.0)
        bits = BitStream(np.array([0] * 32 + [1] * 32, dtype=np.uint8), 250.0)
        gram = stft(fsk_modulate(bits, spec), window_length=256, hop=128)
        argmaxes = gram.magnitudes.argmax(axis=1)
        boundary = 32 / 250.0
        window_seconds = 256 / 48000.0
        pre = argmaxes[frame_times(gram) < boundary - window_seconds]
        post = argmaxes[frame_times(gram) > boundary + window_seconds]
        freqs = np.fft.rfftfreq(gram.window_length, d=1.0 / gram.sample_rate)
        f0_bin = int(np.argmin(np.abs(freqs - 1875.0)))
        f1_bin = int(np.argmin(np.abs(freqs - 2125.0)))
        assert np.all(pre == f0_bin)
        assert np.all(post == f1_bin)

    @pytest.mark.parametrize("window_length, hop, window", [
        (256, 256, "rectangular"), (256, 100, "rectangular"), (256, 128, "hann")])
    def test_strided_samples_match_a_copy(self, window_length, hop, window):
        samples = np.random.default_rng(9).standard_normal(2 * 5000)[::2]
        grams = [stft(SampledSignal(1000.0, s), window_length, hop, window)
                 for s in (samples, samples.copy())]
        assert grams[0].magnitudes.tobytes() == grams[1].magnitudes.tobytes()

    def test_rectangular_disjoint_blocks_match_fft(self):
        rng = np.random.default_rng(8)
        sig = SampledSignal(1000.0, rng.standard_normal(1024))
        gram = stft(sig, window_length=256, hop=256, window="rectangular")
        assert gram.magnitudes.shape[0] == 4
        for i in range(4):
            block = SampledSignal(1000.0, sig.samples[i * 256:(i + 1) * 256])
            assert np.array_equal(gram.magnitudes[i], fft_magnitude(block).magnitudes)

    def test_frame_count(self):
        sig = SampledSignal(100.0, np.zeros(1000))
        gram = stft(sig, window_length=100, hop=30)
        assert gram.magnitudes.shape[0] == (1000 - 100) // 30 + 1

    @pytest.mark.parametrize("window_length, hop", [(256, 128), (100, 7)])
    def test_blocks_match_one_transform(self, window_length, hop):
        signal = SampledSignal(8000.0, np.random.default_rng(hop).standard_normal(200_000))
        taper = np.hanning(window_length)
        frames = np.lib.stride_tricks.sliding_window_view(signal.samples, window_length)[::hop]
        transform = np.abs(np.fft.rfft(frames * taper, axis=1)) / window_length
        transform[:, 1:(window_length + 1) // 2] *= 2.0
        assert len(frames) > 2 * spectral._STFT_BLOCK_FRAMES
        assert np.array_equal(stft(signal, window_length, hop).magnitudes, transform)

    @pytest.mark.parametrize("window", ["hann", "rectangular"])
    def test_memory_is_one_block_beyond_the_output(self, traced_peak, window):
        window_length, hop = 256, 128
        signal = SampledSignal(48000.0, np.random.default_rng(4).standard_normal(1024 * 192))
        frames = (len(signal) - window_length) // hop + 1
        assert frames > 2 * spectral._STFT_BLOCK_FRAMES
        bins = window_length // 2 + 1
        output = frames * bins * 8
        # Per block: the tapered frames (float64), if the window tapers, and their
        # rfft (complex128).
        tapered = window_length * 8 if window == "hann" else 0
        workspace = spectral._STFT_BLOCK_FRAMES * (tapered + bins * 16)
        peak = traced_peak(lambda: stft(signal, window_length, hop, window))
        assert peak <= output + workspace + 64 * 1024  # 64 KiB: taper and frame times

    def test_window_longer_than_signal(self):
        with pytest.raises(ShapeError):
            stft(SampledSignal(100.0, np.zeros(64)), window_length=128, hop=16)

    def test_unknown_window(self):
        with pytest.raises(ParameterError):
            stft(SampledSignal(100.0, np.zeros(64)), window_length=32, hop=16, window="kaiser")

    def test_grid_far_larger_than_the_signal(self):
        # 1001 frames x 501 bins: 250 magnitudes per sample, above the bound of 64.
        with pytest.raises(ShapeError, match="exceed 64 magnitudes per sample of the 2000-sample"):
            stft(SampledSignal(100.0, np.zeros(2000)), window_length=1000, hop=1)


class TestFindPeaks:
    def test_pure_tone_single_peak(self):
        spectrum = fft_magnitude(cosine(100.0, 1000.0, 1000))
        peaks = find_peaks(spectrum, relative_threshold=0.1, min_separation=10.0)
        assert len(peaks) == 1
        assert peaks[0].frequency == 100.0

    def test_zero_spectrum_no_peaks(self):
        spectrum = fft_magnitude(SampledSignal(100.0, np.zeros(64)))
        assert find_peaks(spectrum) == []

    def test_threshold_validated(self):
        spectrum = fft_magnitude(cosine(10.0, 100.0, 100))
        with pytest.raises(ParameterError):
            find_peaks(spectrum, relative_threshold=0.0)

    @pytest.mark.parametrize("separation", [-1.0, float("nan")])
    def test_min_separation_validated(self, separation):
        spectrum = fft_magnitude(cosine(10.0, 100.0, 100))
        with pytest.raises(ParameterError):
            find_peaks(spectrum, min_separation=separation)

    def test_three_peak_composition(self):
        from radsim.codec import random_payload
        from radsim.modulation import CarrierSpec, compose_emitted, fsk_modulate, generate_carrier
        spec = CarrierSpec(2000.0, 1.0, 0.0, 48000.0)
        payload = random_payload(0, 64, 250.0)
        modulated = fsk_modulate(payload, spec)
        carrier = generate_carrier(spec, len(modulated) / spec.sample_rate)
        spectrum = fft_magnitude(compose_emitted(carrier, modulated))
        peaks = find_peaks(spectrum, relative_threshold=0.1, min_separation=125.0)
        assert [p.frequency for p in peaks] == [1875.0, 2000.0, 2125.0]

    def test_min_separation_thins_to_strongest(self):
        mags = np.array([0.0, 1.0, 0.0, 0.9, 0.0, 0.0, 0.0, 0.8, 0.0, 0.0])
        spectrum = Spectrum(mags, sample_rate=18.0, fft_size=18)  # 1 Hz bins
        peaks = find_peaks(spectrum, relative_threshold=0.5, min_separation=3.0)
        assert [p.frequency for p in peaks] == [1.0, 7.0]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 600), st.floats(1.0, 10000.0), st.integers(0, 2 ** 31),
           st.sampled_from([1e-6, 0.05, 0.1, 0.5, 1.0]),
           st.sampled_from([0.0, 0.5, 1.0, 3.7, 25.0, 1e9]))
    def test_matches_reference_loop(self, fft_size, rate, seed, threshold, separation):
        # The rate sets the bin width, so separations span from many bins to
        # a fraction of one.
        rng = np.random.default_rng(seed)
        mags = rng.random(fft_size // 2 + 1) ** 3
        assert np.all(np.diff(mags) != 0)  # plateau-free: both rules agree
        spectrum = Spectrum(mags, rate, fft_size)
        peaks = find_peaks(spectrum, threshold, separation)
        assert ([(p.frequency, p.magnitude, p.bin_index) for p in peaks]
                == reference_find_peaks(spectrum, threshold, separation))

    @pytest.mark.parametrize("mags, bins", [
        ([0.0, 1.0, 1.0, 1.0, 0.0], [1]),
        ([0.0, 1.0, 1.0, 2.0, 0.0], [3]),
        ([2.0, 2.0, 1.0, 3.0, 3.0], [0, 3]),
        ([1.0, 1.0, 1.0], [0]),
        ([0.0, 2.0, 0.0, 1.0, 1.0, 0.0, 3.0, 0.0], [1, 3, 6]),
    ], ids=["plateau", "shoulder", "edge-plateaus", "flat", "one-plateau-among-peaks"])
    def test_plateau_is_one_peak_at_its_lowest_bin(self, mags, bins):
        spectrum = Spectrum(mags, sample_rate=8.0, fft_size=2 * (len(mags) - 1))
        peaks = find_peaks(spectrum, relative_threshold=0.1, min_separation=0.0)
        assert [p.bin_index for p in peaks] == bins

    def test_plateau_free_spectrum_builds_no_run_end_index(self, traced_peak):
        # 24 577 bins of white noise and no plateau: an index of every run's
        # end (int64 per bin, about 0.2 MB) would lift the peak to about 1.2 MB.
        signal = SampledSignal(48000.0, np.random.default_rng(5).standard_normal(49152))
        spectrum = fft_magnitude(signal)
        assert np.all(np.diff(spectrum.magnitudes) != 0)
        peak = traced_peak(lambda: find_peaks(spectrum, 0.05, 4 * spectrum.bin_width, limit=5))
        assert peak < 1.05e6

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=2, max_size=40), st.booleans(),
           st.floats(0.0, 1.0, exclude_min=True),
           st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 7.5, 1e9]),
           st.integers(1, 6))
    def test_matches_run_reference_with_plateaus(self, values, odd, threshold, separation,
                                                 limit):
        # Few distinct integer levels make plateaus, shoulders and equal
        # peaks common; the rate equals fft_size, so bins are 1 Hz apart.
        fft_size = 2 * len(values) - 1 if odd else 2 * (len(values) - 1)
        spectrum = Spectrum(np.array(values, dtype=float), float(fft_size), fft_size)
        reference = reference_run_peaks(spectrum, threshold, separation)
        peaks = find_peaks(spectrum, threshold, separation)
        assert [(p.frequency, p.magnitude, p.bin_index) for p in peaks] == reference
        limited = find_peaks(spectrum, threshold, separation, limit=limit)
        assert ([(p.frequency, p.magnitude, p.bin_index) for p in limited]
                == strongest(reference, limit))

    @pytest.mark.parametrize("limit", [0, -1, True, 2.5, "5"])
    def test_limit_validated(self, limit):
        spectrum = fft_magnitude(cosine(10.0, 100.0, 100))
        with pytest.raises(ParameterError):
            find_peaks(spectrum, limit=limit)

    def test_tie_breaks_toward_lower_frequency(self):
        mags = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        spectrum = Spectrum(mags, sample_rate=14.0, fft_size=14)  # 1 Hz bins
        peaks = find_peaks(spectrum, relative_threshold=0.5, min_separation=5.0)
        assert [p.frequency for p in peaks] == [2.0]


class TestCsvFormats:
    def test_spectrum_round_trip(self, tmp_path):
        spectrum = fft_magnitude(cosine(100.0, 1000.0, 777))
        path = tmp_path / "spectrum.f64"
        write_spectrum(spectrum, path)
        again = read_spectrum(path)
        assert again.fft_size == spectrum.fft_size
        assert again.sample_rate == spectrum.sample_rate
        assert np.array_equal(again.bin_frequencies, spectrum.bin_frequencies)
        assert np.array_equal(again.magnitudes, spectrum.magnitudes)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3000), st.floats(1.0, 1e6), st.integers(0, 2 ** 31))
    @example(145, 44100.0 / 3.0, 0)
    def test_spectrum_round_trip_keeps_the_signal_rate(self, tmp_path_factory, n, rate, seed):
        # e.g. 145 samples at 44.1 kHz: bin_width * fft_size != sample_rate.
        signal = SampledSignal(rate, np.random.default_rng(seed).standard_normal(n))
        spectrum = fft_magnitude(signal)
        path = tmp_path_factory.mktemp("spectrum") / "spectrum.f64"
        write_spectrum(spectrum, path)
        again = read_spectrum(path)
        assert again.sample_rate == rate
        assert again.fft_size == n
        assert np.array_equal(again.bin_frequencies, spectrum.bin_frequencies)
        assert np.array_equal(again.magnitudes, spectrum.magnitudes)

    @pytest.mark.parametrize("rows", [2, SPECTRUM_CHUNK - 1, SPECTRUM_CHUNK, SPECTRUM_CHUNK + 1,
                                      2 * SPECTRUM_CHUNK + 1])
    def test_streamed_spectrum_matches_one_string(self, tmp_path, rows):
        mags = np.random.default_rng(rows).random(rows) * 10.0 ** np.linspace(-150, 150, rows)
        spectrum = Spectrum(mags, 44100.0 / 3.0, 2 * (rows - 1))
        write_spectrum_csv(spectrum, tmp_path / "streamed.csv")
        reference_write_spectrum_csv(spectrum, tmp_path / "expected.csv")
        assert ((tmp_path / "streamed.csv").read_bytes()
                == (tmp_path / "expected.csv").read_bytes())

    def test_spectrum_writer_memory_is_bounded(self, tmp_path, traced_peak):
        signal = SampledSignal(48000.0, np.random.default_rng(3).standard_normal(2 ** 18))
        spectrum = fft_magnitude(signal)
        # The 131073 rows take 5 MB as one string; a chunk of rows, under 1 MB.
        assert traced_peak(lambda: write_spectrum_csv(spectrum, tmp_path / "s.csv")) < 2e6

    def test_peaks_round_trip(self, tmp_path):
        spectrum = fft_magnitude(cosine(100.0, 1000.0, 1000, amplitude=2.0))
        peaks = find_peaks(spectrum, 0.1, 10.0)
        path = tmp_path / "peaks.csv"
        write_peaks_csv(peaks, path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert [(f, v, int(k)) for f, v, k in rows.tolist()] == [
            (p.frequency, p.magnitude, p.bin_index) for p in peaks]


class TestSpectrogramFile:
    @staticmethod
    def assert_same(again, gram):
        for name in ("sample_rate", "window_length", "hop", "window"):
            assert getattr(again, name) == getattr(gram, name)
        assert np.array_equal(again.magnitudes, gram.magnitudes)

    @pytest.mark.parametrize("window_length, hop, window", [
        (127, 50, "hann"),
        (128, 64, "rectangular"),
    ], ids=["odd-window", "rectangular"])
    def test_round_trip_equals_stft(self, tmp_path, window_length, hop, window):
        rng = np.random.default_rng(window_length)
        gram = stft(SampledSignal(1000.0, rng.standard_normal(2000)), window_length, hop, window)
        path = tmp_path / "gram.f64"
        write_spectrum(gram, path)
        self.assert_same(read_spectrogram(path), gram)

    def test_reads_a_sidecar_with_a_start_time(self, tmp_path):
        # Older sidecars also hold "start_time": 0.0 in the grid; the reader ignores it.
        rng = np.random.default_rng(256)
        gram = stft(SampledSignal(44100.0 / 3.0, rng.standard_normal(2000)), 256, 100)
        path = tmp_path / "gram.f64"
        write_spectrum(gram, path)
        meta = json.loads(sidecar_path(path).read_text())
        assert "start_time" not in meta
        sidecar_path(path).write_text(
            json.dumps(dict(meta, start_time=0.0), sort_keys=True, indent=2) + "\n")
        self.assert_same(read_spectrogram(path), gram)

    @pytest.mark.parametrize("corrupt, error", [
        (lambda path, meta: path.write_bytes(path.read_bytes()[:-8]), ParseError),
        (lambda path, meta: meta.__setitem__("shape", [meta["shape"][0] + 1, meta["shape"][1]]),
         ParseError),
        (lambda path, meta: meta.pop("hop"), ParseError),
        (lambda path, meta: meta.pop("shape"), ParseError),
        (lambda path, meta: meta.__setitem__("format", "f32be"), ParseError),
        (lambda path, meta: path.write_bytes(path.read_bytes()[:-8]
                                             + np.array([np.nan], "<f8").tobytes()),
         ParameterError),
        (lambda path, meta: path.write_bytes(path.read_bytes()[:-8]
                                             + np.array([-1.0], "<f8").tobytes()),
         ParameterError),
    ], ids=["truncated", "shape-too-big", "missing-hop", "missing-shape", "unknown-format",
            "nan-magnitude", "negative-magnitude"])
    def test_bad_file_is_parse_error(self, tmp_path, corrupt, error):
        path = tmp_path / "gram.f64"
        write_spectrum(stft(cosine(100.0, 1000.0, 2000), window_length=128, hop=64), path)
        meta = json.loads(sidecar_path(path).read_text())
        corrupt(path, meta)
        sidecar_path(path).write_text(json.dumps(meta))
        with pytest.raises(error) as caught:
            read_spectrogram(path)
        assert "\n" not in str(caught.value)
