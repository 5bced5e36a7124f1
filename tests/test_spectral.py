import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radsim import spectral
from radsim.errors import ParameterError, ParseError, RadsimError, ShapeError
from radsim.signals import SampledSignal, sidecar_path
from radsim.spectral import (Spectrogram, Spectrum, fft_magnitude, find_peaks, read_spectrum,
                             stft, write_peaks_csv, write_spectrum, write_spectrum_csv)
from reference import bin_frequencies, frame_times, parseval_energy


def reference_find_peaks(spectrum, relative_threshold, min_separation):
    """Per-bin scan and greedy O(K * kept) thinning, as plain loops.

    find_peaks must return exactly these peaks on spectra without equal
    neighbouring bins (where its plateau rule and this ">=" rule agree).
    """
    m = spectrum.magnitudes
    freqs = bin_frequencies(spectrum)
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
    freqs = bin_frequencies(spectrum).tolist()
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
                 for f, v in zip(bin_frequencies(spectrum), spectrum.magnitudes))
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
        assert bin_frequencies(spectrum)[k] == 100.0
        assert spectrum.magnitudes[k] == pytest.approx(3.0, abs=1e-9)
        others = np.delete(spectrum.magnitudes, k)
        assert others.max() / 3.0 < 1e-9

    def test_zero_signal_zero_spectrum(self):
        spectrum = fft_magnitude(SampledSignal(100.0, np.zeros(64)))
        assert np.all(spectrum.magnitudes == 0.0)

    def test_too_short(self):
        with pytest.raises(ShapeError):
            fft_magnitude(SampledSignal(100.0, np.ones(1)))

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
        assert np.array_equal(spectral._bin_frequencies(np.arange(5), spectrum),
                              np.fft.rfftfreq(9, d=1.0 / 44100.0))
        assert spectrum.bin_width == 44100.0 / 9

    def test_bin_frequencies_are_rfftfreq_byte_for_byte(self):
        # Frequencies are derived where they are read, by rfftfreq's own arithmetic.
        for fft_size in [*range(2, 70), 127, 1000, 4095, 4096, 98304]:
            for rate in (1.0, 7.0, 1000.0, 44100.0 / 3.0, 48000.0, 96000.0, 0.1, 1e6, 12345.678):
                spectrum = Spectrum(np.zeros(fft_size // 2 + 1), rate, fft_size)
                expected = np.fft.rfftfreq(fft_size, d=1.0 / rate)
                got = spectral._bin_frequencies(np.arange(fft_size // 2 + 1), spectrum)
                assert got.tobytes() == expected.tobytes()

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
        # A spectrogram of 3 frames, these bins first, is checked as a spectrum is.
        for cls, grid, shape in ((Spectrum, (100.0, 8), (5,)), (Spectrogram, (100.0,), (3, 129))):
            padded = np.pad(mags, (0, shape[-1] - len(mags)))
            with pytest.raises(ParameterError, match=f"^magnitudes must be {message}$"):
                cls(np.broadcast_to(padded, shape), *grid)

    def test_magnitudes_are_read_only(self):
        for cls, grid, shape in ((Spectrum, (100.0, 8), (5,)), (Spectrogram, (100.0,), (3, 129))):
            mags = np.linspace(0.0, 1.0, math.prod(shape)).reshape(shape)
            spectrum = cls(mags, *grid)
            with pytest.raises(ValueError, match="read-only"):
                spectrum.magnitudes[0] = 2.0
            with pytest.raises(ValueError, match="read-only"):
                spectrum.magnitudes *= 2.0
            assert mags.flags.writeable  # the caller's array is left as it was
            assert np.array_equal(spectrum.magnitudes,
                                  np.linspace(0.0, 1.0, math.prod(shape)).reshape(shape))


def taper(window, window_length):
    """The framer's taper for a window name: hann's, or none for a rectangular window."""
    return np.hanning(window_length) if window == "hann" else None


def framed(samples, window_length, hop, window):
    """One-sided magnitudes of every frame: the STFT's arithmetic on any grid."""
    mags = spectral._frame_magnitudes(samples, window_length, hop, taper(window, window_length))
    spectral._one_sided_magnitudes(mags, window_length)
    return mags


class TestStft:
    def test_stationary_tone_constant_argmax(self):
        gram = stft(cosine(1000.0, 8000.0, 4096))
        argmaxes = gram.magnitudes.argmax(axis=1)
        assert np.all(argmaxes == argmaxes[0])

    def test_fsk_run_boundary_visible(self):
        from radsim.codec import BitStream
        from radsim.modulation import CarrierSpec, fsk_modulate
        spec = CarrierSpec(2000.0, 1.0, 0.0, 48000.0)
        bits = BitStream(np.array([0] * 32 + [1] * 32, dtype=np.uint8), 250.0)
        gram = stft(fsk_modulate(bits, spec))
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

    # The framer's two grids: every STFT's, and a library's rectangular blocks
    # at a power-of-two fft_size (256 here).
    @pytest.mark.parametrize("window_length, hop, window", [
        (256, 128, "hann"), (256, 256, "rectangular")])
    def test_strided_samples_match_a_copy(self, window_length, hop, window):
        samples = np.random.default_rng(9).standard_normal(2 * 5000)[::2]
        grams = [spectral._frame_magnitudes(s, window_length, hop, taper(window, window_length))
                 for s in (samples, samples.copy())]
        assert grams[0].tobytes() == grams[1].tobytes()

    def test_rectangular_disjoint_blocks_match_fft(self):
        rng = np.random.default_rng(8)
        sig = SampledSignal(1000.0, rng.standard_normal(1024))
        gram = framed(sig.samples, 256, 256, "rectangular")
        assert gram.shape[0] == 4
        for i in range(4):
            block = SampledSignal(1000.0, sig.samples[i * 256:(i + 1) * 256])
            assert np.array_equal(gram[i], fft_magnitude(block).magnitudes)

    def test_frame_count(self):
        sig = SampledSignal(100.0, np.zeros(1000))
        gram = stft(sig)
        assert gram.magnitudes.shape[0] == (1000 - 256) // 128 + 1

    @pytest.mark.parametrize("window_length, hop, window", [
        (256, 128, "hann"), (256, 256, "rectangular")], ids=["256-128", "256-256-rectangular"])
    def test_blocks_match_one_transform(self, window_length, hop, window):
        samples = np.random.default_rng(hop).standard_normal(300_000)
        frames = np.lib.stride_tricks.sliding_window_view(samples, window_length)[::hop]
        if window == "hann":
            frames = frames * np.hanning(window_length)
        transform = np.abs(np.fft.rfft(frames, axis=1)) / window_length
        transform[:, 1:(window_length + 1) // 2] *= 2.0
        assert len(frames) > 2 * spectral._STFT_BLOCK_FRAMES
        assert np.array_equal(framed(samples, window_length, hop, window), transform)
        if window == "hann":
            assert np.array_equal(stft(SampledSignal(8000.0, samples)).magnitudes, transform)

    @pytest.mark.parametrize("window_length, hop, window", [
        (256, 128, "hann"), (256, 256, "rectangular")], ids=["hann", "rectangular"])
    def test_memory_is_one_block_beyond_the_output(self, traced_peak, window_length, hop, window):
        samples = np.random.default_rng(4).standard_normal(2048 * 192)
        frames = (len(samples) - window_length) // hop + 1
        assert frames > 2 * spectral._STFT_BLOCK_FRAMES
        bins = window_length // 2 + 1
        output = frames * bins * 8
        # Per block: the tapered frames (float64), if the window tapers, and their
        # rfft (complex128).
        tapered = window_length * 8 if window == "hann" else 0
        workspace = spectral._STFT_BLOCK_FRAMES * (tapered + bins * 16)
        window_taper = taper(window, window_length)
        peak = traced_peak(lambda: spectral._frame_magnitudes(samples, window_length, hop,
                                                              window_taper))
        assert peak <= output + workspace + 64 * 1024  # 64 KiB: the taper
        if window == "hann":
            peak = traced_peak(lambda: stft(SampledSignal(48000.0, samples)))
            assert peak <= output + workspace + 64 * 1024

    def test_window_longer_than_signal(self):
        with pytest.raises(ShapeError, match="^window_length 256 exceeds signal length 255$"):
            stft(SampledSignal(100.0, np.zeros(255)))


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
        for threshold in (0.0, 2.0, True):  # the floor is a fraction in (0, 1], never a bool
            with pytest.raises(ParameterError, match="^relative_threshold must be"):
                find_peaks(spectrum, relative_threshold=threshold)

    @pytest.mark.parametrize("separation", [-1.0, float("nan"), True])
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

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 3)),
                    min_size=20, max_size=150),
           st.booleans(), st.floats(0.0, 1.0, exclude_min=True),
           st.sampled_from([0.0, 1.0, 3.0, 0.05, 0.2, 0.5]), st.integers(1, 8))
    def test_limit_keeps_the_strongest_of_the_unlimited(self, runs, strongest_first, threshold,
                                                       spacing, limit):
        # 20 to 150 peaks on six levels, each after a gap of zeros and one to
        # three bins wide: ties at every level, and plateaus. Separations of
        # 1 or 3 bins, or of up to half the spectrum, reject most of the
        # strongest candidates, above all when they come first, close
        # together: then the first window keeps fewer than ``limit`` peaks and
        # must widen.
        if strongest_first:
            runs = sorted(runs, key=lambda run: -run[1])
        values = [v for gap, level, width in runs for v in [0] * gap + [level] * width] + [0]
        separation = spacing if spacing >= 1 else spacing * len(values)
        fft_size = 2 * (len(values) - 1)
        spectrum = Spectrum(np.array(values, dtype=float), float(fft_size), fft_size)
        unlimited = find_peaks(spectrum, threshold, separation)
        limited = find_peaks(spectrum, threshold, separation, limit=limit)
        assert ([(p.frequency, p.magnitude, p.bin_index) for p in limited]
                == strongest([(p.frequency, p.magnitude, p.bin_index) for p in unlimited], limit))

    def test_window_widens_past_thinned_candidates(self):
        # Twelve strong peaks 2 Hz apart, then a weak one at 50 Hz: 30 Hz apart,
        # only the strongest of the twelve survives, so the second peak lies
        # beyond the first 4 * 2 candidates.
        mags = np.zeros(61)
        mags[2:26:2] = 1.0 - 0.01 * np.arange(12)
        mags[50] = 0.5
        spectrum = Spectrum(mags, sample_rate=120.0, fft_size=120)  # 1 Hz bins
        assert spectral._PEAK_WINDOW * 2 < 12
        peaks = find_peaks(spectrum, relative_threshold=0.1, min_separation=30.0, limit=2)
        assert [p.bin_index for p in peaks] == [2, 50]

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
        assert np.array_equal(bin_frequencies(again), bin_frequencies(spectrum))
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
        assert np.array_equal(bin_frequencies(again), bin_frequencies(spectrum))
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


class TestSpectrumFile:
    def test_stft_file_states_the_grid(self, tmp_path):
        gram = stft(SampledSignal(44100.0 / 3.0, np.random.default_rng(256).standard_normal(2000)))
        path = tmp_path / "gram.f64"
        write_spectrum(gram, path)
        assert path.read_bytes() == gram.magnitudes.astype("<f8").tobytes()
        assert json.loads(sidecar_path(path).read_text()) == {
            "format": "f64le", "shape": [14, 129], "sample_rate": 44100.0 / 3.0,
            "window_length": 256, "hop": 128, "window": "hann"}

    @pytest.mark.parametrize("corrupt, error", [
        (lambda path, meta: path.write_bytes(path.read_bytes()[:-8]), ParseError),
        (lambda path, meta: meta.__setitem__("shape", [meta["shape"][0] + 1]), ParseError),
        (lambda path, meta: meta.pop("shape"), ParseError),
        (lambda path, meta: meta.__setitem__("format", "f32be"), ParseError),
        (lambda path, meta: path.write_bytes(path.read_bytes()[:-8]
                                             + np.array([np.nan], "<f8").tobytes()),
         ParameterError),
        (lambda path, meta: path.write_bytes(path.read_bytes()[:-8]
                                             + np.array([-1.0], "<f8").tobytes()),
         ParameterError),
    ], ids=["truncated", "shape-too-big", "missing-shape", "unknown-format",
            "nan-magnitude", "negative-magnitude"])
    def test_bad_file_is_parse_error(self, tmp_path, corrupt, error):
        path = tmp_path / "spectrum.f64"
        write_spectrum(fft_magnitude(cosine(100.0, 1000.0, 2000)), path)
        meta = json.loads(sidecar_path(path).read_text())
        corrupt(path, meta)
        sidecar_path(path).write_text(json.dumps(meta))
        with pytest.raises(error) as caught:
            read_spectrum(path)
        assert "\n" not in str(caught.value)
        assert str(path) in str(caught.value)

    # Errors that the grid and magnitudes raise as a Spectrum is built name the file too.
    @pytest.mark.parametrize("edit, message", [
        ({"sample_rate": True}, "sample_rate must be a finite number > 0, got True"),
        ({"fft_size": 4.0}, "fft_size must be an integer >= 2, got 4.0"),
        ({"fft_size": 2}, r"magnitudes must have shape \(2,\) for fft_size 2"),
    ], ids=["rate-true", "float-fft-size", "shape-off-the-grid"])
    def test_grid_error_names_the_file(self, tmp_path, edit, message):
        path = tmp_path / "spectrum.f64"
        write_spectrum(Spectrum(np.ones(3), 100.0, 4), path)
        meta = json.loads(sidecar_path(path).read_text())
        sidecar_path(path).write_text(json.dumps(meta | edit))
        with pytest.raises(RadsimError, match=f"^{re.escape(str(path))}: {message}"):
            read_spectrum(path)
