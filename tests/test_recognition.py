import base64
import dataclasses
import errno
import json
import math
import pathlib

import numpy as np
import pytest

from radsim import recognition, spectral
from radsim.channel import ChannelParams, apply_channel
from radsim.codec import random_payload
from radsim.errors import ConfigurationError, ConflictError, ParameterError, ParseError, ShapeError
from radsim.modulation import CarrierSpec, ask_modulate, fsk_modulate, psk_modulate
from radsim.recognition import (UNKNOWN_LABEL, FeatureVector, SignatureLibrary, classify,
                                extract_features, library_add, library_load, library_save,
                                matching_spectrum, spectral_correlation)
from radsim.signals import SampledSignal
from radsim.spectral import Spectrum, fft_magnitude, find_peaks
from reference import as_version_1, bin_frequencies

SPEC = CarrierSpec(2000.0, 1.0, 0.0, 48000.0)
RATE = 250.0


def tone(freq=1000.0, rate=48000.0, n=48000, amplitude=1.0):
    t = np.arange(n) / rate
    return SampledSignal(rate, amplitude * np.cos(2 * np.pi * freq * t))


def white_noise(seed, n=49152, rate=48000.0):
    return SampledSignal(rate, np.random.default_rng(seed).standard_normal(n))


def template_signals(template_bits=1024):
    """(label, signal, metadata) of the three templates in ``small_library``."""
    return [(label, modulate(random_payload(seed, template_bits, RATE), SPEC),
             {"scheme": label, "payload_seed": str(seed)})
            for label, modulate, seed in (("fsk", fsk_modulate, 1000),
                                          ("psk", psk_modulate, 2000),
                                          ("ask", ask_modulate, 3000))]


def small_library(template_bits=1024):
    library = SignatureLibrary(fft_size=4096, sample_rate=48000.0)
    for label, signal, metadata in template_signals(template_bits):
        library = library_add(library, label, signal, metadata)
    return library


def pearson(a, b):
    """Pearson correlation of two magnitude arrays, centred and scaled from scratch."""
    da = a - a.mean()
    db = b - b.mean()
    return float(np.dot(da, db) / math.sqrt(float(np.dot(da, da)) * float(np.dot(db, db))))


def with_unlimited_peaks(features, signal):
    """``features`` with its dominant peaks taken from every peak ``find_peaks``
    keeps (strongest first, ties toward lower frequency, the first 5) and its
    crest factor from the largest absolute sample."""
    spectrum = fft_magnitude(signal)
    peaks = find_peaks(spectrum, 0.05, 4 * spectrum.bin_width)
    top = sorted(peaks, key=lambda p: (-p.magnitude, p.frequency))[:5]
    x = signal.samples
    return dataclasses.replace(
        features, crest_factor=float(np.max(np.abs(x)) / features.rms_power),
        dominant_peaks=tuple((p.frequency, p.magnitude / top[0].magnitude) for p in top))


def reference_features(signal):
    """(rms, centroid, bandwidth, entropy) by the textbook formulas, one temporary
    array per operation, entropy over the nonzero bins."""
    x = signal.samples
    spectrum = fft_magnitude(signal)
    mags, freqs = spectrum.magnitudes, bin_frequencies(spectrum)
    total = float(mags.sum())
    centroid = float((freqs * mags).sum() / total)
    bandwidth = float(np.sqrt(((freqs - centroid) ** 2 * mags).sum() / total))
    power = mags ** 2
    p = power / float(power.sum())
    nonzero = p[p > 0]
    entropy = float(-(nonzero * np.log(nonzero)).sum() / math.log(mags.size))
    return float(np.sqrt(np.mean(x ** 2))), centroid, bandwidth, min(max(entropy, 0.0), 1.0)


def with_zero_bin(seed, n=8192):
    """Integer-valued noise summing to zero, so its DC bin is exactly 0."""
    x = np.random.default_rng(seed).integers(-3, 4, n).astype(float)
    x[-1] = -x[:-1].sum()
    return SampledSignal(48000.0, x)


# Probes shaped like the benchmark's: 256-bit payloads at 250 bit/s on
# carriers from 1.5 to 12 kHz through a 15 dB channel, and 8192 samples of
# white noise.
MODULATORS = {"fsk": fsk_modulate, "psk": psk_modulate, "ask": ask_modulate}
PROBE_CARRIERS = (1500.0, 6000.0, 12000.0)


def tonal_probe(scheme, carrier):
    spec = CarrierSpec(carrier, 1.0, 0.0, 48000.0)
    seed = int(carrier) + sorted(MODULATORS).index(scheme)
    return apply_channel(MODULATORS[scheme](random_payload(seed, 256, RATE), spec),
                         ChannelParams(snr_db=15.0, seed=seed))


def features_one_temporary_per_operation(signal):
    """``extract_features`` as written before it reused work buffers, peaks left out."""
    x = signal.samples
    rms = float(np.sqrt(np.mean(x ** 2)))
    crossings = int(np.count_nonzero(x[:-1] * x[1:] < 0))
    crest = float(max(x.max(), -x.min()) / rms) if rms > 0 else 0.0
    spectrum = fft_magnitude(signal)
    mags, freqs = spectrum.magnitudes, bin_frequencies(spectrum)
    total = float(mags.sum())
    centroid = bandwidth = entropy = 0.0
    if total > 0:
        centroid = float((freqs * mags).sum() / total)
        spread = freqs - centroid
        spread *= spread
        bandwidth = float(np.sqrt(np.multiply(spread, mags, out=spread).sum() / total))
    p = mags ** 2
    power_total = float(p.sum())
    if power_total > 0:
        p /= power_total
        p = p if p.min() > 0 else p[p > 0]
        plogp = np.log(p)
        plogp *= p
        entropy = min(max(float(-plogp.sum() / math.log(mags.size)), 0.0), 1.0)
    return FeatureVector(rms, crossings / (x.size - 1), crest, centroid, bandwidth, entropy)


def scalar_features_or_error(features, signal):
    """The six scalar features' bits, or the error raised in their place."""
    try:
        fv = features(signal)
    except ParameterError as e:
        return str(e)
    return [getattr(fv, name).hex() for name in ("rms_power", "zero_crossing_rate",
                                                 "crest_factor", "spectral_centroid",
                                                 "spectral_bandwidth", "spectral_entropy")]


class TestExtractFeatures:
    @pytest.mark.parametrize("scheme", sorted(MODULATORS))
    @pytest.mark.parametrize("carrier", PROBE_CARRIERS)
    def test_equals_unlimited_peaks_on_tonal_probes(self, scheme, carrier):
        probe = tonal_probe(scheme, carrier)
        features = extract_features(probe)
        assert len(features.dominant_peaks) == 5
        assert features == with_unlimited_peaks(features, probe)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_unlimited_peaks_on_white_noise(self, seed):
        probe = white_noise(seed, n=8192)
        features = extract_features(probe)
        assert features == with_unlimited_peaks(features, probe)

    def test_pure_cosine_statistics(self):
        amplitude = 2.0
        features = extract_features(tone(amplitude=amplitude))
        assert features.rms_power == pytest.approx(amplitude / math.sqrt(2), abs=1e-6)
        assert features.crest_factor == pytest.approx(math.sqrt(2), abs=1e-3)
        assert abs(features.spectral_centroid - 1000.0) <= 1.0  # one bin at 1 s observation
        assert features.dominant_peaks[0][0] == pytest.approx(1000.0, abs=1.0)
        assert features.dominant_peaks[0][1] == 1.0

    def test_white_noise_entropy_high(self):
        features = extract_features(white_noise(11, n=100_000))
        assert features.spectral_entropy > 0.9

    def test_pure_tone_entropy_low(self):
        features = extract_features(tone())
        assert features.spectral_entropy < 0.2

    def test_constant_signal_no_crossings(self):
        features = extract_features(SampledSignal(100.0, np.full(128, 3.0)))
        assert features.zero_crossing_rate == 0.0

    def test_too_short(self):
        with pytest.raises(ShapeError):
            extract_features(SampledSignal(100.0, np.ones(63)))

    def test_bitwise_deterministic(self):
        signal = white_noise(21, n=8192)
        assert extract_features(signal) == extract_features(signal)

    @pytest.mark.parametrize("signal, zero_bin", [
        (white_noise(5, n=8192), False), (tone(), False), (with_zero_bin(6), True),
    ], ids=["white-noise", "tone", "zero-bin"])
    def test_matches_textbook_formulas_bit_for_bit(self, signal, zero_bin):
        # The zero bin sends the entropy through its nonzero-bins path.
        assert bool(np.any(fft_magnitude(signal).magnitudes == 0.0)) == zero_bin
        features = extract_features(signal)
        got = (features.rms_power, features.spectral_centroid, features.spectral_bandwidth,
               features.spectral_entropy)
        assert [v.hex() for v in got] == [v.hex() for v in reference_features(signal)]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300], ids=["unit", "tiny", "huge"])
    @pytest.mark.parametrize("make", [
        lambda: tonal_probe("psk", 6000.0), lambda: tonal_probe("fsk", 1500.0),
        lambda: white_noise(7, n=8192), lambda: with_zero_bin(8),
        lambda: ask_modulate(random_payload(9, 64, RATE), SPEC),
    ], ids=["psk", "fsk", "white-noise", "zero-bin", "ask-zero-samples"])
    def test_buffer_reuse_is_bit_identical(self, make, scale):
        # At 1e300 the squares overflow and both forms refuse the same rms_power.
        signal = make()
        signal = SampledSignal(signal.sample_rate, signal.samples * scale)
        assert (scalar_features_or_error(extract_features, signal)
                == scalar_features_or_error(features_one_temporary_per_operation, signal))


class TestMatchingSpectrum:
    @pytest.mark.parametrize("n, fft_size, scale", [
        (100, 4096, 1.0), (4096, 4096, 1.0), (3 * 4096, 4096, 1.0), (3 * 4096 + 1234, 4096, 1.0),
        (30, 64, 1.0), (12 * 64 + 5, 64, 1.0), (3 * 4096 + 1234, 4096, 1e-150),
        (12 * 64 + 5, 64, 1e-150), (3 * 4096 + 1234, 4096, 1e140),
    ], ids=["short", "one-block", "exact-multiple", "remainder", "short-64", "remainder-64",
            "remainder-1e-150", "remainder-64-1e-150", "remainder-1e140"])
    def test_equals_per_block_fft_loop(self, n, fft_size, scale):
        signal = SampledSignal(48000.0, scale * white_noise(31, n=n).samples)
        n_blocks = max(1, n // fft_size)
        acc = np.zeros(fft_size // 2 + 1)
        for b in range(n_blocks):
            # One block's one-sided spectrum; a short signal is zero-padded.
            mags = np.abs(np.fft.rfft(signal.samples[b * fft_size:(b + 1) * fft_size],
                                      n=fft_size)) / fft_size
            mags[1:-1] *= 2.0
            acc += mags
        mean = acc / n_blocks
        expected = mean / math.sqrt(float(np.sum(mean ** 2)))
        matched = matching_spectrum(signal, fft_size).magnitudes
        assert matched.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [100, 3 * 4096 + 1234])
    def test_strided_samples_match_a_copy(self, n):
        samples = white_noise(12, n=2 * n).samples[::2]
        spectra = [matching_spectrum(SampledSignal(48000.0, s)) for s in (samples, samples.copy())]
        assert spectra[0].magnitudes.tobytes() == spectra[1].magnitudes.tobytes()

    def test_memory_is_the_frame_matrix_and_one_block(self, traced_peak):
        fft_size = 64
        signal = white_noise(6, n=1100 * fft_size)
        frames, bins = len(signal) // fft_size, fft_size // 2 + 1
        assert frames > 2 * spectral._STFT_BLOCK_FRAMES
        # The frames' magnitudes (float64), and one block of their rfft (complex128).
        bound = frames * bins * 8 + spectral._STFT_BLOCK_FRAMES * bins * 16
        assert traced_peak(lambda: matching_spectrum(signal, fft_size)) <= bound + 64 * 1024

    def test_too_short(self):
        with pytest.raises(ShapeError):
            matching_spectrum(SampledSignal(100.0, np.ones(1)), 64)

    # Magnitudes near 1e200 are finite, and the sum of their squares is not.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("call", [
        lambda loud: matching_spectrum(loud),
        lambda loud: library_add(SignatureLibrary(), "loud", loud),
        lambda loud: classify(loud, small_library()),
    ], ids=["matching_spectrum", "library_add", "classify"])
    def test_overflowing_energy_is_refused(self, call):
        loud = SampledSignal(48000.0, 1e200 * white_noise(5).samples)
        with pytest.raises(ParameterError, match="energy is inf; cannot normalize"):
            call(loud)


class TestSpectralCorrelation:
    def test_self_is_one(self):
        spectrum = matching_spectrum(tone(), 4096)
        assert spectral_correlation(spectrum, spectrum) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_one_hot(self):
        # Pearson correlation of two distinct one-hot vectors is -1/(n-1).
        n = 100
        a = np.zeros(n); a[10] = 5.0
        b = np.zeros(n); b[60] = 3.0
        sa = Spectrum(a, 198.0, 198)
        sb = Spectrum(b, 198.0, 198)
        assert spectral_correlation(sa, sb) == pytest.approx(-1.0 / (n - 1), abs=1e-12)

    def test_scale_invariant(self):
        a = matching_spectrum(tone(), 4096)
        scaled = Spectrum(12.5 * a.magnitudes, a.sample_rate, a.fft_size)
        b = matching_spectrum(tone(freq=1500.0), 4096)
        assert spectral_correlation(a, b) == pytest.approx(spectral_correlation(scaled, b), abs=1e-12)

    def test_grid_mismatch(self):
        a = matching_spectrum(tone(), 4096)
        b = matching_spectrum(tone(), 2048)
        with pytest.raises(ShapeError):
            spectral_correlation(a, b)

    @pytest.mark.parametrize("shift, comparable", [(1e-10, True), (1e-6, False)])
    def test_grid_tolerance(self, shift, comparable):
        # The top bin lies at sample_rate / 2, so this rate moves it by shift Hz.
        a = matching_spectrum(tone(), 4096)
        b = Spectrum(a.magnitudes, a.sample_rate + 2 * shift, a.fft_size)
        assert bin_frequencies(b)[-1] - bin_frequencies(a)[-1] == pytest.approx(shift, rel=0.1)
        if comparable:
            assert spectral_correlation(a, b) == spectral_correlation(a, a)
        else:
            with pytest.raises(ShapeError):
                spectral_correlation(a, b)

    def test_zero_variance_rejected(self):
        n = 16
        flat = Spectrum(np.ones(n), 30.0, 30)
        with pytest.raises(ParameterError):
            spectral_correlation(flat, flat)

    def test_zero_variance_rejected_beside_a_centred_spectrum(self):
        flat = Spectrum(np.ones(16), 30.0, 30)
        varied = Spectrum(np.linspace(0.0, 1.0, 16), 30.0, 30)
        assert spectral_correlation(varied, varied) == pytest.approx(1.0, abs=1e-12)
        for a, b in ((flat, varied), (varied, flat)):
            with pytest.raises(ParameterError, match="zero-variance"):
                spectral_correlation(a, b)


class TestClassify:
    def test_self_match(self):
        library = small_library(template_bits=256)
        probe = fsk_modulate(random_payload(1000, 256, RATE), SPEC)  # same seed as template
        result = classify(probe, library, threshold=0.8)
        assert result.label == "fsk"
        assert result.score > 0.99

    def test_white_noise_unknown(self):
        library = small_library(template_bits=256)
        result = classify(white_noise(77), library, threshold=0.8)
        assert result.label == UNKNOWN_LABEL
        assert result.score < 0.8

    def test_scale_invariance(self):
        library = small_library(template_bits=256)
        probe = psk_modulate(random_payload(5, 128, RATE), SPEC)
        louder = SampledSignal(probe.sample_rate, 250.0 * probe.samples)
        a = classify(probe, library, threshold=0.5)
        b = classify(louder, library, threshold=0.5)
        assert a.label == b.label
        assert a.score == pytest.approx(b.score, abs=1e-9)

    def test_runner_up_reported(self):
        library = small_library(template_bits=256)
        result = classify(fsk_modulate(random_payload(8, 128, RATE), SPEC), library, 0.5)
        assert result.runner_up is not None
        assert result.runner_up[0] != result.label
        assert result.runner_up[1] <= result.score

    def test_scores_equal_pearson_from_scratch_cold_and_warm(self, tmp_path):
        library_save(small_library(template_bits=256), tmp_path / "lib.json")
        library = library_load(tmp_path / "lib.json")  # no template centred yet
        probe = psk_modulate(random_payload(9, 128, RATE), SPEC)
        probe_mags = matching_spectrum(probe, library.fft_size).magnitudes
        (best, label), (second, runner_up) = sorted(
            ((pearson(probe_mags, e.template_spectrum.magnitudes), e.label)
             for e in library.entries), key=lambda sc: (-sc[0], sc[1]))[:2]
        for _ in range(2):  # every template centred on the first call, reused on the second
            result = classify(probe, library, threshold=0.01)
            assert (result.label, result.score, result.runner_up) == (label, best,
                                                                      (runner_up, second))
            assert all("_centred" in vars(e.template_spectrum) for e in library.entries)

    def test_tie_breaks_lexicographically(self):
        signal = tone()
        library = SignatureLibrary(fft_size=4096, sample_rate=48000.0)
        library = library_add(library, "zeta", signal)
        library = library_add(library, "alpha", signal)
        assert classify(signal, library, 0.5).label == "alpha"

    def test_template_off_library_grid_rejected(self):
        entry = small_library(template_bits=128).entries[0]
        with pytest.raises(ShapeError):
            SignatureLibrary(fft_size=2048, sample_rate=48000.0, entries=(entry,))

    def test_empty_library_rejected(self):
        with pytest.raises(ConfigurationError):
            classify(tone(), SignatureLibrary(), 0.5)

    def test_sample_rate_mismatch_rejected(self):
        library = small_library(template_bits=128)
        with pytest.raises(ConfigurationError):
            classify(tone(rate=44100.0, n=44100), library, 0.5)

    def test_spectra_build_no_frequency_axis(self, tmp_path, monkeypatch):
        # A spectrum has no frequency axis to build: adding, loading and classifying
        # build one spectrum per template each and one for the probe.
        built = []

        class Recorded(Spectrum):
            def __post_init__(self):
                super().__post_init__()
                built.append(self)

        monkeypatch.setattr(recognition, "Spectrum", Recorded)
        library_save(small_library(template_bits=128), tmp_path / "lib.json")
        library = library_load(tmp_path / "lib.json")
        classify(psk_modulate(random_payload(9, 128, RATE), SPEC), library, 0.5)
        assert len(built) == 3 + 3 + 1  # added templates, loaded templates, the probe

    def test_threshold_validated(self):
        library = small_library(template_bits=128)
        with pytest.raises(ParameterError):
            classify(tone(), library, threshold=1.5)

    def test_degradation_is_monotone(self):
        # Mean self-correlation must not increase as the channel gets worse.
        library = SignatureLibrary(fft_size=4096, sample_rate=48000.0)
        library = library_add(library, "fsk", fsk_modulate(random_payload(1000, 1024, RATE), SPEC))
        probe = fsk_modulate(random_payload(55, 256, RATE), SPEC)
        means = []
        for snr in (30.0, 20.0, 10.0, 0.0):
            scores = [classify(apply_channel(probe, ChannelParams(snr_db=snr, seed=500 + k)),
                               library, 0.5).score for k in range(10)]
            means.append(float(np.mean(scores)))
        assert all(a >= b for a, b in zip(means, means[1:]))


class TestLibraryPersistence:
    def test_duplicate_label(self):
        library = SignatureLibrary(fft_size=4096, sample_rate=48000.0)
        library = library_add(library, "t", tone())
        with pytest.raises(ConflictError, match="^label 't' already exists in the library$"):
            library_add(library, "t", tone())

    def test_duplicate_entries_name_the_label(self):
        # The library itself names the repeated label, however its entries were made.
        entry = library_add(SignatureLibrary(4096, 48000.0), "t", tone()).entries[0]
        with pytest.raises(ConflictError, match="^label 't' already exists in the library$"):
            SignatureLibrary(4096, 48000.0, (entry, entry))

    def test_add_and_classify_share_the_rate_check(self):
        library = small_library(template_bits=128)
        probe = tone(rate=44100.0, n=44100)
        for call in (lambda: library_add(library, "x", probe), lambda: classify(probe, library)):
            with pytest.raises(ConfigurationError, match="^signal sample rate 44100.0 does not "
                               r"match the library grid \(48000.0\); analysis bins would not "
                               "align$"):
                call()

    def test_unknown_label_is_reserved(self):
        library = SignatureLibrary(fft_size=4096, sample_rate=48000.0)
        with pytest.raises(ParameterError, match=f"^label {UNKNOWN_LABEL!r} is reserved"):
            library_add(library, UNKNOWN_LABEL, tone())

    def test_hand_edited_unknown_label_rejected(self, tmp_path):
        # A template labeled "unknown" would make its perfect match read as a rejection.
        path = tmp_path / "lib.json"
        library_save(library_add(SignatureLibrary(4096, 48000.0), "t", tone()), path)
        doc = json.loads(path.read_text())
        doc["entries"][0]["label"] = UNKNOWN_LABEL
        path.write_text(json.dumps(doc))
        with pytest.raises(ParameterError, match="reserved"):
            library_load(path)

    def test_add_is_functional(self):
        base = SignatureLibrary(fft_size=4096, sample_rate=48000.0)
        grown = library_add(base, "t", tone())
        assert len(base) == 0
        assert len(grown) == 1

    def test_save_load_round_trip_bit_exact(self, tmp_path):
        library = small_library(template_bits=256)
        first = tmp_path / "lib.json"
        second = tmp_path / "lib2.json"
        library_save(library, first)
        loaded = library_load(first)
        library_save(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert loaded.labels() == library.labels()
        for a, b in zip(loaded.entries, library.entries):
            assert np.array_equal(a.template_spectrum.magnitudes,
                                  b.template_spectrum.magnitudes)
            assert a.metadata == b.metadata

    def test_template_magnitudes_beside_template_f64_is_ignored(self, tmp_path):
        # 1.x's template key is one more unknown entry key: the template is template_f64's.
        library = small_library(template_bits=256)
        path = tmp_path / "lib.json"
        library_save(library, path)
        saved = path.read_bytes()
        doc = json.loads(saved)
        doc["entries"][1]["template_magnitudes"] = [0.5] * 4
        path.write_text(json.dumps(doc))
        resaved = tmp_path / "resaved.json"
        library_save(library_load(path), resaved)
        assert resaved.read_bytes() == saved

    def test_templates_are_stored_as_base64_float64(self, tmp_path):
        # 24 templates at fft_size 4096, the bench's library: 2049 float64 per
        # template, 21 856 base64 characters, under 0.6 MB in all.
        library = SignatureLibrary(4096, 48000.0)
        for k in range(24):
            library = library_add(library, f"noise-{k}", white_noise(k, n=4096))
        path = tmp_path / "lib.json"
        library_save(library, path)
        assert path.stat().st_size < 600_000
        entry = json.loads(path.read_text())["entries"][5]
        assert sorted(entry) == ["label", "metadata", "template_f64"]
        assert (base64.b64decode(entry["template_f64"], validate=True)
                == library.entries[5].template_spectrum.magnitudes.astype("<f8").tobytes())

    def test_failed_save_keeps_the_old_library(self, tmp_path, monkeypatch):
        path = tmp_path / "lib.json"
        library_save(small_library(template_bits=128), path)
        old = path.read_bytes()

        def write_half_then_fail(self, data, *args, **kwargs):
            with open(self, "w", encoding="utf-8") as f:
                f.write(data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(pathlib.Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError, match="No space left"):
            library_save(small_library(template_bits=256), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["lib.json"]

    def test_save_follows_a_symlink_and_keeps_the_mode(self, tmp_path):
        path = tmp_path / "lib.json"
        library_save(small_library(template_bits=128), path)
        path.chmod(0o640)
        link = tmp_path / "link.json"
        link.symlink_to(path)
        library_save(small_library(template_bits=256), link)
        assert link.is_symlink()
        assert path.stat().st_mode & 0o777 == 0o640
        assert library_load(path).labels() == ["fsk", "psk", "ask"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lib.json", "link.json"]

    def test_classification_stable_across_round_trip(self, tmp_path):
        library = small_library(template_bits=256)
        probe = apply_channel(ask_modulate(random_payload(4, 256, RATE), SPEC),
                              ChannelParams(snr_db=15.0, seed=2))
        before = classify(probe, library, 0.5)
        path = tmp_path / "lib.json"
        library_save(library, path)
        after = classify(probe, library_load(path), 0.5)
        assert before == after

    def test_truncated_file(self, tmp_path):
        library = small_library(template_bits=128)
        path = tmp_path / "lib.json"
        library_save(library, path)
        path.write_text(path.read_text()[:200])
        with pytest.raises(ParseError):
            library_load(path)

    def test_unsupported_major_version(self, tmp_path):
        path = tmp_path / "lib.json"
        library_save(small_library(template_bits=128), path)
        saved = json.loads(path.read_text())
        # 1.0 and 1.1 spelled each template as JSON numbers; they are refused by version.
        for doc, major in ((dict(saved, version={"major": 3, "minor": 0}), 3),
                           (as_version_1(json.loads(json.dumps(saved)), minor=0), 1),
                           (as_version_1(json.loads(json.dumps(saved)), minor=1), 1)):
            path.write_text(json.dumps(doc))
            with pytest.raises(ParseError) as info:
                library_load(path)
            assert str(info.value) == (f"{path}: unsupported library major version {major} "
                                       "(supported: 2)")

    def test_nan_template_rejected(self, tmp_path):
        library = small_library(template_bits=128)
        path = tmp_path / "lib.json"
        library_save(library, path)
        doc = json.loads(path.read_text())
        doc["entries"][0]["template_f64"] = [math.nan] * 2049
        path.write_text(json.dumps(doc))
        # The strict JSON reader rejects the NaN before any template is built.
        with pytest.raises(ParseError, match="NaN is not a finite number"):
            library_load(path)

    def test_not_a_library(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ParseError):
            library_load(path)


class TestBenchmarkSmall:
    def test_fifteen_probes_per_class(self):
        # Down-sized version of the acceptance benchmark.
        library = small_library()
        modulators = {"fsk": fsk_modulate, "psk": psk_modulate, "ask": ask_modulate}
        correct = 0
        for i, (label, modulate) in enumerate(sorted(modulators.items())):
            for k in range(15):
                payload = random_payload(40_000 + i * 1000 + k, 256, RATE)
                received = apply_channel(modulate(payload, SPEC),
                                         ChannelParams(snr_db=15.0, seed=50_000 + i * 1000 + k))
                if classify(received, library, 0.5).label == label:
                    correct += 1
        assert correct >= 43  # >= 95% of 45
