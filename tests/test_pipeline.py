import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from radsim import modulation, spectral
from radsim.channel import ChannelParams
from radsim.codec import random_payload, read_bits
from radsim.errors import ConfigurationError
from radsim.modulation import MODULATORS, CarrierSpec, fsk_modulate
from radsim.pipeline import (DEFAULT_CONFIG, ExperimentConfig, config_from_json,
                             recognition_benchmark, run_experiment)
from radsim.recognition import SignatureLibrary, library_add, library_save
from radsim.signals import read_signal, sidecar_path
from radsim.spectral import fft_magnitude, find_peaks, stft, write_spectrum, write_spectrum_csv


def run_default(tmp_path, name="exp", **overrides):
    config = replace(DEFAULT_CONFIG, **overrides)
    return config, run_experiment(config, tmp_path / name)


def fsk_library(tmp_path):
    """The path of a saved library holding one fsk template on the default grid."""
    library = SignatureLibrary(fft_size=4096, sample_rate=48000.0)
    library = library_add(library, "fsk", fsk_modulate(random_payload(99, 1024, 250.0),
                                                       DEFAULT_CONFIG.carrier))
    library_save(library, tmp_path / "lib.json")
    return str(tmp_path / "lib.json")


def directory_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(Path(path).iterdir())}


class TestDefaultRun:
    def test_three_peaks(self, tmp_path):
        _, report = run_default(tmp_path)
        assert report.peak_frequencies_hz == [1875.0, 2000.0, 2125.0]

    def test_noiseless_ber_zero(self, tmp_path):
        _, report = run_default(tmp_path)
        assert report.bit_errors == 0

    def test_every_artifact_parses_back(self, tmp_path):
        config, report = run_default(tmp_path)
        out = tmp_path / "exp"
        payload = read_bits(out / "payload.txt", config.bit_rate)
        assert len(payload) == 64
        for name in ("emitted.f64", "received.f64"):
            signal = read_signal(out / name)
            assert signal.sample_rate == 48000.0
            assert len(signal) == 64 * 192
        received = read_signal(out / "received.f64")
        spectrum = fft_magnitude(received)
        write_spectrum_csv(spectrum, tmp_path / "spectrum.csv")
        assert (out / "spectrum.csv").read_bytes() == (tmp_path / "spectrum.csv").read_bytes()
        # A run analyses on a 256-sample hann window at hop 128, with a peak
        # floor of 0.1 and peaks half a bit rate apart.
        write_spectrum(stft(received), tmp_path / "stft.f64")
        for name in ("stft.f64", "stft.f64.json"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
        grid = json.loads(sidecar_path(out / "stft.f64").read_text())
        assert (grid["sample_rate"], grid["window_length"], grid["hop"], grid["window"]) == (
            received.sample_rate, 256, 128, "hann")
        rows = np.loadtxt(out / "peaks.csv", delimiter=",", skiprows=1, ndmin=2)
        peaks = find_peaks(spectrum, 0.1, config.bit_rate / 2)
        assert [(f, v, int(k)) for f, v, k in rows.tolist()] == [
            (p.frequency, p.magnitude, p.bin_index) for p in peaks]
        assert [p.frequency for p in peaks] == report.peak_frequencies_hz
        report_doc = json.loads((out / "report.json").read_text())
        assert report_doc["peak_frequencies_hz"] == report.peak_frequencies_hz

    def test_report_lists_every_file(self, tmp_path):
        listed = ["demodulated.txt", "emitted.f64", "emitted.f64.json", "payload.txt",
                  "peaks.csv", "received.f64", "received.f64.json", "report.json",
                  "spectrum.csv", "stft.f64", "stft.f64.json"]
        run_default(tmp_path, name="bare", channel=ChannelParams(snr_db=10.0, seed=1))
        assert sorted(p.name for p in (tmp_path / "bare").iterdir()) == listed
        run_default(tmp_path, library_path=fsk_library(tmp_path),
                    channel=ChannelParams(snr_db=10.0, seed=1))
        assert (sorted(p.name for p in (tmp_path / "exp").iterdir())
                == sorted(listed + ["classification.json"]))

    def test_report_json_states_each_fact_once(self, tmp_path):
        config, _ = run_default(tmp_path, library_path=fsk_library(tmp_path),
                                channel=ChannelParams(snr_db=10.0, seed=1))
        out = tmp_path / "exp"
        report = json.loads((out / "report.json").read_text())
        assert sorted(report) == ["bit_errors", "classification", "config",
                                  "measured_snr_db", "peak_frequencies_hz"]
        assert report["config"] == asdict(config)
        assert report["classification"] == json.loads((out / "classification.json").read_text())

    def test_report_ber_matches_recount(self, tmp_path):
        config, report = run_default(tmp_path, channel=ChannelParams(snr_db=10.0, seed=1))
        out = tmp_path / "exp"
        sent = read_bits(out / "payload.txt", config.bit_rate)
        decoded = read_bits(out / "demodulated.txt", config.bit_rate)
        errors = int(np.count_nonzero(sent.bits != decoded.bits))
        assert report.bit_errors == errors

    def test_received_equals_emitted_without_channel(self, tmp_path):
        run_default(tmp_path)
        out = tmp_path / "exp"
        assert (out / "emitted.f64").read_bytes() == (out / "received.f64").read_bytes()


class TestDeterminism:
    def test_byte_identical_across_directories(self, tmp_path):
        run_default(tmp_path, name="a", seed=5)
        run_default(tmp_path, name="b", seed=5)
        assert directory_bytes(tmp_path / "a") == directory_bytes(tmp_path / "b")

    def test_seed_changes_output(self, tmp_path):
        run_default(tmp_path, name="a", seed=5)
        run_default(tmp_path, name="b", seed=6)
        assert (tmp_path / "a" / "payload.txt").read_bytes() != \
            (tmp_path / "b" / "payload.txt").read_bytes()


class TestSchemes:
    @pytest.mark.parametrize("scheme", sorted(MODULATORS))
    def test_noiseless_ber_zero_composed(self, tmp_path, scheme):
        _, report = run_default(tmp_path, name=scheme, modulation=scheme)
        assert report.bit_errors == 0

    @pytest.mark.parametrize("scheme", sorted(MODULATORS))
    def test_noiseless_ber_zero_uncomposed(self, tmp_path, scheme):
        _, report = run_default(tmp_path, name=scheme, modulation=scheme,
                                compose_with_carrier=False)
        assert report.bit_errors == 0

    def test_uncomposed_run_builds_no_carrier(self, tmp_path, monkeypatch):
        def fail(*args):
            raise AssertionError("carrier built for a run that does not add it")
        monkeypatch.setattr(modulation, "generate_carrier", fail)
        _, report = run_default(tmp_path, compose_with_carrier=False)
        assert report.bit_errors == 0

    @pytest.mark.parametrize("scheme", sorted(MODULATORS))
    def test_composed_run_hands_the_receiver_what_arrived(self, tmp_path, monkeypatch, scheme):
        handed = []
        receiver = modulation.DEMODULATORS[scheme]

        def record(signal, *args, **kwargs):
            handed.append(signal.samples.tobytes())
            return receiver(signal, *args, **kwargs)

        monkeypatch.setitem(modulation.DEMODULATORS, scheme, record)
        run_default(tmp_path, modulation=scheme, channel=ChannelParams(snr_db=10.0, seed=3))
        assert handed == [read_signal(tmp_path / "exp" / "received.f64").samples.tobytes()]


class TestChannelRuns:
    def test_measured_snr_reported(self, tmp_path):
        _, report = run_default(tmp_path, channel=ChannelParams(snr_db=10.0, seed=3))
        assert report.measured_snr_db == pytest.approx(10.0, abs=1.0)

    def test_fsk_ber_small_at_10db(self, tmp_path):
        config, report = run_default(tmp_path, channel=ChannelParams(snr_db=10.0, seed=3))
        assert report.bit_errors / config.payload_bits < 1e-2

    def test_memory_is_four_signals(self, tmp_path, traced_peak):
        # The carrier, emitted until its SNR, received and one working array.
        config = replace(DEFAULT_CONFIG, payload_bits=4096, library_path=fsk_library(tmp_path),
                         channel=ChannelParams(snr_db=10.0, seed=3))
        n = 4096 * modulation.samples_per_bit(config.carrier, config.bit_rate)
        modulation._carrier.cache_clear()  # so the run builds the carrier, and it counts
        peak = traced_peak(lambda: run_experiment(config, tmp_path / "exp"))
        assert peak <= 4 * 8 * n + 2 ** 21


class TestClassification:
    def test_label_in_report(self, tmp_path):
        library = SignatureLibrary(fft_size=4096, sample_rate=48000.0)
        spec = CarrierSpec(2000.0, 1.0, 0.0, 48000.0)
        library = library_add(library, "fsk-default",
                              fsk_modulate(random_payload(99, 1024, 250.0), spec))
        lib_path = tmp_path / "lib.json"
        library_save(library, lib_path)
        _, report = run_default(tmp_path, library_path=str(lib_path),
                                classification_threshold=0.5)
        assert report.classification.label == "fsk-default"
        assert (Path(tmp_path / "exp") / "classification.json").exists()

    def test_a_missing_library_stops_the_run_before_any_work(self, tmp_path, monkeypatch):
        calls = []

        def spy(original):
            def call(*args, **kwargs):
                calls.append(original.__name__)
                return original(*args, **kwargs)
            return call

        monkeypatch.setitem(modulation.MODULATORS, "fsk", spy(modulation.MODULATORS["fsk"]))
        monkeypatch.setattr(spectral, "write_spectrum_csv", spy(spectral.write_spectrum_csv))
        with pytest.raises(FileNotFoundError):
            run_default(tmp_path, library_path=str(tmp_path / "missing.json"))
        assert calls == []
        assert list(tmp_path.iterdir()) == []


class TestCommit:
    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_late_failure_leaves_nothing(self, tmp_path, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error("late")

        monkeypatch.setattr(spectral, "write_peaks_csv", fail)
        with pytest.raises(error, match="late"):
            run_default(tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_mode_is_that_of_mkdir(self, tmp_path):
        run_default(tmp_path)
        (tmp_path / "plain").mkdir()
        assert (tmp_path / "exp").stat().st_mode == (tmp_path / "plain").stat().st_mode

    def test_an_empty_dir_keeps_its_mode(self, tmp_path):
        (tmp_path / "exp").mkdir()
        (tmp_path / "exp").chmod(0o750)
        run_default(tmp_path)
        assert (tmp_path / "exp").stat().st_mode & 0o777 == 0o750
        assert (tmp_path / "exp" / "report.json").is_file()

    def test_a_symlinked_out_fills_the_link_target(self, tmp_path):
        target = tmp_path / "target"
        target.mkdir()
        (tmp_path / "exp").symlink_to(target)
        run_default(tmp_path)
        assert (tmp_path / "exp").is_symlink()
        assert (target / "report.json").is_file()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp", "target"]

    def test_a_failed_run_through_a_dangling_link_removes_the_parents_it_made(
            self, tmp_path, monkeypatch):
        (tmp_path / "exp").symlink_to(tmp_path / "far" / "away" / "exp")

        def fail(*args, **kwargs):
            raise RuntimeError("late")

        with monkeypatch.context() as patched:
            patched.setattr(spectral, "write_peaks_csv", fail)
            with pytest.raises(RuntimeError, match="late"):
                run_default(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["exp"]
        run_default(tmp_path)
        assert (tmp_path / "far" / "away" / "exp" / "report.json").is_file()


class TestConfig:
    def test_json_round_trip(self):
        config = replace(DEFAULT_CONFIG, seed=9, modulation="psk",
                         channel=ChannelParams(attenuation_db=6.0, snr_db=12.0, seed=2))
        doc = asdict(config)
        again = config_from_json(json.loads(json.dumps(doc)))
        assert again == config

    def test_unknown_modulation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(modulation="qam")

    def test_nyquist_checked_at_construction(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(carrier=CarrierSpec(30000.0, 1.0, 0.0, 48000.0))

    def test_output_dir_is_not_a_config_key(self):
        doc = asdict(DEFAULT_CONFIG)
        doc["output_dir"] = "exp"
        with pytest.raises(ConfigurationError, match="output_dir"):
            config_from_json(doc)

    def test_unknown_key_rejected(self):
        doc = asdict(DEFAULT_CONFIG)
        doc["flux_capacitor"] = True
        with pytest.raises(ConfigurationError):
            config_from_json(doc)


class TestRecognitionBenchmark:
    def test_every_probe_right_at_minus_14_db(self):
        # A copy of this loop that walked the schemes in sorted order drew other
        # probe seeds and read one psk probe as ask here.
        result = recognition_benchmark(-14.0, 50, 0.5)
        assert result.decisions == {"fsk": {"fsk": 50}, "psk": {"psk": 50}, "ask": {"ask": 50}}
        assert result.correct == 150
        assert result.noise_rejected == 50

    def test_white_noise_is_judged_at_the_threshold(self):
        # Judged at the 0.8 default, every noise probe would be rejected.
        result = recognition_benchmark(15.0, 3, 1e-3)
        assert result.noise_rejected < result.probes

    def test_misses_are_counted_under_their_label(self):
        # At -17 dB most best scores fall below the threshold; every psk one does.
        result = recognition_benchmark(-17.0, 10, 0.5)
        assert result.decisions["psk"] == {"unknown": 10}
        assert [sum(counts.values()) for counts in result.decisions.values()] == [10, 10, 10]
        assert 0 < result.correct == 30 - sum(c["unknown"] for c in result.decisions.values())
