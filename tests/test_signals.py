import json

import numpy as np
import pytest

from radsim.errors import ParameterError, ParseError, ShapeError
from radsim.signals import SampledSignal, read_signal, sidecar_path, write_signal


def random_signal(seed=0, n=257, rate=48000.0):
    rng = np.random.default_rng(seed)
    return SampledSignal(rate, rng.standard_normal(n))


class TestValidation:
    def test_rate_positive(self):
        with pytest.raises(ParameterError):
            SampledSignal(0.0, np.zeros(4))

    @pytest.mark.parametrize("rate", ["x", np.inf], ids=["rate-string", "rate-inf"])
    def test_rate_and_start_checked(self, rate):
        with pytest.raises(ParameterError):
            SampledSignal(rate, np.zeros(4))

    def test_finite_samples(self):
        with pytest.raises(ParameterError):
            SampledSignal(1.0, np.array([0.0, np.inf]))

    def test_one_dimensional(self):
        with pytest.raises(ShapeError):
            SampledSignal(1.0, np.zeros((2, 2)))

    def test_duration_and_times(self):
        sig = SampledSignal(10.0, np.zeros(5))
        assert sig.duration == 0.5


class TestRawFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        sig = random_signal()
        path = tmp_path / "sig.f64"
        write_signal(sig, path)
        again = read_signal(path)
        assert again.sample_rate == sig.sample_rate
        assert np.array_equal(again.samples, sig.samples)

    def test_sidecar_text(self, tmp_path):
        path = tmp_path / "sig.f64"
        write_signal(SampledSignal(48000.0, np.zeros(3)), path)
        assert sidecar_path(path).read_text() == (
            '{\n  "format": "f64le",\n  "length": 3,\n  "sample_rate": 48000.0\n}\n')

    def test_reads_a_sidecar_with_a_start_time(self, tmp_path):
        # Older sidecars also hold "start_time": 0.0; the reader ignores it.
        sig = random_signal(n=16)
        path = tmp_path / "sig.f64"
        write_signal(sig, path)
        sidecar_path(path).write_text(
            '{\n  "format": "f64le",\n  "length": 16,\n  "sample_rate": 48000.0,\n'
            '  "start_time": 0.0\n}\n')
        again = read_signal(path)
        assert again.sample_rate == sig.sample_rate
        assert np.array_equal(again.samples, sig.samples)

    @pytest.mark.parametrize("length", [16.0, "16", -1, True],
                             ids=["float", "string", "negative", "bool"])
    def test_bad_length_is_parse_error(self, tmp_path, length):
        path = tmp_path / "sig.f64"
        write_signal(random_signal(n=16), path)
        meta = json.loads(sidecar_path(path).read_text())
        meta["length"] = length
        sidecar_path(path).write_text(json.dumps(meta))
        with pytest.raises(ParseError, match="length must be"):
            read_signal(path)

    def test_truncated_payload(self, tmp_path):
        sig = random_signal(n=16)
        path = tmp_path / "sig.f64"
        write_signal(sig, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError, match="expected"):
            read_signal(path)

    def test_bad_sidecar_json(self, tmp_path):
        sig = random_signal(n=8)
        path = tmp_path / "sig.f64"
        write_signal(sig, path)
        sidecar_path(path).write_text("{not json")
        with pytest.raises(ParseError):
            read_signal(path)

    def test_missing_metadata_key(self, tmp_path):
        sig = random_signal(n=8)
        path = tmp_path / "sig.f64"
        write_signal(sig, path)
        meta = json.loads(sidecar_path(path).read_text())
        del meta["sample_rate"]
        sidecar_path(path).write_text(json.dumps(meta))
        with pytest.raises(ParseError, match="sample_rate"):
            read_signal(path)

    def test_unknown_format_tag(self, tmp_path):
        sig = random_signal(n=8)
        path = tmp_path / "sig.f64"
        write_signal(sig, path)
        meta = json.loads(sidecar_path(path).read_text())
        meta["format"] = "f32be"
        sidecar_path(path).write_text(json.dumps(meta))
        with pytest.raises(ParseError, match="unknown format tag"):
            read_signal(path)

