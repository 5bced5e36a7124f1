import json
import re

import numpy as np
import pytest

from radsim.errors import ParameterError, ParseError, ShapeError
from radsim.signals import SampledSignal, _commit, read_signal, sidecar_path, write_signal


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

    # Errors that the rate and samples raise as the signal is built name the file too.
    @pytest.mark.parametrize("corrupt, message", [
        (lambda path, meta: meta.__setitem__("sample_rate", True),
         "sample_rate must be a finite number > 0, got True"),
        (lambda path, meta: path.write_bytes(np.full(8, np.nan).tobytes()),
         "samples contain non-finite values"),
    ], ids=["rate-true", "nan-samples"])
    def test_signal_error_names_the_file(self, tmp_path, corrupt, message):
        path = tmp_path / "sig.f64"
        write_signal(random_signal(n=8), path)
        meta = json.loads(sidecar_path(path).read_text())
        corrupt(path, meta)
        sidecar_path(path).write_text(json.dumps(meta))
        with pytest.raises(ParameterError, match=f"^{re.escape(str(path))}: {message}$"):
            read_signal(path)



def fill(partial, kind, text):
    """Build a file, or a directory holding ``a.txt``, at ``partial``."""
    if kind == "dir":
        partial.mkdir()
        (partial / "a.txt").write_text(text)
    else:
        partial.write_text(text)


def content(path, kind):
    return (path / "a.txt" if kind == "dir" else path).read_text()


@pytest.mark.parametrize("kind", ["file", "dir"])
class TestCommit:
    def test_sibling_is_renamed_onto_the_target(self, tmp_path, kind):
        target = tmp_path / "out"
        with _commit(target) as partial:
            assert partial.parent == tmp_path.resolve()
            assert re.fullmatch(r"\.out\.[0-9a-f]{16}\.partial", partial.name)
            assert not target.exists()
            fill(partial, kind, "new")
        assert content(target, kind) == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_a_new_target_takes_the_default_mode(self, tmp_path, kind):
        with _commit(tmp_path / "out") as partial:
            fill(partial, kind, "new")
        fill(tmp_path / "plain", kind, "plain")
        assert (tmp_path / "out").stat().st_mode == (tmp_path / "plain").stat().st_mode

    def test_a_replaced_target_keeps_its_mode(self, tmp_path, kind):
        target = tmp_path / "out"
        fill(target, kind, "old")
        if kind == "dir":
            (target / "a.txt").unlink()  # a run dir replaces only an empty directory
        target.chmod(0o750)
        with _commit(target) as partial:
            fill(partial, kind, "new")
        assert content(target, kind) == "new"
        assert target.stat().st_mode & 0o777 == 0o750

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_an_exception_removes_the_sibling(self, tmp_path, kind, error):
        target = tmp_path / "out"
        fill(target, kind, "old")
        target.chmod(0o750)
        with pytest.raises(error, match="late"):
            with _commit(target) as partial:
                fill(partial, kind, "new")
                raise error("late")
        assert content(target, kind) == "old"
        assert target.stat().st_mode & 0o777 == 0o750
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_a_symlink_is_followed(self, tmp_path, kind):
        target, link = tmp_path / "target", tmp_path / "link"
        if kind == "dir":
            target.mkdir()
        else:
            target.write_text("old")
        link.symlink_to(target)
        with _commit(link) as partial:
            assert partial.parent == tmp_path.resolve() and partial.name.startswith(".target.")
            fill(partial, kind, "new")
        assert link.is_symlink()
        assert content(target, kind) == "new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "target"]
