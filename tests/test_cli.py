"""End-to-end CLI checks run through subprocesses, as a user would."""

import argparse
import contextlib
import io
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import radsim
from radsim.cli import build_parser, main
from radsim.codec import random_payload, read_bits
from radsim.errors import RadsimError
from radsim.modulation import MODULATORS, CarrierSpec, fsk_modulate
from radsim.pipeline import DEFAULT_CONFIG as DEFAULTS
from radsim.pipeline import ExperimentConfig, config_from_json
from radsim.recognition import SignatureLibrary, library_add, library_save
from radsim.signals import SampledSignal, read_signal, sidecar_path, write_signal
from radsim.spectral import fft_magnitude, read_spectrogram, write_spectrum
from reference import as_version_1, f64_text, template_values

BASE = [sys.executable, "-m", "radsim"]
# Subprocesses import the radsim copy this process imported, installed or not.
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(Path(radsim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])))
DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default_experiment.json"

SUBCOMMANDS = ["propagate", "payload", "encode", "modulate", "demodulate", "channel",
               "spectrum", "peaks", "features", "library-add", "library-list",
               "classify", "run", "evaluate"]


def run_cli(*args, cwd=None):
    return subprocess.run(BASE + list(args), capture_output=True, text=True, cwd=cwd, env=ENV)


def directory_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(Path(path).iterdir())}


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_help_exists(name):
    result = run_cli(name, "--help")
    assert result.returncode == 0
    assert name in result.stdout


def test_scheme_choices_follow_registry():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command, flag in (("modulate", "--scheme"), ("demodulate", "--scheme"),
                          ("run", "--modulation")):
        action = next(a for a in commands[command]._actions if flag in a.option_strings)
        assert action.choices == sorted(MODULATORS)


def one_line_error(capsys) -> bool:
    err = capsys.readouterr().err
    return err.startswith("error:") and len(err.strip().splitlines()) == 1


def set_magnitude(path, value):
    """Write ``value`` over the fourth magnitude in the raw bytes of a spectrum file."""
    mags = np.fromfile(path, dtype="<f8")
    mags[3] = value
    mags.tofile(path)


@pytest.mark.parametrize("args", [
    ["payload", "--bits", "8", "--seed", "-1"],
    ["run", "--defaults", "--seed", "-1"],
    ["run", "--defaults", "--snr-db", "10", "--channel-seed", "-1"],
    ["propagate", "--n", "10", "--m", "2", "--method", "montecarlo", "--seed", "-1"],
], ids=["payload", "run", "run-channel", "propagate"])
def test_negative_seed_rejected(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 1
    assert one_line_error(capsys)
    assert not out.exists()


def test_unallocatable_steps_is_one_line_error(tmp_path, capsys):
    # 2**57 + 1 int64 time steps need 1 EiB, more than any address space
    # holds, so the allocation is refused at once instead of filling memory.
    out = tmp_path / "curve.csv"
    assert main(["propagate", "--n", "10", "--m", "1", "--steps", str(2 ** 57),
                 "--out", str(out)]) == 1
    assert one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["encode", "--in", "{bits}", "--manchester-out", "{out}", "--rect-out", "{out}.f64",
     "--sample-rate", "100"],
    ["demodulate", "--in", "{signal}", "--scheme", "fsk", "--n-bits", "8",
     "--expected", "{missing}", "--out", "{out}"],
    ["demodulate", "--in", "{signal}", "--scheme", "fsk", "--n-bits", "8",
     "--expected", "{short}", "--out", "{out}"],
    ["channel", "--in", "{signal}", "--noise-power", "1", "--out", "{out}"],
], ids=["encode-rect-rate", "demodulate-expected-missing", "demodulate-expected-short",
        "channel-zero-signal"])
def test_failed_command_writes_nothing(tmp_path, capsys, args):
    bits, short, signal = tmp_path / "bits.txt", tmp_path / "short.txt", tmp_path / "sig.f64"
    bits.write_text("01101001\n")
    short.write_text("0110\n")
    write_signal(SampledSignal(48000.0, np.zeros(8 * 192)), signal)
    inputs = sorted(p.name for p in tmp_path.iterdir())
    assert main([a.format(bits=bits, short=short, signal=signal, missing=tmp_path / "missing.txt",
                          out=tmp_path / "out") for a in args]) == 1
    assert one_line_error(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


# Every subcommand that writes a file, failing at its write. ``nodir`` does not
# exist; ``side.f64.json`` is a directory where a pair writer puts its sidecar.
_FAILING_WRITES = {
    "propagate": ["propagate", "--n", "10", "--m", "2", "--steps", "5", "--out", "nodir/c.csv"],
    "payload": ["payload", "--bits", "8", "--out", "nodir/b.txt"],
    "encode-manchester": ["encode", "--in", "bits.txt", "--manchester-out", "nodir/m.txt"],
    "encode-rect": ["encode", "--in", "bits.txt", "--rect-out", "nodir/r.f64"],
    "encode-both": ["encode", "--in", "bits.txt", "--manchester-out", "ok.txt",
                    "--rect-out", "nodir/rect.f64"],
    "modulate": ["modulate", "--in", "bits.txt", "--scheme", "psk", "--out", "nodir/s.f64"],
    "demodulate": ["demodulate", "--in", "sig.f64", "--scheme", "fsk", "--n-bits", "64",
                   "--out", "nodir/d.txt"],
    "channel": ["channel", "--in", "sig.f64", "--snr-db", "10", "--out", "nodir/n.f64"],
    "spectrum": ["spectrum", "--in", "sig.f64", "--out", "nodir/s.f64"],
    "spectrum-stft": ["spectrum", "--in", "sig.f64", "--stft", "--out", "nodir/s.f64"],
    "peaks": ["peaks", "--in", "sig.f64", "--out", "nodir/p.csv"],
    "features": ["features", "--in", "sig.f64", "--out", "nodir/f.json"],
    "library-add": ["library-add", "--library", "nodir/lib.json", "--label", "x", "--in", "sig.f64"],
    "classify": ["classify", "--in", "sig.f64", "--library", "lib.json", "--out", "nodir/c.json"],
    "evaluate": ["evaluate", "--probes", "1", "--out", "nodir/e.json"],
    # run makes the missing parents of --out, so its parent is a file here.
    "run": ["run", "--defaults", "--out", "bits.txt/exp"],
    "sidecar-dir-encode": ["encode", "--in", "bits.txt", "--rect-out", "side.f64"],
    "sidecar-dir-encode-both": ["encode", "--in", "bits.txt", "--manchester-out", "ok.txt",
                                "--rect-out", "side.f64"],
    "sidecar-dir-modulate": ["modulate", "--in", "bits.txt", "--scheme", "psk", "--out", "side.f64"],
    "sidecar-dir-channel": ["channel", "--in", "sig.f64", "--snr-db", "10", "--out", "side.f64"],
    "sidecar-dir-spectrum": ["spectrum", "--in", "sig.f64", "--out", "side.f64"],
    "sidecar-dir-spectrum-stft": ["spectrum", "--in", "sig.f64", "--stft", "--out", "side.f64"],
}


@pytest.mark.parametrize("argv", _FAILING_WRITES.values(), ids=_FAILING_WRITES)
def test_failed_write_leaves_the_directory_as_it_was(tmp_path, monkeypatch, capsys, argv):
    # Before main removed what a failed command made, encode-both and every
    # sidecar-dir case left the file written before the failing one.
    monkeypatch.chdir(tmp_path)
    stream = random_payload(7, 64, 250.0)
    Path("bits.txt").write_text("".join(map(str, stream.bits)) + "\n")
    signal = fsk_modulate(stream, CarrierSpec(2000.0))
    write_signal(signal, "sig.f64")
    library_save(library_add(SignatureLibrary(), "fsk", signal), "lib.json")
    Path("side.f64.json").mkdir()
    listing = sorted(tmp_path.rglob("*"))
    assert main(argv) == 1  # a warning or a traceback would fail here
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1
    assert sorted(tmp_path.rglob("*")) == listing


@pytest.mark.parametrize("args", [
    ["modulate", "--in", "{bits}", "--scheme", "fsk", "--out", "{out}"],
    ["modulate", "--in", "{bits}", "--scheme", "psk", "--out", "{out}"],
    ["modulate", "--in", "{bits}", "--scheme", "ask", "--out", "{out}"],
    ["encode", "--in", "{bits}", "--rect-out", "{out}"],
    ["encode", "--in", "{bits}", "--manchester-out", "{out}"],
], ids=["fsk", "psk", "ask", "rect", "manchester"])
def test_empty_stream_makes_no_output(tmp_path, capsys, args):
    bits, out = tmp_path / "bits.txt", tmp_path / "out"
    assert main(["payload", "--hex", "", "--out", str(bits)]) == 0
    capsys.readouterr()
    assert main([a.format(bits=bits, out=out) for a in args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot ") and err.endswith(" an empty stream\n")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_manchester_symbol_rate_overflow_is_one_line_error(tmp_path, capsys):
    bits, out = tmp_path / "bits.txt", tmp_path / "m.txt"
    bits.write_text("10\n")
    assert main(["encode", "--in", str(bits), "--bit-rate", "1e308",
                 "--manchester-out", str(out)]) == 1
    assert one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["payload", "--bits", "8", "--bit-rate", "{rate}", "--out", "{out}"],
    ["encode", "--in", "{bits}", "--bit-rate", "{rate}", "--rect-out", "{out}"],
    ["encode", "--in", "{bits}", "--sample-rate", "{rate}", "--rect-out", "{out}"],
    ["modulate", "--in", "{bits}", "--scheme", "fsk", "--bit-rate", "{rate}", "--out", "{out}"],
    ["demodulate", "--in", "{signal}", "--scheme", "fsk", "--n-bits", "8",
     "--bit-rate", "{rate}", "--out", "{out}"],
], ids=["payload", "encode", "encode-sample-rate", "modulate", "demodulate"])
@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_non_finite_rate_rejected(tmp_path, capsys, args, rate):
    bits, signal, out = tmp_path / "bits.txt", tmp_path / "sig.f64", tmp_path / "out"
    bits.write_text("01101001\n")
    write_signal(SampledSignal(48000.0, np.zeros(8 * 192)), signal)
    assert main([a.format(bits=bits, signal=signal, out=out, rate=rate) for a in args]) == 1
    assert one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["modulate", "--in", "{bits}", "--scheme", "ask", "--sample-rate", "1e300", "--out", "{out}"],
    ["modulate", "--in", "{bits}", "--scheme", "fsk", "--sample-rate", "1e300", "--out", "{out}"],
    ["modulate", "--in", "{bits}", "--scheme", "psk", "--sample-rate", "1e300", "--out", "{out}"],
    ["modulate", "--in", "{bits}", "--scheme", "psk", "--sample-rate", "1e308",
     "--bit-rate", "1e-10", "--out", "{out}"],
    ["encode", "--in", "{bits}", "--sample-rate", "1e300", "--rect-out", "{out}"],
    ["encode", "--in", "{bits}", "--sample-rate", "1e308", "--bit-rate", "1e-10",
     "--rect-out", "{out}"],
    # 8e308 samples: an integer count beyond the float range.
    ["modulate", "--in", "{bits}", "--scheme", "fsk", "--sample-rate", "1e308",
     "--bit-rate", "1", "--out", "{out}"],
], ids=["modulate-ask", "modulate-fsk", "modulate-psk", "modulate-rate-ratio-inf",
        "encode", "encode-rate-ratio-inf", "modulate-count-beyond-float"])
def test_unallocatable_signal_is_one_line_error(tmp_path, capsys, args):
    # Finite rates whose signals have more samples than any array can hold.
    bits, out = tmp_path / "bits.txt", tmp_path / "out"
    bits.write_text("01101001\n")
    assert main([a.format(bits=bits, out=out) for a in args]) == 1
    assert one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["payload", "--bits", str(10 ** 21), "--out", "{out}"],
    ["propagate", "--n", "10", "--m", "2", "--steps", str(2 ** 62), "--out", "{out}"],
    ["propagate", "--n", "10", "--m", str(2 ** 62), "--method", "montecarlo", "--out", "{out}"],
    ["propagate", "--n", str(10 ** 23), "--m", "2", "--method", "montecarlo", "--out", "{out}"],
    ["propagate", "--n", "1", "--m", "1", "--method", "montecarlo", "--trials", str(10 ** 400),
     "--out", "{out}"],
    ["propagate", "--n", "100", "--m", str(10 ** 400), "--out", "{out}"],
    ["spectrum", "--in", "{signal}", "--fft-size", str(2 ** 62), "--out", "{out}"],
    ["library-add", "--library", "{out}", "--label", "x", "--in", "{signal}",
     "--fft-size", str(2 ** 100)],
], ids=["payload-bits", "propagate-steps", "propagate-montecarlo-m", "propagate-montecarlo-n",
        "propagate-montecarlo-trials", "propagate-closed-m", "spectrum-fft-size",
        "library-fft-size"])
def test_oversized_integer_is_one_line_error(tmp_path, capsys, args):
    # Integers that size arrays are bounded by the largest array length.
    signal, out = tmp_path / "sig.f64", tmp_path / "out"
    write_signal(SampledSignal(48000.0, np.zeros(8 * 192)), signal)
    assert main([a.format(signal=signal, out=out) for a in args]) == 1
    assert one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["peaks", "--spectrum", "{bad_sidecar}", "--out", "{out}"],
    ["library-list", "--library", "{bad}"],
    ["classify", "--in", "{signal}", "--library", "{bad}", "--out", "{out}"],
    ["run", "--config", "{bad}", "--out", "{out}"],
    ["modulate", "--in", "{bad}", "--scheme", "fsk", "--out", "{out}"],
    ["payload", "--hex-file", "{bad}", "--out", "{out}"],
    ["features", "--in", "{bad_sidecar}", "--out", "{out}"],
], ids=["spectrum-sidecar", "library", "classify-library", "run-config", "bits", "hex-file",
        "signal-sidecar"])
def test_file_that_is_not_utf8_is_one_line_error(tmp_path, capsys, args):
    bad, signal, bad_sidecar = tmp_path / "bad", tmp_path / "sig.f64", tmp_path / "bad.f64"
    bad.write_bytes(b"\xff\xfe\x00")
    for path in (signal, bad_sidecar):
        write_signal(SampledSignal(48000.0, np.zeros(8 * 192)), path)
    (tmp_path / "bad.f64.json").write_bytes(b"\xff\xfe\x00")
    out = tmp_path / "out"
    assert main([a.format(bad=bad, signal=signal, bad_sidecar=bad_sidecar, out=out)
                 for a in args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "not UTF-8 text" in err
    assert not out.exists()


@pytest.mark.parametrize("corrupt", [
    lambda text: text[:len(text) // 2],
    lambda text: text.replace("48000.0", "NaN", 1),
    lambda text: text.replace("48000.0", "1e400", 1),
    lambda text: f"[{text}]",
    lambda text: text.replace("48000.0", "1" * 5000, 1),
    lambda text: "[" * 100_000 + "]" * 100_000,
], ids=["truncated", "nan", "float-overflow", "not-an-object", "integer-too-long", "deep"])
@pytest.mark.parametrize("command", ["run", "library-list", "features", "peaks"])
def test_bad_json_is_one_line_error_naming_the_file(tmp_path, capsys, command, corrupt):
    signal = tmp_path / "sig.f64"
    write_signal(MODULATORS["fsk"](random_payload(1, 64, 250.0), CarrierSpec(2000.0)), signal)
    spectrum = tmp_path / "spectrum.f64"
    write_spectrum(fft_magnitude(read_signal(signal)), spectrum)
    library = tmp_path / "lib.json"
    library_save(library_add(SignatureLibrary(), "fsk", read_signal(signal)), library)
    config = tmp_path / "config.json"
    shutil.copy(DEFAULT_CONFIG, config)
    out = tmp_path / "out"
    path, argv = {
        "run": (config, ["run", "--config", str(config), "--out", str(out)]),
        "library-list": (library, ["library-list", "--library", str(library)]),
        "features": (sidecar_path(signal), ["features", "--in", str(signal), "--out", str(out)]),
        "peaks": (sidecar_path(spectrum),
                  ["peaks", "--spectrum", str(spectrum), "--out", str(out)]),
    }[command]
    path.write_text(corrupt(path.read_text()))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_unknown_flag_is_usage_error():
    result = run_cli("propagate", "--n", "10", "--m", "1", "--frobnicate", "--out", "x.csv")
    assert result.returncode == 2


class TestPropagate:
    def test_closed_form_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        result = run_cli("propagate", "--n", "100", "--m", "15", "--x0", "1",
                         "--steps", "100", "--method", "closed", "--out", str(out))
        assert result.returncode == 0
        assert "inflection" in result.stdout
        rows = out.read_text().splitlines()
        assert rows[0] == "n,expected_infected"
        n20 = float(rows[21].split(",")[1])
        assert abs(n20 - 16.867) < 1e-3

    def test_seed_count_just_below_n(self, tmp_path, capsys):
        # N/X0 - 1 rounds to 0.0 in float64 for these counts.
        big_n = 2 ** 60 - 1
        assert main(["propagate", "--n", str(big_n), "--m", "1", "--x0", str(big_n - 1),
                     "--steps", "1", "--method", "closed",
                     "--out", str(tmp_path / "c.csv")]) == 0
        assert "inflection" in capsys.readouterr().out

    def test_single_computer(self, tmp_path):
        out = tmp_path / "curve.csv"
        result = run_cli("propagate", "--n", "1", "--m", "1", "--steps", "5", "--out", str(out))
        assert result.returncode == 0
        values = {float(r.split(",")[1]) for r in out.read_text().splitlines()[1:]}
        assert values == {1.0}

    def test_invalid_x0(self, tmp_path):
        result = run_cli("propagate", "--n", "100", "--m", "15", "--x0", "0",
                         "--out", str(tmp_path / "x.csv"))
        assert result.returncode == 1
        assert result.stderr.strip().startswith("error:")
        assert len(result.stderr.strip().splitlines()) == 1

    def test_montecarlo(self, tmp_path):
        out = tmp_path / "mc.csv"
        result = run_cli("propagate", "--n", "50", "--m", "10", "--steps", "20",
                         "--method", "montecarlo", "--trials", "20", "--seed", "3",
                         "--out", str(out))
        assert result.returncode == 0
        assert len(out.read_text().splitlines()) == 22


class TestSignalChain:
    def test_payload_modulate_demodulate(self, tmp_path):
        bits = tmp_path / "bits.txt"
        signal = tmp_path / "fsk.f64"
        decoded = tmp_path / "decoded.txt"
        assert run_cli("payload", "--seed", "7", "--bits", "64", "--out", str(bits)).returncode == 0
        assert run_cli("modulate", "--in", str(bits), "--scheme", "fsk",
                       "--out", str(signal)).returncode == 0
        result = run_cli("demodulate", "--in", str(signal), "--scheme", "fsk",
                         "--n-bits", "64", "--expected", str(bits), "--out", str(decoded))
        assert result.returncode == 0
        assert "BER 0" in result.stdout
        assert decoded.read_text() == bits.read_text()

    def test_hex_payload(self, tmp_path):
        bits = tmp_path / "bits.txt"
        result = run_cli("payload", "--hex", "A3", "--out", str(bits))
        assert result.returncode == 0
        assert bits.read_text().strip() == "10100011"

    def test_encode_outputs(self, tmp_path):
        bits = tmp_path / "bits.txt"
        run_cli("payload", "--hex", "0F", "--bit-rate", "100", "--out", str(bits))
        levels = tmp_path / "levels.txt"
        rect = tmp_path / "rect.f64"
        result = run_cli("encode", "--in", str(bits), "--bit-rate", "100",
                         "--manchester-out", str(levels),
                         "--rect-out", str(rect), "--sample-rate", "800")
        assert result.returncode == 0
        assert levels.read_text().strip() == "1010101001010101"
        assert (tmp_path / "rect.f64.json").exists()

    def test_encode_rejects_a_non_integer_samples_per_bit(self, tmp_path, capsys):
        bits = tmp_path / "bits.txt"
        bits.write_text("01101001\n")
        rect, signal = tmp_path / "rect.f64", tmp_path / "psk.f64"
        rates = ["--bit-rate", "300", "--sample-rate", "1000"]
        assert main(["encode", "--in", str(bits), *rates, "--rect-out", str(rect)]) == 1
        encode_error = capsys.readouterr().err
        assert main(["modulate", "--in", str(bits), "--scheme", "psk", "--fc", "100", *rates,
                     "--out", str(signal)]) == 1
        assert encode_error == capsys.readouterr().err
        assert encode_error.startswith("error:") and len(encode_error.splitlines()) == 1
        assert not rect.exists()

    def test_encode_without_outputs_fails(self, tmp_path):
        bits = tmp_path / "bits.txt"
        run_cli("payload", "--hex", "0F", "--out", str(bits))
        result = run_cli("encode", "--in", str(bits))
        assert result.returncode == 1
        assert "error:" in result.stderr

    def test_channel_and_spectrum_and_peaks(self, tmp_path):
        bits = tmp_path / "bits.txt"
        signal = tmp_path / "sig.f64"
        noisy = tmp_path / "noisy.f64"
        spectrum = tmp_path / "spec.f64"
        peaks = tmp_path / "peaks.csv"
        run_cli("payload", "--seed", "0", "--bits", "64", "--out", str(bits))
        run_cli("modulate", "--in", str(bits), "--scheme", "fsk", "--compose",
                "--out", str(signal))
        result = run_cli("channel", "--in", str(signal), "--snr-db", "20",
                         "--seed", "5", "--out", str(noisy))
        assert result.returncode == 0
        assert "measured SNR" in result.stdout
        assert run_cli("spectrum", "--in", str(noisy), "--out", str(spectrum)).returncode == 0
        result = run_cli("peaks", "--spectrum", str(spectrum),
                         "--min-separation", "125", "--out", str(peaks))
        assert result.returncode == 0
        freqs = [float(r.split(",")[0]) for r in peaks.read_text().splitlines()[1:]]
        assert freqs == [1875.0, 2000.0, 2125.0]

    def test_non_finite_snr_rejected(self, tmp_path):
        bits = tmp_path / "bits.txt"
        signal = tmp_path / "sig.f64"
        noisy = tmp_path / "noisy.f64"
        run_cli("payload", "--seed", "0", "--bits", "16", "--out", str(bits))
        run_cli("modulate", "--in", str(bits), "--scheme", "psk", "--out", str(signal))
        result = run_cli("channel", "--in", str(signal), "--snr-db", "nan", "--out", str(noisy))
        assert result.returncode == 1
        assert len(result.stderr.strip().splitlines()) == 1
        assert not noisy.exists()

    @pytest.mark.parametrize("corrupt", [
        lambda path, meta: path.write_bytes(path.read_bytes()[:8 * (meta["shape"][0] // 2)]),
        lambda path, meta: set_magnitude(path, math.nan),
        lambda path, meta: set_magnitude(path, -1.0),
        lambda path, meta: meta.__setitem__("shape", [1, meta["shape"][0]]),
        lambda path, meta: meta.__setitem__("fft_size", True),
        lambda path, meta: meta.__setitem__("fft_size", meta["fft_size"] * 2),
        lambda path, meta: meta.__setitem__("fft_size", 2 ** 62),
        lambda path, meta: meta.__setitem__("sample_rate", 0),
        lambda path, meta: meta.pop("fft_size"),
    ], ids=["half-the-rows", "nan-magnitude", "negative-magnitude", "wrong-shape",
            "non-numeric-metadata", "fft-size-mismatched", "fft-size-beyond-any-array",
            "sample-rate-zero", "missing-key"])
    def test_bad_spectrum_csv_fails_cleanly(self, tmp_path, capsys, corrupt):
        signal = tmp_path / "sig.f64"
        spectrum = tmp_path / "spec.f64"
        write_signal(MODULATORS["psk"](random_payload(0, 16, 250.0), CarrierSpec(2000.0)), signal)
        assert main(["spectrum", "--in", str(signal), "--out", str(spectrum)]) == 0
        meta = json.loads(sidecar_path(spectrum).read_text())
        corrupt(spectrum, meta)
        sidecar_path(spectrum).write_text(json.dumps(meta))
        capsys.readouterr()
        peaks = tmp_path / "p.csv"
        assert main(["peaks", "--spectrum", str(spectrum), "--out", str(peaks)]) == 1
        assert one_line_error(capsys)
        assert not peaks.exists()

    def test_stft_output(self, tmp_path):
        bits = tmp_path / "bits.txt"
        signal = tmp_path / "sig.f64"
        gram = tmp_path / "gram.f64"
        run_cli("payload", "--seed", "0", "--bits", "16", "--out", str(bits))
        run_cli("modulate", "--in", str(bits), "--scheme", "psk", "--out", str(signal))
        result = run_cli("spectrum", "--in", str(signal), "--stft", "--out", str(gram))
        assert result.returncode == 0
        assert "23 frames x 129 bins" in result.stdout
        # 16 bits of 192 samples in 256-sample windows 128 apart.
        assert read_spectrogram(gram).magnitudes.shape == (23, 129)

    def test_features_json(self, tmp_path):
        bits = tmp_path / "bits.txt"
        signal = tmp_path / "sig.f64"
        features = tmp_path / "features.json"
        run_cli("payload", "--seed", "1", "--bits", "32", "--out", str(bits))
        run_cli("modulate", "--in", str(bits), "--scheme", "fsk", "--out", str(signal))
        assert run_cli("features", "--in", str(signal), "--out", str(features)).returncode == 0
        doc = json.loads(features.read_text())
        assert set(doc) == {"rms_power", "zero_crossing_rate", "crest_factor",
                            "spectral_centroid", "spectral_bandwidth", "spectral_entropy",
                            "dominant_peaks"}

    def test_fsk_phase_reset(self, tmp_path):
        bits = tmp_path / "bits.txt"
        assert main(["payload", "--seed", "7", "--bits", "64", "--out", str(bits)]) == 0
        written = {}
        for scheme in ("fsk", "psk"):
            for flags in ((), ("--fsk-phase-reset",)):
                out = tmp_path / f"{scheme}{len(flags)}.f64"
                assert main(["modulate", "--in", str(bits), "--scheme", scheme, *flags,
                             "--out", str(out)]) == 0
                written[scheme, bool(flags)] = out.read_bytes() + sidecar_path(out).read_bytes()
        expected = tmp_path / "expected.f64"
        write_signal(fsk_modulate(read_bits(bits, DEFAULTS.bit_rate), DEFAULTS.carrier,
                                  phase_continuous=False), expected)
        assert written["fsk", True] == expected.read_bytes() + sidecar_path(expected).read_bytes()
        assert written["fsk", True] != written["fsk", False]
        assert written["psk", True] == written["psk", False]


def edit_template(edit):
    """An edit of a 2.0 library entry that applies ``edit`` to its template values, a list."""
    def apply(entry):
        values = template_values(entry)
        edit(values)
        entry["template_f64"] = f64_text(values)
    return apply


class TestLibraryCommands:
    def make_template(self, tmp_path, scheme, seed):
        bits = tmp_path / f"{scheme}_bits.txt"
        signal = tmp_path / f"{scheme}.f64"
        run_cli("payload", "--seed", str(seed), "--bits", "512", "--out", str(bits))
        run_cli("modulate", "--in", str(bits), "--scheme", scheme, "--out", str(signal))
        return signal

    def test_add_list_classify(self, tmp_path):
        library = tmp_path / "lib.json"
        for scheme, seed in (("fsk", 10), ("psk", 20)):
            signal = self.make_template(tmp_path, scheme, seed)
            result = run_cli("library-add", "--library", str(library), "--label", scheme,
                             "--in", str(signal), "--meta", f"seed={seed}")
            assert result.returncode == 0
        listing = run_cli("library-list", "--library", str(library))
        assert listing.returncode == 0
        assert "fsk" in listing.stdout and "psk" in listing.stdout
        probe = self.make_template(tmp_path, "fsk", 10)
        verdict = tmp_path / "verdict.json"
        result = run_cli("classify", "--in", str(probe), "--library", str(library),
                         "--threshold", "0.5", "--out", str(verdict))
        assert result.returncode == 0
        assert "label: fsk" in result.stdout
        assert json.loads(verdict.read_text())["label"] == "fsk"

    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc.update(fft_size="abc"),
        lambda doc: doc.update(fft_size=None),
        lambda doc: doc.update(fft_size=4096.7),
        lambda doc: doc.update(sample_rate="x"),
        lambda doc: doc.update(entries=5),
        lambda doc: doc.update(entries=[5]),
        lambda doc: doc["entries"][0].update(template_f64="abc"),
        lambda doc: doc["entries"][0].update(template_f64=f64_text([0.5] * 2048)),
        lambda doc: doc["entries"][0].update(label=5),
        lambda doc: doc["entries"][0].update(metadata=5),
        lambda doc: doc.update(version=3),
        lambda doc: doc.update(sample_rate=True),
        lambda doc: doc.update(version={"major": True, "minor": 0}),
        lambda doc: as_version_1(doc)["entries"][0].update(template_magnitudes=[10 ** 400] * 2049),
        lambda doc: doc["entries"][0].update(metadata={"k": math.nan}),
        lambda doc: doc["entries"][0].update(label="unknown"),
    ], ids=["fft-size-string", "fft-size-null", "fft-size-float", "sample-rate-string",
            "entries-number", "entry-number", "magnitudes-string", "magnitudes-short",
            "label-number", "metadata-number", "version-number", "sample-rate-bool",
            "version-major-bool", "magnitudes-beyond-float", "metadata-nan", "label-unknown"])
    def test_bad_library_is_one_line_error(self, tmp_path, capsys, corrupt):
        t = np.arange(4096) / 48000.0
        tone = SampledSignal(48000.0, np.cos(2 * np.pi * 1000.0 * t))
        path = tmp_path / "lib.json"
        library_save(library_add(SignatureLibrary(4096, 48000.0), "tone", tone), path)
        doc = json.loads(path.read_text())
        corrupt(doc)
        # json.dumps spells an infinite float Infinity; 1e400 is the literal
        # that overflows to it.
        path.write_text(json.dumps(doc).replace("Infinity", "1e400"))
        assert main(["library-list", "--library", str(path)]) == 1
        assert one_line_error(capsys)

    @pytest.mark.parametrize("edit, where, message", [
        (edit_template(lambda m: m.__setitem__(3, 5.0)), "entry 1 ('b'): ",
         "template spectrum energy must be 1, got "),
        (lambda entry: entry.update(label="unknown"), "entry 1 ('unknown'): ",
         "label 'unknown' is reserved for a rejected signal"),
        (lambda entry: entry.update(label="a"), "",
         "label 'a' already exists in the library"),
        (edit_template(list.pop), "entry 1 ('b'): ",
         "magnitudes must have shape (2049,) for fft_size 4096, got (2048,)"),
        (lambda entry: entry.update(metadata=[1]), "entry 1 ('b'): ",
         "metadata must be a dict, got [1]"),
        (edit_template(lambda m: m.__setitem__(3, -1e-3)), "entry 1 ('b'): ",
         "magnitudes must be nonnegative"),
        (lambda entry: entry.update(template_f64="%" * 8), "entry 1 ('b'): ",
         "template_f64 is not base64 ("),
        (lambda entry: entry.update(template_f64="\u00e9" * 4), "entry 1 ('b'): ",
         "template_f64 is not base64 ("),
        (lambda entry: entry.update(template_f64=entry["template_f64"][:-4] + "AAA="),
         "entry 1 ('b'): ", "template_f64 holds 16391 bytes, not a whole number of float64s"),
        (lambda entry: entry.update(template_f64=f64_text([0.5] * 4)), "entry 1 ('b'): ",
         "magnitudes must have shape (2049,) for fft_size 4096, got (4,)"),
        (edit_template(lambda m: m.__setitem__(3, math.nan)), "entry 1 ('b'): ",
         "magnitudes must be finite"),
        (lambda entry: entry.update(template_f64=5), "entry 1 ('b'): ",
         "template_f64 must be a base64 string, got 5"),
        (lambda entry: entry.update(template_f64=[0.5] * 2049), "entry 1 ('b'): ",
         "template_f64 must be a base64 string, got [0.5, 0.5, "),
        (lambda entry: entry.update(template_magnitudes=template_values(entry)), "entry 1 ('b'): ",
         "a 2.x entry stores its template as 'template_f64' only"),
    ], ids=["energy", "label-unknown", "label-repeated", "shape", "metadata-list",
            "magnitude-negative", "f64-not-base64", "f64-not-ascii", "f64-partial-value",
            "f64-count", "f64-nan", "f64-number", "f64-list", "f64-with-magnitudes"])
    def test_bad_entry_error_names_file_and_entry(self, tmp_path, capsys, edit, where, message):
        t = np.arange(4096) / 48000.0
        library = SignatureLibrary(4096, 48000.0)
        for label, freq in (("a", 1000.0), ("b", 3000.0)):
            tone = SampledSignal(48000.0, np.cos(2 * np.pi * freq * t))
            library = library_add(library, label, tone)
        path = tmp_path / "lib.json"
        library_save(library, path)
        doc = json.loads(path.read_text())
        edit(doc["entries"][1])
        path.write_text(json.dumps(doc))
        assert main(["library-list", "--library", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {where}{message}")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("key, value, message", [
        ("fft_size", 48, "fft_size must be a power of two, got 48"),
        ("sample_rate", -1, "sample_rate must be a finite number > 0, got -1"),
    ], ids=["fft-size", "sample-rate"])
    def test_bad_grid_error_names_file(self, tmp_path, capsys, key, value, message):
        path = tmp_path / "lib.json"
        library_save(SignatureLibrary(4096, 48000.0), path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        assert main(["library-list", "--library", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_empty_label_fails(self, tmp_path, capsys):
        library = tmp_path / "lib.json"
        signal = self.make_template(tmp_path, "fsk", 10)
        assert main(["library-add", "--library", str(library), "--label", "",
                     "--in", str(signal)]) == 1
        assert one_line_error(capsys)
        assert not library.exists()

    def test_unknown_label_fails(self, tmp_path, capsys):
        library = tmp_path / "lib.json"
        signal = self.make_template(tmp_path, "fsk", 10)
        assert main(["library-add", "--library", str(library), "--label", "unknown",
                     "--in", str(signal)]) == 1
        assert one_line_error(capsys)
        assert not library.exists()

    def test_duplicate_label_fails(self, tmp_path):
        library = tmp_path / "lib.json"
        signal = self.make_template(tmp_path, "fsk", 10)
        assert run_cli("library-add", "--library", str(library), "--label", "x",
                       "--in", str(signal)).returncode == 0
        result = run_cli("library-add", "--library", str(library), "--label", "x",
                         "--in", str(signal))
        assert result.returncode == 1


class TestRun:
    def test_defaults_deterministic(self, tmp_path):
        a = tmp_path / "exp1"
        b = tmp_path / "exp2"
        assert run_cli("run", "--defaults", "--out", str(a)).returncode == 0
        assert run_cli("run", "--defaults", "--out", str(b)).returncode == 0
        assert directory_bytes(a) == directory_bytes(b)

    def test_fsk_snr10_ber(self, tmp_path):
        out = tmp_path / "exp"
        result = run_cli("run", "--modulation", "fsk", "--snr-db", "10",
                         "--demodulate", "--out", str(out))
        assert result.returncode == 0
        report = json.loads((out / "report.json").read_text())
        assert report["ber"] < 1e-2

    @pytest.mark.parametrize("scheme", sorted(MODULATORS))
    def test_every_scheme_decodes_at_5db(self, tmp_path, scheme):
        out = tmp_path / "exp"
        assert main(["run", "--defaults", "--modulation", scheme, "--payload-bits", "1024",
                     "--snr-db", "5", "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["bit_errors"] == 0

    @pytest.mark.parametrize("channel", [
        ["--attenuation-db", "10"],
        ["--attenuation-db", "10", "--no-compose", "--snr-db", "20"],
        ["--attenuation-db", "30", "--snr-db", "10"],
    ], ids=["noiseless", "no-compose", "30db-down"])
    def test_ask_decides_against_the_attenuated_carrier(self, tmp_path, channel):
        # ASK's threshold is half the bit energy of the carrier as received.
        out = tmp_path / "exp"
        assert main(["run", "--defaults", "--modulation", "ask", "--payload-bits", "1024",
                     *channel, "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["bit_errors"] == 0

    def test_a_carrier_attenuated_below_the_least_float_still_runs(self, tmp_path):
        assert main(["run", "--defaults", "--modulation", "ask", "--attenuation-db", "7000",
                     "--noise-power", "1", "--out", str(tmp_path / "exp")]) == 0

    def test_nyquist_violation(self, tmp_path):
        result = run_cli("run", "--fc", "30000", "--sample-rate", "48000",
                         "--out", str(tmp_path / "exp"))
        assert result.returncode == 1
        assert "error:" in result.stderr

    def test_config_file_matches_defaults(self, tmp_path):
        a = tmp_path / "from_config"
        b = tmp_path / "from_defaults"
        assert run_cli("run", "--config", str(DEFAULT_CONFIG), "--out", str(a)).returncode == 0
        assert run_cli("run", "--defaults", "--out", str(b)).returncode == 0
        assert directory_bytes(a) == directory_bytes(b)

    def test_config_and_defaults_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["run", "--config", str(DEFAULT_CONFIG), "--defaults",
                  "--out", str(tmp_path / "exp")])
        assert info.value.code == 2
        assert not (tmp_path / "exp").exists()

    CHANNEL = {"attenuation_db": 3.0, "snr_db": 10.0, "noise_power": None, "seed": 5}

    @pytest.mark.parametrize("flags, changes", [
        (["--attenuation-db", "6"], {"attenuation_db": 6.0}),
        (["--snr-db", "20"], {"snr_db": 20.0}),
        (["--noise-power", "0.5"], {"snr_db": None, "noise_power": 0.5}),
        (["--channel-seed", "9"], {"seed": 9}),
    ], ids=["attenuation", "snr", "noise-power", "seed"])
    def test_channel_flags_edit_the_config_channel(self, tmp_path, flags, changes):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(json.loads(DEFAULT_CONFIG.read_text()),
                                          channel={"attenuation_db": 3.0, "snr_db": 10.0,
                                                   "seed": 5})))
        out = tmp_path / "exp"
        assert main(["run", "--config", str(config), *flags, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["channel"] == dict(self.CHANNEL, **changes)

    def test_attenuation_alone_is_a_noiseless_channel(self, tmp_path):
        out = tmp_path / "exp"
        assert main(["run", "--defaults", "--attenuation-db", "6", "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        # The infinite SNR of a noiseless channel is recorded as null.
        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert report["measured_snr_db"] is None
        assert report["config"]["channel"] == {"attenuation_db": 6.0, "snr_db": None,
                                               "noise_power": 0.0, "seed": 0}

    def test_channel_seed_without_a_channel_is_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "exp"
        assert main(["run", "--defaults", "--channel-seed", "9", "--out", str(out)]) == 1
        assert one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        dict(json.loads(DEFAULT_CONFIG.read_text()),
             carrier={"center_frequency": 2000.0, "flux": 1.0}),
        dict(json.loads(DEFAULT_CONFIG.read_text()), channel={"snr_db": 10.0, "flux": 1.0}),
        dict(json.loads(DEFAULT_CONFIG.read_text()), seed="abc"),
        ["not", "an", "object"],
        dict(json.loads(DEFAULT_CONFIG.read_text()), stft_window=100.5),
        dict(json.loads(DEFAULT_CONFIG.read_text()), stft_hop=1.5),
        dict(json.loads(DEFAULT_CONFIG.read_text()), stft_window_type="blackman"),
        dict(json.loads(DEFAULT_CONFIG.read_text()), compose_with_carrier="no"),
        dict(json.loads(DEFAULT_CONFIG.read_text()), demodulate="no"),
        dict(json.loads(DEFAULT_CONFIG.read_text()), classification_threshold="x"),
        dict(json.loads(DEFAULT_CONFIG.read_text()), classification_threshold=1.5),
        dict(json.loads(DEFAULT_CONFIG.read_text()), modulation=["fsk"]),
        dict(json.loads(DEFAULT_CONFIG.read_text()), carrier=None),
        dict(json.loads(DEFAULT_CONFIG.read_text()), library_path=5),
        dict(json.loads(DEFAULT_CONFIG.read_text()), channel={"snr_db": 10.0, "seed": 1.5}),
        dict(json.loads(DEFAULT_CONFIG.read_text()), channel={"snr_db": 1e300}),
        dict(json.loads(DEFAULT_CONFIG.read_text()), payload_bits=True),
        dict(json.loads(DEFAULT_CONFIG.read_text()), stft_window_type=[]),
        dict(json.loads(DEFAULT_CONFIG.read_text()), modulation="ask",
             carrier=dict(json.loads(DEFAULT_CONFIG.read_text())["carrier"], amplitude=1e300)),
    ], ids=["carrier-key", "channel-key", "seed", "not-an-object", "stft-window-float",
            "stft-hop-float", "stft-window-type", "compose-string", "demodulate-string",
            "threshold-string", "threshold-above-one", "modulation-list", "carrier-null",
            "library-path-number", "channel-seed-float", "channel-snr-huge",
            "payload-bits-bool", "stft-window-type-list", "ask-amplitude-huge"])
    def test_bad_config_fails_cleanly(self, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "exp"
        result = run_cli("run", "--config", str(bad), "--out", str(out))
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
        assert len(result.stderr.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--stft-window", "100000"], ["--stft-window", "1"],
                                       ["--stft-hop", "0"]],
                             ids=["window-too-long", "window-too-short", "hop-zero"])
    def test_bad_stft_leaves_no_run_dir(self, tmp_path, flags):
        out = tmp_path / "half"
        result = run_cli("run", "--defaults", *flags, "--out", str(out))
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
        assert len(result.stderr.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags, changes, name", [
        (["--fc", "nan"], {}, "center_frequency"),
        (["--amplitude", "inf"], {}, "amplitude"),
        ([], {"payload_bits": 8.5}, "payload_bits"),
        ([], {"bit_rate": "x"}, "bit_rate"),
        ([], {"peak_relative_threshold": 2}, "relative_threshold"),
        ([], {"stft_hop": True}, "hop"),
        ([], {"peak_relative_threshold": True}, "relative_threshold"),
        ([], {"peak_min_separation": True}, "min_separation"),
        ([], {"carrier": dict(json.loads(DEFAULT_CONFIG.read_text())["carrier"], amplitude=True)},
         "amplitude"),
        ([], {"channel": {"snr_db": True}}, "snr_db"),
        ([], {"channel": {"snr_db": 10.0, "seed": True}}, "seed"),
        ([], {"payload_bits": 10 ** 400}, "payload_bits"),
        ([], {"stft_hop": 10 ** 400}, "hop"),
    ], ids=["fc-nan", "amplitude-inf", "payload-bits-float", "bit-rate-string",
            "peak-threshold-above-one", "stft-hop-bool", "peak-threshold-bool",
            "peak-separation-bool", "amplitude-bool", "snr-db-bool", "channel-seed-bool",
            "payload-bits-beyond-int64", "stft-hop-beyond-int64"])
    def test_bad_field_leaves_no_run_dir(self, tmp_path, capsys, flags, changes, name):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(json.loads(DEFAULT_CONFIG.read_text()), **changes)))
        out = tmp_path / "half"
        assert main(["run", "--config", str(config), *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert name in err
        assert not out.exists()

    @pytest.mark.parametrize("changes", [
        {"stft_window": 1},
        {"stft_hop": 0},
        {"stft_window_type": "kaiser"},
        {"peak_relative_threshold": 2.0},
        {"peak_min_separation": -1.0},
        {"stft_window": 64 * 192 + 1},  # 64 bits of 192 samples
        {"stft_hop": 1},  # 12 033 frames x 129 bins: 126 magnitudes per sample
    ], ids=["window-one", "hop-zero", "window-kaiser", "threshold-two", "separation-negative",
            "window-beyond-signal", "grid-beyond-64-per-sample"])
    def test_bad_analysis_setting_fails_at_construction(self, tmp_path, changes):
        doc = dict(json.loads(DEFAULT_CONFIG.read_text()), **changes)
        with pytest.raises(RadsimError):
            ExperimentConfig(**changes)
        with pytest.raises(RadsimError):
            config_from_json(doc)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        code, lines, caught = cli_result(["run", "--config", str(config),
                                          "--out", str(tmp_path / "exp")])
        assert (code, caught) == (1, [])
        assert len(lines) == 1 and lines[0].startswith("error:")
        # Nothing was written, not even the hidden .partial sibling.
        assert list(tmp_path.iterdir()) == [config]

    def test_failed_run_removes_parents_it_made(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        out = tmp_path / "a" / "b" / "c" / "d"
        assert main(["run", "--defaults", "--stft-hop", "0", "--out", str(out)]) == 1
        assert one_line_error(capsys)
        assert [p.name for p in tmp_path.rglob("*")] == ["a"]
        # A run that succeeds keeps the parents it made.
        assert main(["run", "--defaults", "--out", str(out)]) == 0
        assert (out / "report.json").is_file()

    def test_unallocatable_payload_leaves_no_run_dir(self, tmp_path, capsys):
        # 2**60 payload bits need 1 EiB, more than any address space holds.
        out = tmp_path / "half"
        assert main(["run", "--defaults", "--payload-bits", str(2 ** 60), "--out", str(out)]) == 1
        assert one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("modulation", sorted(MODULATORS))
    def test_unallocatable_carrier_leaves_no_run_dir(self, tmp_path, capsys, modulation):
        # At 1e300 Hz the carrier has 2.6e299 samples, beyond any array size.
        out = tmp_path / "half"
        assert main(["run", "--defaults", "--modulation", modulation,
                     "--sample-rate", "1e300", "--out", str(out)]) == 1
        assert one_line_error(capsys)
        assert not out.exists()

    def test_used_out_is_refused(self, tmp_path, capsys):
        out = tmp_path / "exp"
        library = tmp_path / "lib.json"
        signal = MODULATORS["fsk"](random_payload(99, 64, 250.0), CarrierSpec(2000.0))
        library_save(library_add(SignatureLibrary(), "fsk", signal), library)
        assert main(["run", "--defaults", "--library", str(library), "--out", str(out)]) == 0
        first = directory_bytes(out)
        capsys.readouterr()
        # Without the refusal this run would leave the first one's
        # classification.json and demodulated.txt behind, unlisted.
        assert main(["run", "--defaults", "--no-demodulate", "--out", str(out)]) == 1
        assert one_line_error(capsys)
        assert directory_bytes(out) == first
        (tmp_path / "file").write_text("x")
        assert main(["run", "--defaults", "--out", str(tmp_path / "file")]) == 1
        assert one_line_error(capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp", "file", "lib.json"]

    def test_empty_out_is_used(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert main(["run", "--defaults", "--out", str(tmp_path / "empty")]) == 0
        assert main(["run", "--defaults", "--out", str(tmp_path / "fresh")]) == 0
        assert directory_bytes(tmp_path / "empty") == directory_bytes(tmp_path / "fresh")

    def test_stft_csv_export_matches_run_spectrogram(self, tmp_path):
        run = tmp_path / "exp"
        assert main(["run", "--defaults", "--payload-bits", "1024", "--out", str(run)]) == 0
        exported = tmp_path / "stft.f64"
        assert main(["spectrum", "--in", str(run / "received.f64"), "--stft",
                     "--window-length", "256", "--hop", "128", "--out", str(exported)]) == 0
        assert exported.read_bytes() == (run / "stft.f64").read_bytes()
        assert sidecar_path(exported).read_bytes() == sidecar_path(run / "stft.f64").read_bytes()

    def test_spectrum_then_peaks_matches_run_peaks(self, tmp_path):
        run = tmp_path / "exp"
        assert main(["run", "--defaults", "--payload-bits", "1024", "--out", str(run)]) == 0
        spectrum, peaks = tmp_path / "spectrum.f64", tmp_path / "peaks.csv"
        assert main(["spectrum", "--in", str(run / "received.f64"), "--out", str(spectrum)]) == 0
        # The run's threshold and separation: 0.1 and half the bit rate.
        assert main(["peaks", "--spectrum", str(spectrum), "--relative-threshold", "0.1",
                     "--min-separation", "125", "--out", str(peaks)]) == 0
        assert peaks.read_bytes() == (run / "peaks.csv").read_bytes()

    def test_missing_library_leaves_no_run_dir(self, tmp_path):
        out = tmp_path / "half"
        result = run_cli("run", "--defaults", "--library", str(tmp_path / "nope.json"),
                         "--out", str(out))
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
        assert len(result.stderr.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--sample-rate", "96000"], ["--threshold", "1.5"]],
                             ids=["sample-rate", "threshold"])
    def test_library_mismatch_leaves_no_run_dir(self, tmp_path, flags):
        bits = tmp_path / "bits.txt"
        template = tmp_path / "template.f64"
        library = tmp_path / "lib.json"
        run_cli("payload", "--seed", "99", "--bits", "64", "--out", str(bits))
        run_cli("modulate", "--in", str(bits), "--scheme", "fsk", "--out", str(template))
        run_cli("library-add", "--library", str(library), "--label", "fsk", "--in", str(template))
        out = tmp_path / "half"
        result = run_cli("run", "--defaults", "--library", str(library), *flags, "--out", str(out))
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
        assert len(result.stderr.strip().splitlines()) == 1
        assert not out.exists()

    def test_classification_via_flags(self, tmp_path):
        bits = tmp_path / "bits.txt"
        template = tmp_path / "template.f64"
        library = tmp_path / "lib.json"
        run_cli("payload", "--seed", "99", "--bits", "512", "--out", str(bits))
        run_cli("modulate", "--in", str(bits), "--scheme", "fsk", "--out", str(template))
        run_cli("library-add", "--library", str(library), "--label", "fsk-template",
                "--in", str(template))
        out = tmp_path / "exp"
        result = run_cli("run", "--library", str(library), "--threshold", "0.5",
                         "--out", str(out))
        assert result.returncode == 0
        assert "classified as: fsk-template" in result.stdout


class TestEvaluate:
    def test_reruns_write_identical_json(self, tmp_path, capsys):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["evaluate", "--snr-db", "15", "--out", str(first)]) == 0
        assert "150/150 (100.0%)" in capsys.readouterr().out
        assert main(["evaluate", "--snr-db", "15", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert json.loads(first.read_text()) == {
            "decisions": {"ask": {"ask": 50}, "fsk": {"fsk": 50}, "psk": {"psk": 50}},
            "noise_rejected": 50, "probes": 50, "snr_db": 15.0, "threshold": 0.5}

    @pytest.mark.parametrize("flags", [["--probes", "0"], ["--probes", "1001"],
                                       ["--threshold", "1.5"], ["--snr-db", "nan"]],
                             ids=["no-probes", "too-many-probes", "threshold", "snr-nan"])
    def test_bad_flag_writes_nothing(self, tmp_path, capsys, flags):
        out = tmp_path / "result.json"
        assert main(["evaluate", *flags, "--out", str(out)]) == 1
        assert one_line_error(capsys)
        assert not out.exists()


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The ``radsim`` lines of the README's shell blocks, in order, without ``radsim``."""
    blocks = README.read_text().split("```")[1::2]
    return [shlex.split(line)[1:] for block in blocks if block.startswith("sh\n")
            for line in block.splitlines() if line.startswith("radsim ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    shutil.copytree(DEFAULT_CONFIG.parent, tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert sorted({argv[0] for argv in commands}) == sorted(SUBCOMMANDS)
    for argv in commands:
        assert main(argv) == 0, f"radsim {shlex.join(argv)}: {capsys.readouterr().err}"


# The hostile-config fuzz: every run config field, top-level or nested, may
# take any of these values.
HOSTILE = [None, True, "x", [], {}, -1, 0, 1.5, math.nan, math.inf, -math.inf, 1e300, 2 ** 60,
           10 ** 400]
# What a nested field is mutated inside when its object is missing or was
# itself replaced; the default config has no channel.
NESTED = {"carrier": json.loads(DEFAULT_CONFIG.read_text())["carrier"],
          "channel": {"attenuation_db": 0.0, "snr_db": 10.0, "noise_power": None, "seed": 0}}
RUN_FIELDS = ([(name,) for name in json.loads(DEFAULT_CONFIG.read_text())]
              + [(parent, name) for parent, fields in NESTED.items() for name in fields])


# Run flags the fuzz gives on top of a mutated config, each with the field it
# sets; a noise flag also clears the other noise field.
RUN_FLAGS = {"--fc": ("carrier", "center_frequency"), "--snr-db": ("channel", "snr_db"),
             "--noise-power": ("channel", "noise_power"),
             "--attenuation-db": ("channel", "attenuation_db"),
             "--channel-seed": ("channel", "seed")}
NOISE_FIELDS = {("channel", "snr_db"), ("channel", "noise_power")}
run_flag = st.sampled_from(sorted(RUN_FLAGS)).flatmap(lambda flag: st.tuples(
    st.just(flag),
    st.sampled_from(["-1", "10"] if flag == "--channel-seed" else ["nan", "-1", "10"])))


def fields_set(flags):
    """The config fields that ``flags`` (flag, value pairs) set or clear."""
    paths = {RUN_FLAGS[flag] for flag, _ in flags}
    return paths | NOISE_FIELDS if paths & NOISE_FIELDS else paths


# Run config fields for which JSON true is a value: the two switches. In any
# other field it is an error.
TRUE_ALLOWED = {("compose_with_carrier",), ("demodulate",)}


def runs_large(path, value):
    """Pool values that are valid but run millions of samples rather than fail.

    A bit rate of 1.5 gives 32 000 samples per bit.
    """
    return path == ("bit_rate",) and value == 1.5


def field_value(doc, path):
    """The value at ``path`` (keys and list indices) in a JSON document; None off its end."""
    for key in path:
        try:
            doc = doc[key]
        except (KeyError, IndexError, TypeError):
            return None
    return doc


def cli_result(argv):
    """Exit code, stderr lines and warnings of ``main(argv)``."""
    err = io.StringIO()
    with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err),
          contextlib.redirect_stdout(io.StringIO())):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue().splitlines(), [str(w.message) for w in caught]


@pytest.mark.parametrize("command", [
    ["features", "--out", "features.json"],
    ["channel", "--snr-db", "10", "--out", "received.f64"],
    ["library-add", "--library", "lib.json", "--label", "big"],
], ids=lambda argv: argv[0])
def test_overflowing_signal_is_one_line_error(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    # Finite samples whose squares overflow float64.
    write_signal(SampledSignal(48000.0, np.full(128, 1e200) * np.cos(np.arange(128))), "big.f64")
    code, lines, caught = cli_result([command[0], "--in", "big.f64", *command[1:]])
    assert (code, caught) == (1, [])
    assert len(lines) == 1 and lines[0].startswith("error: the input's values are out of float64")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.f64", "big.f64.json"]


@settings(max_examples=200, deadline=None)
@given(scheme=st.sampled_from(sorted(MODULATORS)),
       mutations=st.lists(st.tuples(st.sampled_from(RUN_FIELDS), st.sampled_from(HOSTILE)),
                          min_size=1, max_size=3, unique_by=lambda m: m[0])
       .filter(lambda ms: not any(runs_large(path, value) for path, value in ms)),
       flags=st.lists(run_flag, max_size=2, unique_by=lambda f: f[0]))
def test_hostile_run_config_fails_cleanly(scheme, mutations, flags):
    doc = dict(json.loads(DEFAULT_CONFIG.read_text()), modulation=scheme)
    for path, value in mutations:
        if len(path) == 2 and not isinstance(doc[path[0]], dict):
            doc[path[0]] = dict(NESTED[path[0]])
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = json.loads(json.dumps(value))  # a fresh [] or {} each time
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        code, lines, caught = cli_result(["run", "--config", str(config), *sum(flags, ()),
                                          "--out", str(Path(tmp) / "exp")])
        # A warning is one more stderr line on the command line.
        assert caught == []
        assert code in (0, 1)
        if any(field_value(doc, path) is True for path in RUN_FIELDS
               if path not in TRUE_ALLOWED | fields_set(flags)):
            assert code == 1
        if code == 1:
            assert len(lines) == 1 and lines[0].startswith("error:")
            assert sorted(p.name for p in Path(tmp).iterdir()) == ["config.json"]


# The library fuzz: a saved library's top-level fields and its first entry's
# fields may take any HOSTILE value.
LIBRARY_FIELDS = ([(name,) for name in ("format", "version", "fft_size", "sample_rate", "entries")]
                  + [("entries", 0, name)
                     for name in ("label", "template_f64", "template_magnitudes", "metadata")])


@pytest.fixture(scope="module")
def saved_library(tmp_path_factory):
    """A saved two-template library's JSON document, and a probe signal file."""
    tmp = tmp_path_factory.mktemp("library")
    library = SignatureLibrary()
    for scheme, seed in (("fsk", 10), ("psk", 20)):
        template = MODULATORS[scheme](random_payload(seed, 64, 250.0), CarrierSpec(2000.0))
        library = library_add(library, scheme, template, {"seed": str(seed)})
    library_save(library, tmp / "lib.json")
    probe = tmp / "probe.f64"
    write_signal(MODULATORS["fsk"](random_payload(30, 64, 250.0), CarrierSpec(2000.0)), probe)
    return json.loads((tmp / "lib.json").read_text()), probe


@settings(max_examples=200, deadline=None)
@given(mutations=st.lists(st.tuples(st.sampled_from(LIBRARY_FIELDS), st.sampled_from(HOSTILE)),
                          min_size=1, max_size=3, unique_by=lambda m: m[0]))
@example(mutations=[(("sample_rate",), True)])
def test_hostile_library_fails_cleanly(saved_library, mutations):
    base, probe = saved_library
    doc = json.loads(json.dumps(base))
    # Deepest first, so a field's container is still there when it is set.
    for path, value in sorted(mutations, key=lambda m: -len(m[0])):
        field_value(doc, path[:-1])[path[-1]] = json.loads(json.dumps(value))
    with tempfile.TemporaryDirectory() as tmp:
        library = Path(tmp) / "lib.json"
        library.write_text(json.dumps(doc))
        for argv in (["library-list", "--library", str(library)],
                     ["classify", "--in", str(probe), "--library", str(library)]):
            code, lines, caught = cli_result(argv)
            assert caught == []
            assert code in (0, 1)
            if any(field_value(doc, path) is True for path in LIBRARY_FIELDS):
                assert code == 1
            if code == 1:
                assert len(lines) == 1 and lines[0].startswith("error:")
