"""The CLI contract, checked for every numeric option and every f64 file input.

Every ``int`` or ``float`` option of every subcommand takes each of
``VALUES`` on top of its subcommand's base command line. Each case runs in
process through :func:`radsim.cli.main`, in a fresh working directory. The
contract:

* the command exits 0, 1 or 2, and no exception or warning escapes it;
* exit 1 prints one ``error:`` line to stderr and nothing to stdout;
* a command that fails leaves its directory's listing as it was;
* a value that the option's type does not parse is a usage error (exit 2);
* every ``int`` option is a count or a seed, so ``-1`` is refused (exit 1);
* a ``float`` option refuses nan and ±inf (exit 1).

Every option that reads a signal or spectrum file is also given each of
``CORRUPTIONS`` of a valid one, and must exit 1 with one ``error:`` line that
names the file, writing nothing.
"""

import argparse
import json
import math
import shutil

import numpy as np
import pytest

from radsim.cli import build_parser, main
from radsim.codec import random_payload, write_bits
from radsim.modulation import CarrierSpec, fsk_modulate
from radsim.recognition import SignatureLibrary, library_add, library_save
from radsim.signals import sidecar_path, write_signal
from radsim.spectral import fft_magnitude, write_spectrum

VALUES = ["-1", "0", "1", "3", "0.5", "nan", "inf", "-inf", "1e308", "-1e308", str(2 ** 70),
          "5e-324", ""]

# One small valid command line per subcommand. ``{bits}``, ``{signal}``,
# ``{spectrum}`` and ``{library}`` name the shared inputs; every output is
# relative, so it lands in the case's own directory. At 8 bits of 192
# samples, the lowest rate of the values (0.5 bit/s) makes 768 000 samples.
BASES = {
    "propagate": ["--n", "10", "--m", "2", "--steps", "5", "--method", "montecarlo",
                  "--trials", "3", "--out", "curve.csv"],
    "payload": ["--bits", "8", "--out", "bits.txt"],
    "encode": ["--in", "{bits}", "--out", "levels.txt"],
    "modulate": ["--in", "{bits}", "--scheme", "fsk", "--out", "sig.f64"],
    "demodulate": ["--in", "{signal}", "--scheme", "fsk", "--out", "decoded.txt"],
    "channel": ["--in", "{signal}", "--snr-db", "10", "--out", "noisy.f64"],
    "spectrum": ["--in", "{signal}", "--stft", "--out", "spectrogram.f64"],
    "peaks": ["--spectrum", "{spectrum}", "--out", "peaks.csv"],
    "features": ["--in", "{signal}", "--out", "features.json"],
    "library-add": ["--library", "lib.json", "--label", "fsk", "--in", "{signal}"],
    "library-list": ["--library", "{library}"],
    "classify": ["--in", "{signal}", "--library", "{library}", "--out", "result.json"],
    "run": ["--defaults", "--payload-bits", "8", "--out", "exp"],
    "evaluate": ["--probes", "1", "--out", "evaluation.json"],
}


def subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


CASES = [(name, action.option_strings[0], value)
         for name, parser in subcommands().items() for action in parser._actions
         if action.type in (int, float) for value in VALUES]


def with_option(parser, base, flag, value):
    """``base`` without ``flag`` and its exclusive alternatives, then ``flag=value``."""
    action = parser._option_string_actions[flag]
    dropped = {flag}
    for group in parser._mutually_exclusive_groups:
        if action in group._group_actions:
            dropped.update(s for a in group._group_actions for s in a.option_strings)
    argv, tokens = [], iter(base)
    for token in tokens:
        if token in dropped:
            if parser._option_string_actions[token].nargs != 0:
                next(tokens)  # the dropped option's value
        else:
            argv.append(token)
    # One token, so argparse does not take a value such as -inf for an option.
    return argv + [f"{flag}={value}"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The bases' input files: 8 bits, their FSK signal, its spectrum and a library."""
    tmp = tmp_path_factory.mktemp("inputs")
    stream = random_payload(1, 8, 250.0)
    signal = fsk_modulate(stream, CarrierSpec(2000.0))
    paths = {name: tmp / file for name, file in (("bits", "bits.txt"), ("signal", "sig.f64"),
                                                 ("spectrum", "spectrum.f64"),
                                                 ("library", "lib.json"))}
    write_bits(stream, paths["bits"])
    write_signal(signal, paths["signal"])
    write_spectrum(fft_magnitude(signal), paths["spectrum"])
    library_save(library_add(SignatureLibrary(), "fsk", signal), paths["library"])
    return paths


def test_every_subcommand_has_a_base():
    assert sorted(BASES) == sorted(subcommands())


def test_numeric_option_count():
    assert len(CASES) == 38 * len(VALUES)


def is_number(value: str, kind) -> bool:
    try:
        kind(value)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("name, flag, value", CASES,
                         ids=[f"{name} {flag}={value}" for name, flag, value in CASES])
def test_numeric_option_keeps_the_contract(inputs, tmp_path, monkeypatch, capsys,
                                           name, flag, value):
    monkeypatch.chdir(tmp_path)
    parser = subcommands()[name]
    base = [token.format(**inputs) for token in BASES[name]]
    try:
        code = main([name, *with_option(parser, base, flag, value)])
    except SystemExit as exited:  # argparse's usage error
        code = exited.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    if code != 0:
        assert list(tmp_path.iterdir()) == []
    kind = parser._option_string_actions[flag].type
    if not is_number(value, kind):
        assert code == 2
    elif kind is int and int(value) < 0:
        assert code == 1
    elif kind is float and not math.isfinite(float(value)):
        assert code == 1


# Each option that reads an f64 file, by the input its base names.
FILE_INPUTS = [(name, base[base.index(token) - 1], token[1:-1])
               for name, base in BASES.items() for token in ("{signal}", "{spectrum}")
               if token in base]


def _edit_sidecar(edit):
    def corrupt(path):
        meta = json.loads(sidecar_path(path).read_text())
        edit(meta)
        sidecar_path(path).write_text(json.dumps(meta))
    return corrupt


def _grow_size(meta):
    """One more value in the sidecar's length or shape than the data holds."""
    if "length" in meta:
        meta["length"] += 1
    else:
        meta["shape"] = [meta["shape"][0] + 1]


def _to_directory(path):
    path.unlink()
    path.mkdir()


# Ways to break a file written by write_signal or write_spectrum, in place.
CORRUPTIONS = {
    "directory": _to_directory,
    "ragged-data": lambda path: path.write_bytes(path.read_bytes() + bytes(3)),
    "size-disagrees": _edit_sidecar(_grow_size),
    "sidecar-not-an-object": lambda path: sidecar_path(path).write_text("[]"),
    "sidecar-not-utf8": lambda path: sidecar_path(path).write_bytes(b'{"format": "\xff"}'),
    "nan-values": lambda path: path.write_bytes(np.array([np.nan], "<f8").tobytes()
                                                + path.read_bytes()[8:]),
    "rate-true": _edit_sidecar(lambda meta: meta.__setitem__("sample_rate", True)),
}


def test_every_f64_input_is_covered():
    assert FILE_INPUTS == [
        ("demodulate", "--in", "signal"), ("channel", "--in", "signal"),
        ("spectrum", "--in", "signal"), ("peaks", "--spectrum", "spectrum"),
        ("features", "--in", "signal"), ("library-add", "--in", "signal"),
        ("classify", "--in", "signal")]


@pytest.mark.parametrize("name, flag, kind", FILE_INPUTS,
                         ids=[f"{name} {flag}" for name, flag, _ in FILE_INPUTS])
@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_bad_file_input_keeps_the_contract(inputs, tmp_path, monkeypatch, capsys,
                                           name, flag, kind, corruption):
    bad = tmp_path / "in" / inputs[kind].name
    bad.parent.mkdir()
    for source in (inputs[kind], sidecar_path(inputs[kind])):
        shutil.copy(source, bad.parent)
    CORRUPTIONS[corruption](bad)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    code = main([name, *(token.format(**dict(inputs, **{kind: bad})) for token in BASES[name])])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert str(bad) in err
    assert list(work.iterdir()) == []

