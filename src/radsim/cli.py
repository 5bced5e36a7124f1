"""Command-line front end.

Every subcommand writes machine-readable output to the file paths named in
its flags and prints a short human summary to stdout. All randomness flows
from explicit ``--seed`` flags (default 0, never wall-clock). Exit codes:
0 success, 2 usage error (argparse), 1 runtime/domain error with a one-line
diagnostic on stderr and no new file left: every check precedes the first
write, and :func:`main` removes the outputs a failed command made.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import codec, pipeline, propagation, recognition, spectral
from .channel import ChannelParams, apply_channel, measure_snr
from .errors import ConfigurationError, RadsimError
from .modulation import (DEMODULATORS, MODULATORS, CarrierSpec, compose_emitted,
                         generate_carrier)
from .signals import _read_json, _read_text, _write_json, read_signal, sidecar_path, write_signal


_DEFAULTS = pipeline.DEFAULT_CONFIG
_BIT_RATE = _DEFAULTS.bit_rate
_CARRIER = _DEFAULTS.carrier


def _add_carrier_flags(parser):
    parser.add_argument("--fc", type=float, default=_CARRIER.center_frequency,
                        help="carrier center frequency, Hz")
    parser.add_argument("--amplitude", type=float, default=_CARRIER.amplitude,
                        help="carrier amplitude")
    parser.add_argument("--phase", type=float, default=_CARRIER.initial_phase,
                        help="carrier initial phase, radians")
    parser.add_argument("--sample-rate", type=float, default=_CARRIER.sample_rate,
                        help="sample rate, Hz")


def _carrier_from(args) -> CarrierSpec:
    return CarrierSpec(center_frequency=args.fc, amplitude=args.amplitude,
                       initial_phase=args.phase, sample_rate=args.sample_rate)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radsim",
        description="Deterministic signal-chain simulator: payload coding, digital "
                    "modulation, channel degradation, spectral analysis, and "
                    "signature-based recognition.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = command("propagate", _cmd_propagate, help="simulate the expected-infection curve")
    p.add_argument("--n", type=int, required=True, help="computer count N")
    p.add_argument("--m", type=int, required=True, help="communications per unit time M")
    p.add_argument("--x0", type=int, default=1, help="initially infected count")
    p.add_argument("--steps", type=int, default=100, help="number of time steps")
    p.add_argument("--method", choices=["closed", "recurrence", "montecarlo"], default="closed")
    p.add_argument("--trials", type=int, default=200, help="Monte Carlo trials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="curve CSV output path")

    p = command("payload", _cmd_payload, help="generate or convert a binary payload")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--bits", type=int, help="generate this many random bits")
    src.add_argument("--hex", help="hex string to expand into bits")
    src.add_argument("--hex-file", help="file containing a hex string")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bit-rate", type=float, default=_BIT_RATE)
    p.add_argument("--out", required=True, help="bit text file output path")

    p = command("encode", _cmd_encode,
                help="Manchester-encode bits and/or render a rectangular waveform")
    p.add_argument("--in", dest="infile", required=True, help="bit text file")
    p.add_argument("--bit-rate", type=float, default=_BIT_RATE)
    p.add_argument("--manchester-out", help="half-bit level text file output")
    p.add_argument("--rect-out", help="rectangular waveform signal output")
    p.add_argument("--sample-rate", type=float, default=_CARRIER.sample_rate, help="for --rect-out")
    p.add_argument("--high", type=float, default=1.0, help="rectangular high level")
    p.add_argument("--low", type=float, default=0.0, help="rectangular low level")

    p = command("modulate", _cmd_modulate, help="modulate a bit stream onto a carrier")
    p.add_argument("--in", dest="infile", required=True, help="bit text file")
    p.add_argument("--bit-rate", type=float, default=_BIT_RATE)
    p.add_argument("--scheme", choices=sorted(MODULATORS), required=True)
    _add_carrier_flags(p)
    p.add_argument("--compose", action="store_true", help="add the carrier to the modulated signal")
    p.add_argument("--fsk-phase-reset", action="store_true",
                   help="reset FSK phase at bit boundaries (literal per-bit cosines)")
    p.add_argument("--out", required=True, help="signal output path (raw f64 + JSON sidecar)")

    p = command("demodulate", _cmd_demodulate, help="recover bits from a modulated signal")
    p.add_argument("--in", dest="infile", required=True, help="signal input path")
    p.add_argument("--scheme", choices=sorted(DEMODULATORS), required=True)
    p.add_argument("--n-bits", type=int, required=True)
    p.add_argument("--bit-rate", type=float, default=_BIT_RATE)
    _add_carrier_flags(p)
    p.add_argument("--expected", help="bit text file to compare against (prints BER)")
    p.add_argument("--out", required=True, help="decoded bit text file output")

    p = command("channel", _cmd_channel, help="apply attenuation and additive Gaussian noise")
    p.add_argument("--in", dest="infile", required=True, help="signal input path")
    p.add_argument("--attenuation-db", type=float, default=0.0)
    noise = p.add_mutually_exclusive_group(required=True)
    noise.add_argument("--snr-db", type=float, help="target SNR at the channel output")
    noise.add_argument("--noise-power", type=float, help="noise variance, linear")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="signal output path")

    p = command("spectrum", _cmd_spectrum, help="FFT magnitude spectrum or STFT spectrogram")
    p.add_argument("--in", dest="infile", required=True, help="signal input path")
    p.add_argument("--fft-size", type=int, help="power-of-two FFT size (default: full length)")
    p.add_argument("--stft", action="store_true", help="write an STFT spectrogram instead")
    p.add_argument("--window-length", type=int, default=_DEFAULTS.stft_window)
    p.add_argument("--hop", type=int, default=_DEFAULTS.stft_hop)
    p.add_argument("--window", choices=list(spectral._WINDOWS), default=_DEFAULTS.stft_window_type)
    p.add_argument("--out", required=True, help="output path (f64 + JSON sidecar)")

    p = command("peaks", _cmd_peaks, help="detect spectral peaks")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--in", dest="infile", help="signal input path (FFT computed here)")
    src.add_argument("--spectrum", help="spectrum input path (f64 + JSON sidecar)")
    p.add_argument("--relative-threshold", type=float, default=_DEFAULTS.peak_relative_threshold)
    p.add_argument("--min-separation", type=float, default=0.0, help="Hz")
    p.add_argument("--out", required=True, help="peaks CSV output path")

    p = command("features", _cmd_features, help="extract a feature vector from a signal")
    p.add_argument("--in", dest="infile", required=True, help="signal input path")
    p.add_argument("--out", required=True, help="feature JSON output path")

    p = command("library-add", _cmd_library_add,
                help="add a labeled template signal to a signature library")
    p.add_argument("--library", required=True, help="library JSON path (created if missing)")
    p.add_argument("--label", required=True)
    p.add_argument("--in", dest="infile", required=True, help="template signal input path")
    p.add_argument("--fft-size", type=int, default=recognition.DEFAULT_FFT_SIZE,
                   help="analysis FFT size for a newly created library")
    p.add_argument("--meta", action="append", default=[], metavar="KEY=VALUE",
                   help="metadata entry (repeatable)")

    p = command("library-list", _cmd_library_list, help="list the entries of a signature library")
    p.add_argument("--library", required=True)

    p = command("classify", _cmd_classify, help="classify a signal against a signature library")
    p.add_argument("--in", dest="infile", required=True, help="signal input path")
    p.add_argument("--library", required=True)
    p.add_argument("--threshold", type=float, default=recognition.DEFAULT_THRESHOLD)
    p.add_argument("--out", help="optional classification JSON output path")

    p = command("run", _cmd_run, help="run the full pipeline experiment")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--config", help="experiment config JSON path")
    source.add_argument("--defaults", action="store_true", help="use the built-in default config")
    # Every other flag but --out has as its dest the dotted path of the config field it sets.
    p.add_argument("--seed", type=int)
    p.add_argument("--payload-bits", type=int)
    p.add_argument("--bit-rate", type=float)
    p.add_argument("--fc", dest="carrier.center_frequency", type=float)
    p.add_argument("--amplitude", dest="carrier.amplitude", type=float)
    p.add_argument("--phase", dest="carrier.initial_phase", type=float)
    p.add_argument("--sample-rate", dest="carrier.sample_rate", type=float)
    p.add_argument("--modulation", choices=sorted(MODULATORS))
    compose = p.add_mutually_exclusive_group()
    compose.add_argument("--compose", dest="compose_with_carrier", action="store_true",
                         default=None)
    compose.add_argument("--no-compose", dest="compose_with_carrier", action="store_false")
    p.add_argument("--attenuation-db", dest="channel.attenuation_db", type=float)
    p.add_argument("--snr-db", dest="channel.snr_db", type=float)
    p.add_argument("--noise-power", dest="channel.noise_power", type=float)
    p.add_argument("--channel-seed", dest="channel.seed", type=int)
    demod = p.add_mutually_exclusive_group()
    demod.add_argument("--demodulate", dest="demodulate", action="store_true", default=None)
    demod.add_argument("--no-demodulate", dest="demodulate", action="store_false")
    p.add_argument("--stft-window", type=int)
    p.add_argument("--stft-hop", type=int)
    p.add_argument("--library", dest="library_path", help="signature library for classification")
    p.add_argument("--threshold", dest="classification_threshold", type=float,
                   help="classification threshold")
    p.add_argument("--out", dest="output_dir", required=True, help="output directory")

    p = command("evaluate", _cmd_evaluate,
                help="score a one-template-per-scheme library on noisy probes")
    p.add_argument("--snr-db", type=float, default=15.0, help="probe SNR at the channel output")
    p.add_argument("--probes", type=int, default=50,
                   help="probes per scheme, and white-noise probes (at most 1000)")
    p.add_argument("--threshold", type=float, default=0.5, help="detection threshold for the probes")
    p.add_argument("--out", required=True, help="result JSON output path")

    return parser


def _cmd_propagate(args) -> int:
    params = propagation.PropagationParams(args.n, args.m, args.x0)
    if args.method == "closed":
        curve = propagation.simulate_curve(params, args.steps, "closed_form")
    elif args.method == "recurrence":
        curve = propagation.simulate_curve(params, args.steps, "recurrence")
    else:
        curve = propagation.monte_carlo_propagation(params, args.seed, args.steps, args.trials)
    has_inflection = params.initial_infected < params.n_computers
    inflection = propagation.inflection_time(params) if has_inflection else None
    propagation.write_curve_csv(curve, args.out)
    final = float(curve[-1])
    print(f"wrote {args.out}: {len(curve)} steps, final expected infected {final:.6g}")
    if inflection is not None:
        print(f"inflection time (closed form): {inflection:.6g}")
    return 0


def _cmd_payload(args) -> int:
    if args.hex is not None:
        stream = codec.hex_to_bits(args.hex, args.bit_rate)
    elif args.hex_file is not None:
        stream = codec.hex_to_bits(_read_text(args.hex_file).strip(), args.bit_rate)
    else:
        n_bits = args.bits if args.bits is not None else 64
        stream = codec.random_payload(args.seed, n_bits, args.bit_rate)
    codec.write_bits(stream, args.out)
    print(f"wrote {args.out}: {len(stream)} bits at {args.bit_rate} bit/s")
    return 0


def _cmd_encode(args) -> int:
    if args.manchester_out is None and args.rect_out is None:
        raise ConfigurationError("nothing to do: give --manchester-out and/or --rect-out")
    stream = codec.read_bits(args.infile, args.bit_rate)
    if args.rect_out is not None:
        wave = codec.rectangular_waveform(stream, args.sample_rate, args.high, args.low)
    summary = []  # printed once every file is written
    if args.manchester_out is not None:
        encoded = codec.manchester_encode(stream)
        codec.write_bits(encoded, args.manchester_out)
        summary.append(f"wrote {args.manchester_out}: {len(encoded)} half-bit levels")
    if args.rect_out is not None:
        write_signal(wave, args.rect_out)
        summary.append(f"wrote {args.rect_out}: {len(wave)} samples at {wave.sample_rate} Hz")
    print("\n".join(summary))
    return 0


def _cmd_modulate(args) -> int:
    stream = codec.read_bits(args.infile, args.bit_rate)
    spec = _carrier_from(args)
    # ASK and PSK ignore --fsk-phase-reset.
    options = {"phase_continuous": not args.fsk_phase_reset} if args.scheme == "fsk" else {}
    signal = MODULATORS[args.scheme](stream, spec, **options)
    if args.compose:
        carrier = generate_carrier(spec, len(signal) / spec.sample_rate)
        signal = compose_emitted(carrier, signal)
    write_signal(signal, args.out)
    print(f"wrote {args.out}: {args.scheme} over {len(stream)} bits, "
          f"{len(signal)} samples ({signal.duration:.6g} s)")
    return 0


def _cmd_demodulate(args) -> int:
    signal = read_signal(args.infile)
    spec = _carrier_from(args)
    stream = DEMODULATORS[args.scheme](signal, spec, args.n_bits, args.bit_rate)
    expected = codec.read_bits(args.expected, args.bit_rate) if args.expected else None
    if expected is not None and len(expected) != len(stream):
        raise ConfigurationError(
            f"--expected has {len(expected)} bits but {len(stream)} were decoded")
    codec.write_bits(stream, args.out)
    print(f"wrote {args.out}: {len(stream)} bits")
    if expected is not None:
        errors = int(np.count_nonzero(expected.bits != stream.bits))
        print(f"bit errors: {errors}/{len(stream)} (BER {errors / len(stream):.6g})")
    return 0


def _cmd_channel(args) -> int:
    signal = read_signal(args.infile)
    params = ChannelParams(attenuation_db=args.attenuation_db, snr_db=args.snr_db,
                           noise_power=args.noise_power, seed=args.seed)
    degraded = apply_channel(signal, params)
    snr = measure_snr(signal, degraded)
    write_signal(degraded, args.out)
    print(f"wrote {args.out}: measured SNR {snr:.3f} dB")
    return 0


def _cmd_spectrum(args) -> int:
    signal = read_signal(args.infile)
    if args.stft:
        spec = spectral.stft(signal, args.window_length, args.hop, args.window)
        size = f"{spec.magnitudes.shape[0]} frames x {spec.magnitudes.shape[1]} bins"
    else:
        spec = spectral.fft_magnitude(signal, args.fft_size)
        size = f"{spec.magnitudes.size} bins, bin width {spec.bin_width:.6g} Hz"
    spectral.write_spectrum(spec, args.out)
    print(f"wrote {args.out}: {size}")
    return 0


def _cmd_peaks(args) -> int:
    if args.infile is not None:
        spec = spectral.fft_magnitude(read_signal(args.infile))
    else:
        spec = spectral.read_spectrum(args.spectrum)
    peaks = spectral.find_peaks(spec, args.relative_threshold, args.min_separation)
    spectral.write_peaks_csv(peaks, args.out)
    print(f"wrote {args.out}: {len(peaks)} peaks")
    for pk in peaks:
        print(f"  {pk.frequency:.6g} Hz  magnitude {pk.magnitude:.6g}  bin {pk.bin_index}")
    return 0


def _cmd_features(args) -> int:
    features = recognition.extract_features(read_signal(args.infile))
    _write_json(args.out, asdict(features))
    print(f"wrote {args.out}: rms {features.rms_power:.6g}, "
          f"centroid {features.spectral_centroid:.6g} Hz, "
          f"entropy {features.spectral_entropy:.4f}")
    return 0


def _parse_metadata(pairs: list[str]) -> dict:
    meta = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(f"--meta expects KEY=VALUE, got {pair!r}")
        meta[key] = value
    return meta


def _cmd_library_add(args) -> int:
    signal = read_signal(args.infile)
    path = Path(args.library)
    if path.exists():
        library = recognition.library_load(path)
    else:
        library = recognition.SignatureLibrary(fft_size=args.fft_size,
                                               sample_rate=signal.sample_rate)
    library = recognition.library_add(library, args.label, signal, _parse_metadata(args.meta))
    recognition.library_save(library, path)
    print(f"wrote {path}: {len(library)} entries ({', '.join(library.labels())})")
    return 0


def _cmd_library_list(args) -> int:
    library = recognition.library_load(args.library)
    print(f"{args.library}: fft_size {library.fft_size}, sample_rate {library.sample_rate}, "
          f"{len(library)} entries")
    for entry in library.entries:
        meta = ", ".join(f"{k}={v}" for k, v in sorted(entry.metadata.items()))
        print(f"  {entry.label}" + (f"  [{meta}]" if meta else ""))
    return 0


def _cmd_classify(args) -> int:
    library = recognition.library_load(args.library)
    result = recognition.classify(read_signal(args.infile), library, args.threshold)
    if args.out:
        _write_json(args.out, asdict(result))
    print(f"label: {result.label} (score {result.score:.4f})")
    if result.runner_up:
        print(f"runner-up: {result.runner_up[0]} (score {result.runner_up[1]:.4f})")
    return 0


def _run_config(args) -> pipeline.ExperimentConfig:
    """The ``--config`` document, or the default config, with each given flag's field set.

    Channel flags edit the config's channel, or make a noiseless one if it has
    none; ``--snr-db`` and ``--noise-power`` each clear the other.
    """
    doc = asdict(pipeline.DEFAULT_CONFIG)  # its keys name the fields; a config may leave some out
    edits = {tuple(dest.split(".")): value for dest, value in vars(args).items()
             if value is not None and dest.split(".")[0] in doc}
    if args.config:
        doc.update(_read_json(args.config))
    channel = {path[1] for path in edits if path[0] == "channel"}
    if channel & {"snr_db", "noise_power"}:  # a channel takes one: setting it clears the other
        edits = {("channel", "snr_db"): None, ("channel", "noise_power"): None} | edits
    elif "seed" in channel and doc["channel"] is None:
        raise ConfigurationError("--channel-seed needs --snr-db or --noise-power, "
                                 "or a channel in the config")
    if channel and doc["channel"] is None:
        doc["channel"] = {"noise_power": 0.0}  # noiseless unless a noise flag is given
    for (*parent, key), value in edits.items():
        target = doc[parent[0]] if parent else doc
        if not isinstance(target, dict):
            raise ConfigurationError(f"{parent[0]} must be a JSON object to set {key}, "
                                     f"got {target!r}")
        target[key] = value
    return pipeline.config_from_json(doc)


def _cmd_run(args) -> int:
    report = pipeline.run_experiment(_run_config(args), args.output_dir)
    print(f"report: {Path(args.output_dir) / 'report.json'}")
    print(f"peaks: {', '.join(f'{f:.6g} Hz' for f in report.peak_frequencies_hz) or 'none'}")
    if report.measured_snr_db is not None:
        print(f"measured SNR: {report.measured_snr_db:.3f} dB")
    if report.ber is not None:
        print(f"BER: {report.ber:.6g} ({report.bit_errors}/{report.config.payload_bits} bits)")
    if report.classification is not None:
        print(f"classified as: {report.classification.label} "
              f"(score {report.classification.score:.4f})")
    return 0


def _cmd_evaluate(args) -> int:
    result = pipeline.recognition_benchmark(args.snr_db, args.probes, args.threshold)
    _write_json(args.out, asdict(result))
    total = result.probes * len(result.decisions)
    print(f"wrote {args.out}")
    print(f"accuracy at {result.snr_db:g} dB SNR, threshold {result.threshold:g}: "
          f"{result.correct}/{total} ({result.correct / total:.1%})")
    for truth, counts in sorted(result.decisions.items()):
        for predicted, count in sorted(counts.items()):
            print(f"  {truth} -> {predicted}: {count}")
    print(f"white-noise probes rejected at threshold {result.threshold:g}: "
          f"{result.noise_rejected}/{result.probes}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The output files, sidecars included, that do not exist yet: a command
    # that fails removes those it made.
    outputs = [getattr(args, flag, None) for flag in ("out", "manchester_out", "rect_out")]
    new = [path for out in outputs if out is not None
           for path in (Path(out), sidecar_path(out)) if not os.path.lexists(path)]
    code = 1
    try:
        code = _handle(args)
    finally:
        if code != 0:
            for path in new:
                with contextlib.suppress(OSError):
                    path.unlink()
    return code


def _handle(args) -> int:
    try:
        # Values that overflow float64 stop the command here instead of printing
        # a numpy warning per operation before some later check fails.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.handler(args)
    except FloatingPointError as e:
        print(f"error: the input's values are out of float64 range: {e}", file=sys.stderr)
        return 1
    except (RadsimError, OSError, MemoryError) as e:
        # A Python MemoryError carries no message; numpy's names the size asked for.
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())
