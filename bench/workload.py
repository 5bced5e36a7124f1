"""One workload process: set-up, timed rounds of operations, checks, metrics.

``run.py`` starts this script once per measurement in a fresh process and
reads the single JSON line it prints. Operations run one after another on
this process's only thread, in whole rounds, until ``--seconds`` have
passed; only the operation itself is timed, not its check or clean-up.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import radsim  # noqa: E402
from radsim import channel, cli, codec, modulation, propagation, recognition  # noqa: E402
from radsim.signals import SampledSignal  # noqa: E402

from checks import check_curves, check_experiment, check_recognition  # noqa: E402
from spans import OVERHEAD_METRIC, PER_LAYER, Tracer  # noqa: E402

SAMPLE_RATE = 48000.0
BIT_RATE = 250.0
SCHEMES = ("fsk", "psk", "ask")
MODULATORS = {"fsk": "fsk_modulate", "psk": "psk_modulate", "ask": "ask_modulate"}

# SeedSequence keys: inputs made in set-up and inputs of round r, operation j
# never share a stream, and an operation's inputs do not depend on run length.
SETUP_KEY = 0
ROUND_KEY = 1


class OperationError(RuntimeError):
    """An operation raised or exited non-zero."""


class Operation(NamedTuple):
    run: Callable[[], object]
    check: Callable[[object], None]
    output: Path | None  # what ``run`` wrote: measured, then removed after the check


def derived_seeds(seed: int, *key: int, count: int = 2) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, *key]).generate_state(count)]


def emitted(scheme: str, fc: float, payload_seed: int, n_bits: int) -> SampledSignal:
    """Carrier plus the modulated payload, as the paper's emitter radiates it."""
    spec = modulation.CarrierSpec(fc, 1.0, 0.0, SAMPLE_RATE)
    payload = codec.random_payload(payload_seed, n_bits, BIT_RATE)
    modulated = getattr(modulation, MODULATORS[scheme])(payload, spec)
    carrier = modulation.generate_carrier(spec, modulated.duration)
    return modulation.compose_emitted(carrier, modulated)


def tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Experiments:
    """``radsim run`` end to end: 1024 bits, carrier added, 10 dB, 3 templates."""

    FC = 2000.0
    BITS = 1024
    SNR_DB = 10.0

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        library = recognition.SignatureLibrary(4096, SAMPLE_RATE)
        template_seeds = derived_seeds(seed, SETUP_KEY, count=len(SCHEMES))
        for scheme, payload_seed in zip(SCHEMES, template_seeds):
            library = recognition.library_add(
                library, scheme, emitted(scheme, self.FC, payload_seed, self.BITS))
        self.library_path = work / "library.json"
        recognition.library_save(library, self.library_path)
        self.setup_bytes = tree_bytes(self.library_path)

    def round(self, index: int) -> list[Operation]:
        ops = []
        for j, scheme in enumerate(SCHEMES):
            payload_seed, channel_seed = derived_seeds(self.seed, ROUND_KEY, index, j)
            out = self.work / f"run-{index}-{scheme}"
            argv = ["run", "--defaults", "--payload-bits", str(self.BITS), "--modulation", scheme,
                    "--fc", str(self.FC), "--bit-rate", str(BIT_RATE),
                    "--sample-rate", str(SAMPLE_RATE), "--compose", "--seed", str(payload_seed),
                    "--snr-db", str(self.SNR_DB), "--channel-seed", str(channel_seed),
                    "--library", str(self.library_path), "--out", str(out)]
            check = functools.partial(check_experiment, out, scheme, self.FC, BIT_RATE,
                                      self.SNR_DB, self.BITS)
            ops.append(Operation(functools.partial(run_cli, argv), lambda _, c=check: c(), out))
        return ops


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise OperationError(f"radsim {' '.join(argv[:1])} exited {code}")
    return code


class RecognitionProbes:
    """classify + extract_features against a reloaded multi-carrier library."""

    CARRIERS = tuple(1500.0 * k for k in range(1, 9))
    BITS = 256
    SNR_DB = 15.0
    NOISE_PROBES = 3
    NOISE_SAMPLES = 8192
    THRESHOLD = 0.8

    def __init__(self, seed: int, work: Path):
        templates = [(scheme, fc) for fc in self.CARRIERS for scheme in SCHEMES]
        seeds = derived_seeds(seed, SETUP_KEY, count=3 * len(templates) + self.NOISE_PROBES)
        library = recognition.SignatureLibrary(4096, SAMPLE_RATE)
        for (scheme, fc), payload_seed in zip(templates, seeds):
            library = recognition.library_add(
                library, f"{scheme}-{fc:g}", emitted(scheme, fc, payload_seed, self.BITS))
        path = work / "library.json"
        recognition.library_save(library, path)
        self.setup_bytes = tree_bytes(path)
        self.library = recognition.library_load(path)

        self.probes = []
        probe_seeds = seeds[len(templates):]
        for k, (scheme, fc) in enumerate(templates):
            clean = emitted(scheme, fc, probe_seeds[2 * k], self.BITS)
            noisy = channel.apply_channel(
                clean, channel.ChannelParams(snr_db=self.SNR_DB, seed=probe_seeds[2 * k + 1]))
            tones = (fc - BIT_RATE / 2, fc, fc + BIT_RATE / 2) if scheme == "fsk" else (fc,)
            self.probes.append((noisy, f"{scheme}-{fc:g}", tones))
        for noise_seed in seeds[-self.NOISE_PROBES:]:
            noise = np.random.default_rng(noise_seed).standard_normal(self.NOISE_SAMPLES)
            self.probes.append((SampledSignal(SAMPLE_RATE, noise), recognition.UNKNOWN_LABEL, ()))

    def probe(self, signal: SampledSignal):
        return (recognition.classify(signal, self.library, self.THRESHOLD),
                recognition.extract_features(signal))

    def round(self, index: int) -> list[Operation]:
        ops = []
        for signal, label, tones in self.probes:
            def check(result, signal=signal, label=label, tones=tones):
                check_recognition(signal.samples, SAMPLE_RATE, label, result[0], result[1],
                                  tones, self.THRESHOLD)
            ops.append(Operation(functools.partial(self.probe, signal), check, None))
        return ops


class PropagationSweep:
    """Closed form, recurrence and Monte Carlo curves over (N, M) points, M <= N."""

    # (N, M, X0, steps); the first is the paper's LAN of 100 machines.
    POINTS = ((100, 15, 1, 100), (50, 10, 1, 60), (200, 40, 1, 80),
              (100, 100, 1, 20), (20, 4, 1, 60), (300, 30, 3, 120))
    TRIALS = 100

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.setup_bytes = 0

    def curves(self, point, mc_seed: int, out: Path) -> None:
        n, m, x0, steps = point
        params = propagation.PropagationParams(n, m, x0)
        out.mkdir()
        for name, curve in (
                ("closed", propagation.simulate_curve(params, steps, "closed_form")),
                ("recurrence", propagation.simulate_curve(params, steps, "recurrence")),
                ("montecarlo", propagation.monte_carlo_propagation(params, mc_seed, steps,
                                                                   self.TRIALS))):
            propagation.write_curve_csv(curve, out / f"{name}.csv")

    def round(self, index: int) -> list[Operation]:
        ops = []
        for j, point in enumerate(self.POINTS):
            (mc_seed,) = derived_seeds(self.seed, ROUND_KEY, index, j, count=1)
            out = self.work / f"curves-{index}-{j}"
            check = functools.partial(check_curves, out, *point, self.TRIALS)
            ops.append(Operation(functools.partial(self.curves, point, mc_seed, out),
                                 lambda _, c=check: c(), out))
        return ops


WORKLOADS = {"experiments": Experiments, "recognition_probes": RecognitionProbes,
             "propagation_sweep": PropagationSweep}


class Tally:
    """Outcome of the operations of the rounds run so far.

    Position j of every round is the same operation on new inputs, and its
    time is its best over the rounds. Other tenants of a small shared host
    slow whole stretches of a run by up to 1.9x, so a mean or median over all
    operations moves with their load rather than with the program.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.rounds = 0
        self.op_bytes = 0
        self.slot_seconds: dict[int, list[float]] = defaultdict(list)

    def run_round(self, ops: list[Operation]) -> None:
        """Run, check and clean up one round."""
        for slot, op in enumerate(ops):
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as e:  # an operation that raises is counted, not fatal
                self.failed += 1
                print(f"operation failed: {type(e).__name__}: {e}", file=sys.stderr)
            else:
                elapsed = time.perf_counter() - start
                try:
                    op.check(result)
                except Exception as e:  # unreadable output fails the check too
                    self.failed += 1
                    self.check_failures += 1
                    print(f"check failed: {type(e).__name__}: {e}", file=sys.stderr)
                else:
                    self.slot_seconds[slot].append(elapsed)
            if op.output is not None and op.output.exists():
                self.op_bytes += tree_bytes(op.output)
                shutil.rmtree(op.output) if op.output.is_dir() else op.output.unlink()
        self.rounds += 1

    def slot_times(self) -> list[float]:
        return [min(times) for times in self.slot_seconds.values()]


def measure(workload: str, seed: int, seconds: float, traced: bool, setup_only: bool) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    tracer = Tracer() if traced else None
    try:
        if tracer:
            tracer.install()
        bench = WORKLOADS[workload](seed, work)
        if tracer:
            tracer.uninstall()
            setup_spans = len(tracer.spans)
        ready_at = time.monotonic()
        if setup_only:
            return {"ready_at": ready_at}

        plain, traced_tally = Tally(), Tally()
        start = time.perf_counter()
        for index in itertools.count():
            ops = bench.round(index)
            # Traced and plain rounds alternate A B B A, so drift cancels in the overhead.
            if tracer and index % 4 in (1, 2):
                tracer.install()
                traced_tally.run_round(ops)
                tracer.uninstall()
            else:
                plain.run_round(ops)
            if time.perf_counter() - start >= seconds and (not tracer or index % 2 == 1):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tallies = (plain, traced_tally)
    result = {"ready_at": ready_at,
              "attempted": sum(t.attempted for t in tallies),
              "failed": sum(t.failed for t in tallies),
              "check_failures": sum(t.check_failures for t in tallies)}
    if tracer:
        tracer.write(OUT / f"trace-{workload}-seed{seed}.jsonl")
        setup = tracer.layer_totals(0, setup_spans)
        per_round = tracer.layer_totals(setup_spans)
        layers = {name: setup.get(name, 0.0) + per_round.get(name, 0.0) / traced_tally.rounds
                  for name in PER_LAYER if name != OVERHEAD_METRIC}
        layers[OVERHEAD_METRIC] = 100.0 * (sum(traced_tally.slot_times())
                                           / sum(plain.slot_times()) - 1.0)
        result["per_layer"] = layers
    else:
        times = plain.slot_times()
        result["end_to_end"] = {
            "ops_per_s": len(times) / sum(times),
            "op_p50_ms": 1000.0 * statistics.median(times),
            "output_bytes": bench.setup_bytes + plain.op_bytes / plain.rounds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if not Path(radsim.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"radsim was imported from {radsim.__file__}, not from {SRC}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.setup_only)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
