"""Span tracing of radsim from outside the package.

:class:`Tracer` replaces each public function of the radsim modules at every
place it is looked up: module attributes (including ``from x import f``
bindings in other radsim modules) and module-level dicts of functions such
as ``pipeline._MODULATORS``. A wrapper records one span per call (name,
start, end, parent) in memory, plus counts taken from the call's inputs and
result. Counting happens outside the span, and the parent's self time
excludes it, so the per-layer self times carry little of the tracing cost.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("channel", "cli", "codec", "modulation", "pipeline", "propagation",
           "recognition", "signals", "spectral")

# Per-layer self-time metrics: metric -> the functions whose self time it sums.
SELF_TIME = {
    "cli.main_self_s": ("cli.main", "cli.build_parser", "cli.entry_point"),
    "pipeline.run_experiment_self_s": ("pipeline.run_experiment", "pipeline.config_to_json_dict",
                                       "pipeline.config_from_json"),
    "codec.payload_s": ("codec.random_payload", "codec.write_bits", "codec.read_bits",
                        "codec.hex_to_bits", "codec.bits_to_hex"),
    "modulation.modulate_s": ("modulation.fsk_modulate", "modulation.psk_modulate",
                              "modulation.ask_modulate", "modulation.generate_carrier",
                              "modulation.compose_emitted", "modulation.samples_per_bit"),
    "modulation.demodulate_s": ("modulation.fsk_demodulate", "modulation.psk_demodulate",
                                "modulation.ask_demodulate"),
    "channel.apply_channel_s": ("channel.apply_channel",),
    "channel.measure_snr_s": ("channel.measure_snr",),
    "signals.write_signal_s": ("signals.write_signal",),
    "spectral.fft_magnitude_s": ("spectral.fft_magnitude",),
    "spectral.stft_s": ("spectral.stft",),
    "spectral.find_peaks_s": ("spectral.find_peaks",),
    "spectral.csv_write_s": ("spectral.write_spectrum_csv", "spectral.write_spectrogram_csv",
                             "spectral.write_peaks_csv"),
    "recognition.extract_features_self_s": ("recognition.extract_features",),
    "recognition.matching_spectrum_s": ("recognition.matching_spectrum",),
    "recognition.classify_self_s": ("recognition.classify",),
    "recognition.spectral_correlation_s": ("recognition.spectral_correlation",),
    "recognition.library_add_s": ("recognition.library_add",),
    "recognition.library_io_s": ("recognition.library_save", "recognition.library_load"),
    "propagation.monte_carlo_s": ("propagation.monte_carlo_propagation",),
    "propagation.curves_s": ("propagation.simulate_curve",
                             "propagation.expected_infected_closed_form",
                             "propagation.step_recurrence", "propagation.inflection_time"),
    "propagation.csv_write_s": ("propagation.write_curve_csv",),
}

# Helpers that the demodulators call to build their references: their self
# time belongs to demodulation there, not to modulation.
_DEMODULATOR_HELPERS = ("modulation.generate_carrier", "modulation.samples_per_bit")
_DEMODULATORS = SELF_TIME["modulation.demodulate_s"]


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _find_peaks_counts(args, kwargs, result):
    mags = _arg(args, kwargs, 0, "spectrum").magnitudes
    floor = _arg(args, kwargs, 1, "relative_threshold", 0.1) * float(mags.max())
    padded = np.concatenate(([-np.inf], mags, [-np.inf]))
    local_max = (mags >= padded[:-2]) & (mags >= padded[2:]) & (mags >= floor)
    return {"spectral.find_peaks_candidates": int(np.count_nonzero(local_max)),
            "spectral.peaks_kept": len(result)}


def _matching_blocks(args, kwargs, result):
    signal = _arg(args, kwargs, 0, "signal")
    fft_size = _arg(args, kwargs, 1, "fft_size", 4096)
    return {"recognition.matching_blocks": max(1, len(signal) // fft_size)}


def _csv_bytes(args, kwargs, result):
    return {"spectral.csv_bytes": _file_bytes(_arg(args, kwargs, 1, "path"))}


# Per-layer counts: function -> hook(args, kwargs, result) -> {metric: count}.
COUNTS = {
    "signals.write_signal": lambda a, k, r: {
        "signals.bytes_written": _file_bytes(_arg(a, k, 1, "path"),
                                             str(_arg(a, k, 1, "path")) + ".json")},
    "spectral.fft_magnitude": lambda a, k, r: {"spectral.fft_calls": 1},
    "spectral.stft": lambda a, k, r: {"spectral.stft_frames": int(r.magnitudes.shape[0])},
    "spectral.find_peaks": _find_peaks_counts,
    "spectral.write_spectrum_csv": _csv_bytes,
    "spectral.write_spectrogram_csv": _csv_bytes,
    "spectral.write_peaks_csv": _csv_bytes,
    "recognition.matching_spectrum": _matching_blocks,
    "recognition.spectral_correlation": lambda a, k, r: {"recognition.correlations": 1},
    "recognition.library_save": lambda a, k, r: {
        "recognition.library_bytes": _file_bytes(_arg(a, k, 1, "path"))},
    "propagation.monte_carlo_propagation": lambda a, k, r: {
        "propagation.mc_trial_steps": _arg(a, k, 3, "trials") * _arg(a, k, 2, "n_max")},
}

COUNT_METRICS = sorted({"signals.bytes_written", "spectral.fft_calls", "spectral.stft_frames",
                        "spectral.find_peaks_candidates", "spectral.peaks_kept",
                        "spectral.csv_bytes", "recognition.matching_blocks",
                        "recognition.correlations", "recognition.library_bytes",
                        "propagation.mc_trial_steps"})
OVERHEAD_METRIC = "trace.overhead_pct"
PER_LAYER = sorted(SELF_TIME) + COUNT_METRICS + [OVERHEAD_METRIC]


def public_functions(module) -> dict:
    """Public functions defined in ``module``, by qualified short name."""
    short = module.__name__.rpartition(".")[2]
    return {f"{short}.{name}": fn for name, fn in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__}


class Tracer:
    """Records spans of radsim calls while installed.

    Each span is ``[name, outer_start, start, end, outer_end, parent, counts]``:
    ``start``/``end`` bracket the traced call, ``outer_*`` also cover the
    wrapper's own bookkeeping, and ``parent`` is the index of the enclosing
    span or -1.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._wrappers: dict = {}

    def _wrap(self, name, fn):
        spans, stack, hook = self.spans, self._stack, COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_start = clock()
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, outer_start, 0.0, 0.0, 0.0, parent, None]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                span[4] = span[3]
            if hook is not None:
                span[6] = hook(args, kwargs, result)
            span[4] = clock()
            return result

        return traced

    def install(self) -> None:
        """Wrap every public radsim function wherever a radsim module binds it."""
        originals = {}
        for short in MODULES:
            module = sys.modules[f"radsim.{short}"]
            for name, fn in public_functions(module).items():
                originals[fn] = name
        self._wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "radsim" and not mod_name.startswith("radsim."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, self._wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in self._wrappers:
                            self._patches.append((value, key, item))
                            value[key] = self._wrappers[item]

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines (times in seconds from the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for index, (name, _, start, end, _, parent, counts) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "name": name, "start": start - origin,
                                      "end": end - origin, "parent": parent,
                                      "counts": counts or {}}) + "\n")

    def layer_totals(self, first: int = 0, last: int | None = None) -> dict:
        """Self seconds and counts per per-layer metric over ``spans[first:last]``."""
        spans = self.spans[first:last]
        covered = defaultdict(float)
        for name, outer_start, _, _, outer_end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += outer_end - outer_start
        metric_of = {fn: metric for metric, fns in SELF_TIME.items() for fn in fns}
        totals = defaultdict(float)
        for offset, (name, _, start, end, _, parent, counts) in enumerate(spans):
            metric = metric_of.get(name)
            if (name in _DEMODULATOR_HELPERS and parent >= 0
                    and self.spans[parent][0] in _DEMODULATORS):
                metric = "modulation.demodulate_s"
            if metric is not None:
                totals[metric] += (end - start) - covered[first + offset]
            for key, value in (counts or {}).items():
                totals[key] += value
        return totals
