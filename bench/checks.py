"""Output checks for the benchmark's operations.

Every expected value here is computed apart from radsim: with numpy
directly from the inputs the benchmark chose, or from properties the
method must have. Nothing is compared against a stored copy of an earlier
run's output. Each check raises :class:`CheckFailed` with a one-line reason.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


class CheckFailed(AssertionError):
    """An operation's output is wrong."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _read_bits(path: Path) -> np.ndarray:
    text = path.read_text().strip()
    _require(text and set(text) <= {"0", "1"}, f"{path.name}: not a 0/1 bit string")
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")


def _read_f64(path: Path) -> np.ndarray:
    meta = json.loads(Path(str(path) + ".json").read_text())
    samples = np.fromfile(path, dtype="<f8")
    _require(samples.size == meta["length"], f"{path.name}: length differs from its sidecar")
    return samples


def one_sided_magnitudes(samples: np.ndarray) -> np.ndarray:
    """The documented scaling: |X_k| / N, interior bins doubled."""
    n = samples.size
    mags = np.abs(np.fft.rfft(samples)) / n
    last = -1 if n % 2 == 0 else None
    mags[1:last] *= 2.0
    return mags


def _csv_rows(path: Path, header: str) -> np.ndarray:
    lines = path.read_text().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    _require(body and body[0] == header, f"{path.name}: header is not {header!r}")
    return np.loadtxt(body[1:], delimiter=",", ndmin=2).reshape(len(body) - 1,
                                                                header.count(",") + 1)


def check_experiment(run_dir: Path, scheme: str, fc: float, bit_rate: float,
                     snr_db: float, n_bits: int) -> None:
    """Check one ``radsim run`` directory of a composed, noisy, classified run."""
    run_dir = Path(run_dir)
    report = json.loads((run_dir / "report.json").read_text())

    sent = _read_bits(run_dir / "payload.txt")
    decoded = _read_bits(run_dir / "demodulated.txt")
    _require(sent.size == n_bits and decoded.size == n_bits, "payload or decoded length is wrong")
    errors = int(np.count_nonzero(sent != decoded))
    _require(errors == report["bit_errors"],
             f"report says {report['bit_errors']} bit errors, recount gives {errors}")
    _require(errors == 0, f"{errors} bit errors at {snr_db} dB")

    expected_peaks = [fc - bit_rate / 2, fc, fc + bit_rate / 2] if scheme == "fsk" else [fc]
    peak_rows = _csv_rows(run_dir / "peaks.csv", "frequency_hz,magnitude,bin_index")
    _require(peak_rows[:, 0].tolist() == expected_peaks,
             f"peaks {peak_rows[:, 0].tolist()} are not {expected_peaks}")
    _require(report["peak_frequencies_hz"] == expected_peaks, "report.json peaks differ")

    received = _read_f64(run_dir / "received.f64")
    emitted = _read_f64(run_dir / "emitted.f64")
    sample_rate = json.loads((run_dir / "received.f64.json").read_text())["sample_rate"]
    n = received.size
    spectrum = _csv_rows(run_dir / "spectrum.csv", "frequency_hz,magnitude")
    expected = one_sided_magnitudes(received)
    _require(spectrum.shape[0] == expected.size, "spectrum.csv has the wrong bin count")
    _require(np.allclose(spectrum[:, 0], np.arange(expected.size) * sample_rate / n,
                         rtol=1e-12, atol=0.0), "spectrum.csv frequencies are off the bin grid")
    _require(np.allclose(spectrum[:, 1], expected, rtol=1e-9, atol=1e-12 * expected.max()),
             "spectrum.csv differs from an independent rfft of received.f64")
    mags = spectrum[:, 1]
    edges = mags[0] ** 2 + (mags[-1] ** 2 if n % 2 == 0 else 0.0)
    interior = mags[1:-1] if n % 2 == 0 else mags[1:]
    parseval = n * (edges + np.sum(interior ** 2) / 2.0)
    energy = float(np.dot(received, received))
    _require(math.isclose(parseval, energy, rel_tol=1e-9),
             f"Parseval fails: spectrum energy {parseval}, samples {energy}")

    _require(abs(report["measured_snr_db"] - snr_db) < 0.3,
             f"measured SNR {report['measured_snr_db']} dB is not within 0.3 dB of {snr_db}")
    noise = received - emitted
    actual = 10.0 * math.log10(np.mean(emitted ** 2) / np.mean(noise ** 2))
    _require(abs(actual - snr_db) < 0.3, f"the channel added noise at {actual:.3f} dB SNR")

    label = json.loads((run_dir / "classification.json").read_text())["label"]
    _require(label == scheme, f"classified as {label!r}, sent {scheme!r}")
    _require(report["classification"]["label"] == scheme, "report.json label differs")


def check_recognition(samples: np.ndarray, sample_rate: float, expected_label: str,
                      result, features, tones: tuple[float, ...], threshold: float) -> None:
    """Check one classify + extract_features pair on a probe.

    ``tones`` are the frequencies the probe was built from; empty for white
    noise, which must be rejected.
    """
    _require(result.label == expected_label,
             f"labelled {result.label!r} (score {result.score}), expected {expected_label!r}")
    if tones:
        _require(result.score >= threshold, f"score {result.score} is below {threshold}")
    rms = float(np.sqrt(np.mean(samples ** 2)))
    _require(math.isclose(features.rms_power, rms, rel_tol=1e-12),
             f"rms_power {features.rms_power}, numpy gives {rms}")
    if tones:
        _require(features.dominant_peaks, "no dominant peak on a tonal probe")
        top = features.dominant_peaks[0][0]
        half_bin = sample_rate / samples.size / 2.0
        _require(any(abs(top - f) <= half_bin for f in tones),
                 f"top peak at {top} Hz is none of {tones}")


def logistic(n_computers: int, comms: int, initial: int, steps: int) -> np.ndarray:
    n = np.arange(steps + 1)
    return n_computers / (1.0 + (n_computers / initial - 1.0)
                          * np.exp(-n * comms / n_computers))


# The Monte Carlo mean lags the logistic by up to ~17% of N near the
# inflection (README, "Propagation"). On top of that lag the band allows
# four standard errors of a trial mean, whose per-trial spread is at most
# sqrt(E (N - E)) for a count bounded by [0, N].
MC_LAG = 0.17
MC_STANDARD_ERRORS = 4.0


def check_curves(out_dir: Path, n_computers: int, comms: int, initial: int,
                 steps: int, trials: int) -> None:
    """Check the closed-form, recurrence and Monte Carlo curve CSVs of one point."""
    out_dir = Path(out_dir)
    curves = {}
    for name in ("closed", "recurrence", "montecarlo"):
        rows = _csv_rows(out_dir / f"{name}.csv", "n,expected_infected")
        _require(rows[:, 0].tolist() == list(range(steps + 1)), f"{name}.csv steps are wrong")
        curves[name] = rows[:, 1]

    logistic_curve = logistic(n_computers, comms, initial, steps)
    _require(np.allclose(curves["closed"], logistic_curve, rtol=1e-12, atol=0.0),
             "closed form differs from N / (1 + (N/X0 - 1) exp(-nM/N))")

    expected = [float(initial)]
    for _ in range(steps):
        e = expected[-1]
        expected.append(e + comms / n_computers * e * (1.0 - e / n_computers))
    _require(np.allclose(curves["recurrence"], expected, rtol=1e-12, atol=0.0),
             "recurrence differs from an independent loop")

    mc = curves["montecarlo"]
    _require(mc[0] == initial, f"Monte Carlo starts at {mc[0]}, not {initial}")
    _require(np.all(np.diff(mc) >= 0), "Monte Carlo mean decreases")
    _require(np.all(mc <= n_computers), "Monte Carlo mean exceeds N")
    totals = mc * trials
    _require(np.allclose(totals, np.round(totals), rtol=0.0, atol=1e-9 * trials),
             "Monte Carlo mean times trials is not an integer")
    spread = MC_STANDARD_ERRORS * np.sqrt(logistic_curve * (n_computers - logistic_curve) / trials)
    low = logistic_curve - MC_LAG * n_computers - spread
    high = logistic_curve + spread + 1e-9 * n_computers
    outside = np.flatnonzero((mc < low) | (mc > high))
    _require(outside.size == 0,
             f"Monte Carlo mean leaves the band around the logistic at step "
             f"{outside[:1].tolist()}")
