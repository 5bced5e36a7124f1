"""Tests of the benchmark itself: a short run of every workload, and checks
that reject corrupted outputs.

    python3 -m pytest bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workload
from checks import CheckFailed, check_curves, check_experiment, check_recognition
from run import UNITS
from spans import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(UNITS)
    assert {m["unit"] for m in spec["end_to_end"]} == set(UNITS.values())
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)


# Layers each workload must show work in, and layers it must leave idle.
BUSY = {
    "experiments": ("cli.main_self_s", "spectral.csv_bytes", "signals.bytes_written",
                    "spectral.stft_frames", "modulation.demodulate_s", "channel.measure_snr_s"),
    "recognition_probes": ("recognition.correlations", "recognition.library_bytes",
                           "recognition.matching_blocks", "spectral.find_peaks_candidates"),
    "propagation_sweep": ("propagation.mc_trial_steps", "propagation.monte_carlo_s",
                          "propagation.curves_s", "propagation.csv_write_s"),
}
IDLE = {
    "experiments": ("propagation.mc_trial_steps",),
    "recognition_probes": ("signals.bytes_written", "spectral.csv_bytes", "cli.main_self_s"),
    "propagation_sweep": ("spectral.fft_calls", "signals.bytes_written", "recognition.correlations"),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workload.WORKLOADS))
def test_short_run(name, trace):
    proc = run_bench("--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert sorted(metrics) == sorted(PER_LAYER)
        assert all(metrics[k] > 0 for k in BUSY[name])
        assert all(metrics[k] == 0 for k in IDLE[name])
    else:
        assert list(metrics) == list(UNITS)
        assert all(value > 0 for value in metrics.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "propagation_sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def rewrite(path: Path, edit) -> None:
    path.write_text(edit(path.read_text()))


@pytest.fixture(scope="module")
def experiment_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("experiments")
    op = workload.Experiments(3, work).round(0)[0]
    op.run()
    return op.output


@pytest.fixture
def run_dir(experiment_run, tmp_path):
    return Path(shutil.copytree(experiment_run, tmp_path / "run"))


def check_run(run_dir):
    check_experiment(run_dir, "fsk", 2000.0, 250.0, 10.0, 1024)


def flip_first_bit(text):
    return ("1" if text[0] == "0" else "0") + text[1:]


def shift_spectrum_row(text):
    lines = text.splitlines()
    lines[100], lines[101] = lines[101], lines[100]
    return "\n".join(lines) + "\n"


def swap_label(text):
    doc = json.loads(text)
    doc["label"] = "psk"
    return json.dumps(doc)


def drop_a_peak(text):
    return "\n".join(text.splitlines()[:-1]) + "\n"


def misreport_snr(text):
    doc = json.loads(text)
    doc["measured_snr_db"] = 10.5
    return json.dumps(doc)


def test_experiment_check_accepts_a_real_run(run_dir):
    check_run(run_dir)


@pytest.mark.parametrize("file_name, edit", [
    ("demodulated.txt", flip_first_bit),
    ("payload.txt", flip_first_bit),
    ("spectrum.csv", shift_spectrum_row),
    ("classification.json", swap_label),
    ("peaks.csv", drop_a_peak),
    ("report.json", misreport_snr),
])
def test_experiment_check_rejects(run_dir, file_name, edit):
    rewrite(run_dir / file_name, edit)
    with pytest.raises(CheckFailed):
        check_run(run_dir)


def test_experiment_check_rejects_a_noiseless_channel(run_dir):
    shutil.copy(run_dir / "emitted.f64", run_dir / "received.f64")
    with pytest.raises(CheckFailed):
        check_run(run_dir)


@pytest.fixture(scope="module")
def recognition(tmp_path_factory):
    bench = workload.RecognitionProbes(5, tmp_path_factory.mktemp("recognition"))
    tonal = bench.probes[0]
    noise = bench.probes[-1]
    return bench, tonal, noise


def check_probe(bench, probe, result, features):
    signal, label, tones = probe
    check_recognition(signal.samples, workload.SAMPLE_RATE, label, result, features, tones,
                      bench.THRESHOLD)


def test_recognition_check_accepts_real_outputs(recognition):
    bench, tonal, noise = recognition
    for probe in (tonal, noise):
        check_probe(bench, probe, *bench.probe(probe[0]))


@pytest.mark.parametrize("corrupt", [
    lambda r, f: (dataclasses.replace(r, label="psk-3000"), f),
    lambda r, f: (dataclasses.replace(r, score=0.5), f),
    lambda r, f: (r, dataclasses.replace(f, rms_power=f.rms_power * (1 + 1e-9))),
    lambda r, f: (r, dataclasses.replace(
        f, dominant_peaks=((f.dominant_peaks[0][0] + 5.0, 1.0),) + f.dominant_peaks[1:])),
])
def test_recognition_check_rejects_tonal(recognition, corrupt):
    bench, tonal, _ = recognition
    with pytest.raises(CheckFailed):
        check_probe(bench, tonal, *corrupt(*bench.probe(tonal[0])))


def test_recognition_check_rejects_accepted_noise(recognition):
    bench, _, noise = recognition
    result, features = bench.probe(noise[0])
    with pytest.raises(CheckFailed):
        check_probe(bench, noise, dataclasses.replace(result, label="fsk-1500"), features)


POINT = (100, 15, 1, 100)


@pytest.fixture
def curves(tmp_path):
    sweep = workload.PropagationSweep(0, tmp_path)
    out = tmp_path / "curves"
    sweep.curves(POINT, 11, out)
    return out


def check_point(out):
    check_curves(out, *POINT, workload.PropagationSweep.TRIALS)


def edit_value(step, change):
    def edit(text):
        lines = text.splitlines()
        n, value = lines[step + 1].split(",")
        lines[step + 1] = f"{n},{float(change(float(value)))!r}"
        return "\n".join(lines) + "\n"
    return edit


def swap_rows(a, b):
    def edit(text):
        lines = text.splitlines()
        n_a, value_a = lines[a + 1].split(",")
        n_b, value_b = lines[b + 1].split(",")
        lines[a + 1], lines[b + 1] = f"{n_a},{value_b}", f"{n_b},{value_a}"
        return "\n".join(lines) + "\n"
    return edit


def test_curve_check_accepts_real_curves(curves):
    check_point(curves)


@pytest.mark.parametrize("file_name, edit", [
    ("closed.csv", edit_value(30, lambda v: v * (1 + 1e-9))),
    ("recurrence.csv", edit_value(30, lambda v: v + 0.01)),
    ("montecarlo.csv", edit_value(0, lambda v: v + 1)),
    ("montecarlo.csv", swap_rows(10, 30)),                    # decreasing
    ("montecarlo.csv", edit_value(100, lambda v: 100.5)),     # above N
    ("montecarlo.csv", edit_value(99, lambda v: v + 0.005)),  # not a count / trials
])
def test_curve_check_rejects(curves, file_name, edit):
    rewrite(curves / file_name, edit)
    with pytest.raises(CheckFailed):
        check_point(curves)


def test_curve_check_rejects_a_curve_outside_the_band(curves):
    mc = np.concatenate((np.ones(20), np.full(81, 100.0)))  # saturates at once
    rows = [f"{n},{float(v)!r}" for n, v in enumerate(mc)]
    (curves / "montecarlo.csv").write_text("n,expected_infected\n" + "\n".join(rows) + "\n")
    with pytest.raises(CheckFailed):
        check_point(curves)
