"""radsim benchmark: one workload, measured end to end or traced layer by layer.

    python3 bench/run.py --workload experiments --seed 1 --seconds 15 --trace 0

Each measurement is a fresh process running ``workload.py``. With
``--trace 0`` the workload is also started ``SETUP_REPEATS`` more times,
set-up only, and ``setup_s`` is the median over all starts of the time from
spawning the process to its first timed operation. With ``--trace 1`` one
process runs the workload with every public radsim function wrapped and
reports per-layer self times and counts instead. The last line printed is
one JSON object: correct, attempted, failed and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD = Path(__file__).resolve().parent / "workload.py"
WORKLOADS = ("experiments", "recognition_probes", "propagation_sweep")
SETUP_REPEATS = 6
TIME_LIMIT_S = 170.0

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "output_bytes": "bytes",
         "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "bytes" if "bytes" in name else "count"


def spawn(args, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Run one workload process; returns its set-up seconds and its result."""
    argv = [sys.executable, str(WORKLOAD), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    # One thread per workload process: numpy's BLAS would otherwise start one per core.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawned_at = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - spawned_at))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready_at"] - spawned_at, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed seconds; whole rounds run until they have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "radsim" / "__init__.py").is_file():
        print(f"error: no radsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setup = [spawn(args, deadline, setup_only=True)[0]
                 for _ in range(0 if args.trace else SETUP_REPEATS)]
        main_setup, result = spawn(args, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in result["per_layer"].items()}
    else:
        values = dict(result["end_to_end"], setup_s=statistics.median(setup + [main_setup]))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": result["check_failures"] == 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
