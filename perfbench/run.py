"""End-to-end benchmark of the ABG simulator.

    python3 perfbench/run.py --workload giant --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each workload is generated from ``--seed`` and
fed to the public entry points ``simulate_job_set`` (default execution
options) and ``simulate_job``; every output is checked.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer table of a
separate traced run.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads, metrics and layer map.

Every measurement runs in a fresh single-threaded child process
(``perfbench/worker.py``): set-up time counts from process start, and peak
RSS belongs to one run.  Set-up time is the median of :data:`SETUP_SAMPLES`
processes.  The program is imported from ``src/`` next to this directory.
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

from layers import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("giant", "fig6-sets", "arrival-stream", "fig5-jobs")
#: Set-up samples per untraced run: the measured run's own plus extra
#: set-up-only processes.
SETUP_SAMPLES = 5
#: A run must end within this many seconds of wall time.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "job_quanta_per_s": "1/s",
    "sim_p50_ms": "ms",
    "sim_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A child process failed; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # Only this checkout's program, never one found on an inherited path.
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(mode: str, args: argparse.Namespace, deadline: float) -> dict[str, object]:
    """Run one worker process to completion and return its JSON report."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--t0", repr(time.time()),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the run started")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed nothing")
    report: dict[str, object] = json.loads(lines[-1])
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: a few small inputs, for the benchmark's self-test",
    )
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    deadline = time.monotonic() + RUN_DEADLINE_S

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(float(run_child("setup", args, deadline)["setup_s"]))
        run = run_child("run", args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics: dict[str, float] = dict(run["metrics"])
    if args.trace:
        units = metric_units()
    else:
        setups.append(float(run["setup_s"]))
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
    attempted = int(run["attempted"])
    failed = int(run["failed"])

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}")
    print(f"  passes {run['passes']}  simulation-call samples {run.get('sim_samples', '-')}")
    for name, unit in units.items():
        print(f"  {name:<48} {metrics[name]:>16.6g} {unit}")
    print(f"  {'failed_frac':<48} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    for reason in run["reasons"]:
        print(f"  failure: {reason}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
