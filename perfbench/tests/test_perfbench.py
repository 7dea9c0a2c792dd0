"""Self-test of the benchmark: every workload at a tiny size, through the
benchmark's own command, untraced and traced.

    python3 -m pytest perfbench/tests -q

Checks that every end-to-end metric is printed with its unit, that the
output check passes, that the traced run reaches every layer the workload
claims to exercise, and that ``BENCHMARK.json`` lists exactly the metrics
the command prints.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from layers import metric_units  # noqa: E402
from run import END_TO_END_UNITS, WORKLOADS  # noqa: E402

_MULTI = (
    "sim.multi.simulate_job_set",
    "sim.multi_batched.execute_quantum",
    "sim.multi_batched.integer_requests",
    "sim.multi_batched.admit",
    "sim.multi_batched.remove",
    "allocators.equipartition.allocate_batch",
    "allocators.base.validate_allocation_arrays",
    "core.feedback.next_request_batch",
    "sim.superstep.append_quantum",
    "sim.superstep.set_layout",
    "sim.superstep.build_traces",
    "sim.metrics.makespan",
    "sim.metrics.mean_response_time",
)

#: Layer entries each workload's traced run must reach (at least one call).
CLAIMS: dict[str, tuple[str, ...]] = {
    "giant": _MULTI + ("allocators.hierarchical.allocate_batch",),
    "fig6-sets": _MULTI + ("sim.superstep.superstep_plan",),
    "arrival-stream": _MULTI
    + (
        "sim.superstep.superstep_plan",
        "sim.superstep.apply_superstep",
        "allocators.base.allocation_fixed_point",
        "core.feedback.advance_request_batch",
    ),
    "fig5-jobs": (
        "sim.single.simulate_job",
        "engine.phased.execute_quantum",
        "core.feedback.next_request",
    ),
}


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", "7",
            "--seconds", "1",
            "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return lines[:-1], result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload: str) -> None:
    table, result = bench(workload, 0)
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == END_TO_END_UNITS
    printed = {line.split()[0]: line.split()[-1] for line in table if len(line.split()) == 3}
    for name, unit in END_TO_END_UNITS.items():
        assert printed.get(name) == unit, name
        assert metrics[name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reaches_claimed_layers(workload: str) -> None:
    _, result = bench(workload, 1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(metric_units())
    assert metrics["core.columnar.build_records.calls"] == 0
    assert metrics["trace.coverage"] >= 0.9
    for entry in CLAIMS[workload]:
        assert metrics[f"{entry}.calls"] > 0, entry


def test_benchmark_json_matches_printed_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()


def test_fails_without_the_program(tmp_path: Path) -> None:
    """Outside a checkout that holds ``src/`` the command fails and prints
    no result."""
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "giant", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
