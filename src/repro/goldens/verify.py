"""Replaying golden fixtures: the ``verify-traces`` engine.

Every fixture is replayed on all three execution paths (serial, batched,
superstep) against its recorded reference traces, so one bundle proves
three-way identity under the current code.  Replay units fan out
through the supervised pool
(:func:`repro.experiments.parallel.map_deterministic`), which keeps the
report order-preserving and byte-identical at any worker count — and,
because retries replay deterministic pure units, identical with fault
injection on and off.

Each unit is pure and RNG-free: load bundle, rebuild the job set from the
explicit scenario, simulate, diff.  Failures map onto the shared finding
model — ``ABG401`` for a field-level divergence, ``ABG402`` for a shape
(job-set / quantum-count) divergence, ``ABG403`` for an unreadable bundle
or metadata mismatch — so ``verify-traces`` shares the lint exit-code
policy and report formats.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from ..experiments.parallel import map_deterministic
from ..io.traces import load_golden_bundle
from ..runtime import FaultPlan, unit_key
from ..sim.replay import EXECUTION_PATHS, replay_path
from ..verify.findings import (
    LintFinding,
    exit_code,
    findings_payload,
    rule_severity,
)
from .diff import first_divergence
from .spec import ScenarioSpec

__all__ = ["ReplayTask", "VerifyReport", "replay_unit", "verify_traces"]


@dataclass(frozen=True, slots=True)
class ReplayTask:
    """One (fixture file, execution path) replay unit."""

    fixture: str
    path: str


def replay_unit(task: ReplayTask) -> dict[str, Any]:
    """Replay one fixture on one path; pure, picklable, deterministic.

    Returns a JSON-ready outcome dict: ``status`` is ``"pass"``,
    ``"fail"`` (with the first-divergence payload), or ``"error"`` (the
    bundle could not be loaded or rebuilt).
    """
    fixture = task.fixture
    scenario_id = Path(fixture).stem
    try:
        bundle = load_golden_bundle(fixture)
        spec = ScenarioSpec.from_dict(bundle.scenario)
        scenario_id = spec.scenario_id
        specs, allocator = spec.build()
        result = replay_path(
            specs,
            allocator,
            spec.processors,
            quantum_length=spec.quantum_length,
            max_quanta=spec.max_quanta,
            path=task.path,
        )
    except ValueError as exc:
        return {
            "fixture": fixture,
            "scenario_id": scenario_id,
            "path": task.path,
            "status": "error",
            "error": str(exc),
        }
    divergence = first_divergence(
        bundle.traces, dict(result.traces), horizon=spec.horizon
    )
    if divergence is None:
        return {
            "fixture": fixture,
            "scenario_id": scenario_id,
            "path": task.path,
            "status": "pass",
        }
    return {
        "fixture": fixture,
        "scenario_id": scenario_id,
        "path": task.path,
        "status": "fail",
        "divergence": divergence.to_payload(),
    }


def _finding_for(outcome: dict[str, Any]) -> LintFinding | None:
    """Map one failed/errored outcome onto the shared finding model."""
    status = outcome["status"]
    if status == "pass":
        return None
    if status == "error":
        code = "ABG403"
        message = f"[{outcome['path']}] {outcome['error']}"
    else:
        divergence = outcome["divergence"]
        kind = divergence["kind"]
        if kind == "field":
            code = "ABG401"
        elif kind == "metadata":
            code = "ABG403"
        else:
            code = "ABG402"
        message = f"[{outcome['path']}] {divergence['summary']}"
    return LintFinding(
        path=outcome["fixture"],
        line=1,
        col=0,
        code=code,
        message=message,
        severity=rule_severity(code),
    )


@dataclass(frozen=True, slots=True)
class VerifyReport:
    """The full verify-traces result: per-unit outcomes plus findings."""

    outcomes: tuple[dict[str, Any], ...]
    findings: tuple[LintFinding, ...]
    fixtures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return exit_code(list(self.findings)) == 0

    def render(self) -> str:
        """Deterministic human-readable report (stable at any worker count
        and under fault injection — outcomes are order-preserving)."""
        lines: list[str] = []
        counts = {"pass": 0, "fail": 0, "error": 0}
        for outcome in self.outcomes:
            status = outcome["status"]
            counts[status] += 1
            head = (
                f"{status.upper():5s} {outcome['scenario_id']} "
                f"[{outcome['path']}]"
            )
            if status == "pass":
                lines.append(head)
            elif status == "error":
                lines.append(f"{head}: {outcome['error']}")
            else:
                lines.append(f"{head}: {outcome['divergence']['summary']}")
                for diff in outcome["divergence"]["fields"]:
                    lines.append(
                        f"      {diff['field']}: expected {diff['expected']!r} "
                        f"got {diff['got']!r}"
                    )
        lines.append(
            f"{len(self.outcomes)} replay(s) over {len(self.fixtures)} "
            f"fixture(s): {counts['pass']} pass, {counts['fail']} fail, "
            f"{counts['error']} error"
        )
        return "\n".join(lines)

    def payload(self) -> dict[str, Any]:
        body = findings_payload(list(self.findings))
        body["outcomes"] = list(self.outcomes)
        body["fixtures"] = list(self.fixtures)
        return body


def _encode_outcome(outcome: dict[str, Any]) -> dict[str, Any]:
    return outcome


def _decode_outcome(payload: object) -> dict[str, Any]:
    if not isinstance(payload, dict):
        raise ValueError(f"replay outcome payload must be a dict, got {payload!r}")
    return payload


def verify_traces(
    fixtures: Sequence[str | Path],
    *,
    workers: int = 1,
    retries: int = 2,
    task_timeout: float | None = None,
    faults: FaultPlan | None = None,
) -> VerifyReport:
    """Replay every fixture on every execution path and report.

    ``faults`` is the chaos hook: a seeded :class:`FaultPlan` injects
    crashes/hangs into the pool while the report stays byte-identical,
    because every unit is pure and the pool preserves submission order.
    """
    names = tuple(str(f) for f in fixtures)
    tasks = [
        ReplayTask(fixture=name, path=path)
        for name in names
        for path in EXECUTION_PATHS
    ]
    keys = [
        unit_key("golden-replay", {"fixture": t.fixture, "path": t.path})
        for t in tasks
    ]
    outcomes = map_deterministic(
        replay_unit,
        tasks,
        workers=workers,
        keys=keys,
        encode=_encode_outcome,
        decode=_decode_outcome,
        retries=retries,
        task_timeout=task_timeout,
        faults=faults,
    )
    findings = tuple(
        f for f in (_finding_for(outcome) for outcome in outcomes) if f is not None
    )
    return VerifyReport(
        outcomes=tuple(outcomes), findings=findings, fixtures=names
    )
