"""Golden-trace regression harness: record, replay, diff, shrink.

The package turns "the traces changed" into a deterministic verdict:

- **record** (:mod:`repro.goldens.record`) materializes fig6-style
  scenarios into explicit job sets, executes them on the serial reference
  path, and writes versioned golden bundles with provenance and a content
  digest (``python -m repro record-traces``);
- **replay** (:mod:`repro.goldens.verify`) re-executes every committed
  fixture on all three execution paths — serial, batched, superstep —
  and reports the *first diverging quantum* with a field-level
  diff (``python -m repro verify-traces``);
- **shrink** (:mod:`repro.goldens.shrink`) delta-debugs a failing job set
  over jobs, phases, and quantum horizon down to a minimal reproduction,
  emitting a ready-to-commit regression fixture.

Divergences map onto the shared finding model (``ABG401``–``ABG404``), so
the harness shares the lint exit-code policy and CI surfaces.
"""

from __future__ import annotations

from .diff import FieldDiff, TraceDivergence, first_divergence
from .record import (
    DEFAULT_FIXTURE_DIR,
    check_freshness,
    dag_scenario,
    default_scenarios,
    fixture_paths,
    record_bundle,
    record_fixtures,
    record_stale_fixtures,
    scenario_from_fig6,
)
from .shrink import (
    ShrinkResult,
    cross_path_divergence,
    regression_bundle,
    shrink_scenario,
)
from .spec import ExplicitJob, ScenarioSpec
from .verify import ReplayTask, VerifyReport, replay_unit, verify_traces

__all__ = [
    "FieldDiff",
    "TraceDivergence",
    "first_divergence",
    "DEFAULT_FIXTURE_DIR",
    "check_freshness",
    "dag_scenario",
    "default_scenarios",
    "fixture_paths",
    "record_bundle",
    "record_fixtures",
    "record_stale_fixtures",
    "scenario_from_fig6",
    "ShrinkResult",
    "cross_path_divergence",
    "regression_bundle",
    "shrink_scenario",
    "ExplicitJob",
    "ScenarioSpec",
    "ReplayTask",
    "VerifyReport",
    "replay_unit",
    "verify_traces",
]
