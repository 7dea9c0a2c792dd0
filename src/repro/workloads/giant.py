"""Giant-scale hierarchical workloads: thousands of jobs, P in the tens of
thousands.

The shape is engineered so windowed execution has something real to win:
group 0 holds *churners* — jobs alternating between a narrow and a wide
phase every few hundred levels, so every quantum crosses a phase boundary,
the batched kernel can never certify a superstep for them, and the group
executes quantum by quantum.  Every other group holds long single-phase
*stable* jobs whose A-Control requests reach their bitwise fixed point
within a few quanta, after which whole windows collapse into supersteps.

A machine-wide superstep would need *every* slot at a fixed point, so one
churning group would pin the entire machine to per-quantum execution.  The
windowed kernel loop supersteps per group instead: the stable groups
fast-forward their windows independently while only group 0 pays the
per-quantum cost.

Job ids are assigned so membership is predictable: admission fills groups
round-robin in sorted-id order (equal budgets, ties to the lowest index),
so jobs ``id % groups == 0`` land in group 0 — exactly the churners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..allocators.hierarchical import HierarchicalAllocator
from ..core.abg import AControl
from ..engine.phased import PhasedJob
from ..sim.jobs import JobSpec

if TYPE_CHECKING:
    from ..sim.multi import MultiJobResult

__all__ = ["GiantRow", "GiantScenario", "artifact_rows", "giant_scenario"]

#: Stable jobs' phase width; group budgets are sized so a full group of
#: these is exactly satisfiable.
_STABLE_WIDTH = 4
#: Churners alternate (narrow, levels) / (wide, levels) phases.  The phase
#: length is just under one quantum's worth of levels, so nearly every
#: quantum crosses a phase boundary (blocking supersteps) while keeping the
#: segment count — and with it the kernel arena each window ships to its
#: worker — small.
_CHURN_NARROW = 3
_CHURN_WIDE = 7
_CHURN_PHASE_LEVELS = 900
#: One churner per this many group-0 slots: a single churner already pins
#: its whole group (and, under the flat loop, the whole machine) to
#: per-quantum execution, so most of group 0 can stay stable jobs.
_CHURN_STRIDE = 4


@dataclass(frozen=True, slots=True)
class GiantScenario:
    """One materialized giant-scale run: the job set plus machine shape."""

    specs: tuple[JobSpec, ...]
    processors: int
    group_size: int
    quantum_length: int
    rebalance_interval: int

    def build_allocator(self) -> HierarchicalAllocator:
        """A fresh allocator for one run (allocators are stateful)."""
        return HierarchicalAllocator(
            self.group_size,
            rebalance_interval=self.rebalance_interval,
            # Effectively disable migration: the giant scenario gates the
            # windowed execution machinery, and a churner migrating into a
            # stable group would change what is being measured from run to
            # run of the *parameterization*, not the code.  Migration
            # correctness is covered by the allocator tests and goldens.
            imbalance_threshold=100.0,
        )


def giant_scenario(
    *,
    groups: int = 32,
    jobs_per_group: int = 128,
    stable_quanta: int = 800,
    quantum_length: int = 1000,
    rebalance_interval: int = 800,
) -> GiantScenario:
    """Materialize the giant workload: ``groups * jobs_per_group`` jobs on
    ``P = groups * jobs_per_group * STABLE_WIDTH + 1`` processors.

    The machine size gives every group ``jobs_per_group * STABLE_WIDTH``
    processors (one group gets the +1), so a full group of stable jobs is
    exactly satisfiable, while the +1 lands in group 0 to keep its DEQ
    waterfall's rotating remainder alive.  ``stable_quanta`` sets how many
    quanta a stable job runs; churners carry the same total level count in
    alternating short phases.  Deterministic and RNG-free.
    """
    if groups < 2:
        raise ValueError("giant scenario needs at least two groups")
    if jobs_per_group < 1:
        raise ValueError("need at least one job per group")
    if stable_quanta < 1:
        raise ValueError("need at least one quantum of work")
    budget = jobs_per_group * _STABLE_WIDTH
    processors = groups * budget + 1
    group_size = -(-processors // groups)  # ceil -> exactly `groups` groups
    policy = AControl(0.2)
    stable_levels = stable_quanta * quantum_length
    churn_pairs = -(-stable_levels // (2 * _CHURN_PHASE_LEVELS))
    churn_phases = [
        (_CHURN_NARROW, _CHURN_PHASE_LEVELS),
        (_CHURN_WIDE, _CHURN_PHASE_LEVELS),
    ] * churn_pairs
    stable_job = PhasedJob([(_STABLE_WIDTH, stable_levels)])
    churn_job = PhasedJob(churn_phases)

    def is_churner(jid: int) -> bool:
        return jid % groups == 0 and (jid // groups) % _CHURN_STRIDE == 0

    specs = tuple(
        JobSpec(
            job=churn_job if is_churner(jid) else stable_job,
            feedback=policy,
            job_id=jid,
        )
        for jid in range(groups * jobs_per_group)
    )
    return GiantScenario(
        specs=specs,
        processors=processors,
        group_size=group_size,
        quantum_length=quantum_length,
        rebalance_interval=rebalance_interval,
    )


@dataclass(frozen=True, slots=True)
class GiantRow:
    """One job's aggregate outcome — a row of the ``repro giant`` artifact."""

    job_id: int
    release_time: int
    completion_time: float
    running_time: float
    total_work: float
    total_waste: float
    records: int


def artifact_rows(result: "MultiJobResult") -> list[GiantRow]:
    """Deterministic per-job rows of a giant run, sorted by job id.

    This is the byte-comparison surface for the identity check in CI: the
    same scenario run with supersteps on and off must produce the identical
    CSV.
    """
    rows: list[GiantRow] = []
    for jid in sorted(result.traces):
        trace = result.traces[jid]
        rows.append(
            GiantRow(
                job_id=jid,
                release_time=trace.release_time,
                completion_time=float(trace.completion_time),
                running_time=float(trace.running_time),
                total_work=float(trace.total_work),
                total_waste=float(trace.total_waste),
                records=len(trace),
            )
        )
    return rows
