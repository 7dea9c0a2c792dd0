"""Seeded workload generators and the output checks for their results.

Every workload is a list of *cases*, one public simulator call each: a
:class:`SetCase` goes to ``simulate_job_set`` with default execution options
(batched kernel, supersteps on, no shards), a :class:`JobCase` to
``simulate_job``.  The same ``(name, seed, size)`` always yields the same
cases.  Why each workload exists is in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from repro.allocators.base import Allocator
from repro.allocators.equipartition import DynamicEquiPartitioning
from repro.allocators.hierarchical import HierarchicalAllocator
from repro.core.abg import AControl
from repro.core.agreedy import AGreedy
from repro.core.feedback import FeedbackPolicy
from repro.core.types import JobTrace
from repro.engine.phased import PhasedJob
from repro.sim import metrics, multi, single
from repro.sim.jobs import JobSpec
from repro.workloads.arrivals import poisson_releases
from repro.workloads.forkjoin import ForkJoinGenerator
from repro.workloads.jobsets import JobSetGenerator

SIZES = ("full", "tiny")

#: The paper's machine for Figures 5 and 6 and the open-system runs.
PROCESSORS = 128
QUANTUM = 1000


def _policies() -> tuple[FeedbackPolicy, FeedbackPolicy]:
    """ABG (A-Control, r = 0.2) and A-Greedy with the paper's parameters."""
    return AControl(0.2), AGreedy(2.0, 0.8)


@dataclass(frozen=True)
class Output:
    """What one case computes: per-job traces, the multiprogrammed loop's
    ``quanta_elapsed`` (0 for a single job), and the figure's two numbers."""

    traces: dict[int, JobTrace]
    quanta_elapsed: int
    summary: tuple[float, float]


@dataclass(frozen=True)
class SetCase:
    """One ``simulate_job_set`` call and the facts its output is checked
    against (indexed by job id)."""

    specs: tuple[JobSpec, ...]
    make_allocator: Callable[[], Allocator]
    processors: int
    works: tuple[int, ...]
    spans: tuple[int, ...]
    releases: tuple[int, ...]

    def simulate(self) -> multi.MultiJobResult:
        return multi.simulate_job_set(
            self.specs, self.make_allocator(), self.processors, quantum_length=QUANTUM
        )

    def solution(self, result: multi.MultiJobResult) -> Output:
        """The Figure 6 quantities of one set: makespan and mean response."""
        traces = result.traces.values()
        return Output(
            result.traces,
            result.quanta_elapsed,
            (metrics.makespan(traces), metrics.mean_response_time(traces)),
        )

    def reference(self) -> dict[int, JobTrace]:
        """The per-job ``batch="off"`` loop on the same input."""
        return multi.simulate_job_set(
            self.specs,
            self.make_allocator(),
            self.processors,
            quantum_length=QUANTUM,
            batch="off",
        ).traces


@dataclass(frozen=True)
class JobCase:
    """One ``simulate_job`` call: a single job alone on the machine."""

    job: PhasedJob
    policy: FeedbackPolicy

    def simulate(self) -> JobTrace:
        return single.simulate_job(self.job, self.policy, PROCESSORS, quantum_length=QUANTUM)

    def solution(self, trace: JobTrace) -> Output:
        """The Figure 5 quantities of one job: running time and waste."""
        return Output({0: trace}, 0, (trace.running_time, trace.total_waste))

    def reference(self) -> dict[int, JobTrace]:
        """The same job as a one-job set on the ``batch="off"`` loop: with one
        job, DEQ grants ``min(request, P)`` just as the single-job loop does."""
        return multi.simulate_job_set(
            [JobSpec(job=self.job, feedback=self.policy)],
            DynamicEquiPartitioning(),
            PROCESSORS,
            quantum_length=QUANTUM,
            batch="off",
        ).traces

    @property
    def works(self) -> tuple[int]:
        return (self.job.work,)

    @property
    def spans(self) -> tuple[int]:
        return (self.job.span,)

    @property
    def releases(self) -> tuple[int]:
        return (0,)

    @property
    def processors(self) -> int:
        return PROCESSORS


Case = Union[SetCase, JobCase]


@dataclass(frozen=True)
class Workload:
    cases: tuple[Case, ...]
    reference: tuple[Case, ...]
    """Cases re-run on the ``batch="off"`` loop after the timed region:
    a seeded subset of ``cases``, or for giant a same-shape instance a few
    groups wide (the full one is too slow for the reference loop)."""


def _set_case(
    jobs: list[PhasedJob],
    policy: FeedbackPolicy,
    make_allocator: Callable[[], Allocator],
    processors: int,
    releases: list[int] | None = None,
) -> SetCase:
    releases = releases or [0] * len(jobs)
    return SetCase(
        specs=tuple(
            JobSpec(job=j, feedback=policy, release_time=r)
            for j, r in zip(jobs, releases)
        ),
        make_allocator=make_allocator,
        processors=processors,
        works=tuple(j.work for j in jobs),
        spans=tuple(j.span for j in jobs),
        releases=tuple(releases),
    )


# ----------------------------------------------------------------------
# giant: the shape of repro.workloads.giant with seeded job lengths

_STABLE_WIDTH = 4
_CHURN_NARROW, _CHURN_WIDE, _CHURN_PHASE_LEVELS, _CHURN_STRIDE = 3, 7, 900, 4


def _giant_case(
    rng: np.random.Generator, groups: int, jobs_per_group: int, stable_quanta: int
) -> SetCase:
    """``groups`` hierarchical groups of ``jobs_per_group`` jobs on
    ``P = groups * jobs_per_group * 4 + 1``.  Group 0 holds a churner every
    fourth slot (narrow/wide phases just under a quantum long, so it never
    reaches a superstep); every other job is one stable width-4 phase.  The
    seed adds up to 5% to each job's length.  Migration is off and
    rebalancing comes once per ``stable_quanta`` quanta, as in the repo's
    giant scenario."""
    processors = groups * jobs_per_group * _STABLE_WIDTH + 1
    group_size = -(-processors // groups)
    base_levels = stable_quanta * QUANTUM
    extra = rng.integers(0, base_levels // 20 + 1, size=groups * jobs_per_group)
    jobs = []
    for jid, more in enumerate(extra.tolist()):
        levels = base_levels + more
        if jid % groups == 0 and (jid // groups) % _CHURN_STRIDE == 0:
            pairs = -(-levels // (2 * _CHURN_PHASE_LEVELS))
            jobs.append(
                PhasedJob(
                    [(_CHURN_NARROW, _CHURN_PHASE_LEVELS), (_CHURN_WIDE, _CHURN_PHASE_LEVELS)]
                    * pairs
                )
            )
        else:
            jobs.append(PhasedJob([(_STABLE_WIDTH, levels)]))

    def make_allocator() -> Allocator:
        return HierarchicalAllocator(
            group_size, rebalance_interval=stable_quanta, imbalance_threshold=100.0
        )

    return _set_case(jobs, AControl(0.2), make_allocator, processors)


def _giant(rng: np.random.Generator, tiny: bool) -> Workload:
    mini = _giant_case(rng, groups=4, jobs_per_group=8, stable_quanta=20)
    if tiny:
        return Workload((mini,), (mini,))
    full = _giant_case(rng, groups=32, jobs_per_group=128, stable_quanta=200)
    return Workload((full,), (mini,))


# ----------------------------------------------------------------------
# fig6-sets: Figure 6 batched job sets under both policies


def _fig6(rng: np.random.Generator, tiny: bool) -> Workload:
    """Figure 6 job sets (``JobSetGenerator``: fork-join jobs with
    transition factors U{2..100} added until the set meets its load, at most
    ``P`` jobs), each run under ABG and A-Greedy on DEQ.  Target loads are
    stratified over U(0.2, 6.0), one draw per equal slice, so every seed
    covers the whole load range and the pass cost varies little by seed."""
    sets = 4 if tiny else 100
    gen = JobSetGenerator(PROCESSORS, quantum_length=QUANTUM)
    cases: list[Case] = []
    for i in range(sets):
        sample = gen.generate(rng, 0.2 + 5.8 * (i + float(rng.uniform())) / sets)
        for policy in _policies():
            cases.append(
                _set_case(list(sample.jobs), policy, DynamicEquiPartitioning, PROCESSORS)
            )
    picks = rng.choice(len(cases), size=min(4, len(cases)), replace=False)
    return Workload(tuple(cases), tuple(cases[i] for i in sorted(picks)))


# ----------------------------------------------------------------------
# arrival-stream: one open-system stream per policy

#: Offered load (arrival rate x mean work / P).  Kept well below 1: near
#: saturation the backlog outgrows P and DEQ rejects ``|J| > P``.
ARRIVAL_LOAD = 0.5


def _arrival(rng: np.random.Generator, tiny: bool) -> Workload:
    """Independent streams of fork-join jobs (factors U{2..100}) with
    Poisson releases whose mean gap gives offered load :data:`ARRIVAL_LOAD`
    on P = 128 under DEQ, each run under ABG and A-Greedy.  Four streams of
    250 jobs rather than one of 1000 give the per-call percentiles enough
    samples in one run."""
    streams, count = (1, 40) if tiny else (4, 250)
    gen = ForkJoinGenerator(QUANTUM)
    cases: list[Case] = []
    for _ in range(streams):
        jobs = [gen.generate(rng, int(rng.integers(2, 101))) for _ in range(count)]
        mean_work = sum(j.work for j in jobs) / count
        releases = poisson_releases(rng, count, mean_work / (ARRIVAL_LOAD * PROCESSORS))
        for policy in _policies():
            cases.append(
                _set_case(jobs, policy, DynamicEquiPartitioning, PROCESSORS, releases)
            )
    return Workload(tuple(cases), tuple(cases))


# ----------------------------------------------------------------------
# fig5-jobs: Figure 5 single jobs through simulate_job


def _fig5(rng: np.random.Generator, tiny: bool) -> Workload:
    """``jobs_per_factor`` fork-join jobs for every transition factor in
    2..100, each run alone under ABG and A-Greedy (the Figure 5 sweep)."""
    factors = (2, 51, 100) if tiny else range(2, 101)
    jobs_per_factor = 2 if tiny else 50
    gen = ForkJoinGenerator(QUANTUM)
    policies = _policies()
    cases: list[Case] = []
    for factor in factors:
        for _ in range(jobs_per_factor):
            job = gen.generate(rng, factor)
            cases.extend(JobCase(job, policy) for policy in policies)
    picks = rng.choice(len(cases), size=min(50, len(cases)), replace=False)
    return Workload(tuple(cases), tuple(cases[i] for i in sorted(picks)))


BUILDERS = {
    "giant": _giant,
    "fig6-sets": _fig6,
    "arrival-stream": _arrival,
    "fig5-jobs": _fig5,
}


def build(name: str, seed: int, size: str) -> Workload:
    """The workload ``name`` generated from ``seed`` at ``size``."""
    stream = list(BUILDERS).index(name)
    return BUILDERS[name](np.random.default_rng([seed, stream]), size == "tiny")


# ----------------------------------------------------------------------
# output checks


def digest(traces: dict[int, JobTrace]) -> str:
    """Per-job (id, completion, waste, quanta) digest of one call's output.
    Quanta are counted with ``len(trace)``, which never builds records."""
    rows = sorted(
        (jid, int(t.completion_time), int(t.total_waste), len(t)) for jid, t in traces.items()
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def check(case: Case, traces: dict[int, JobTrace]) -> str | None:
    """Why ``traces`` is not a correct output of ``case``, or ``None``.

    Every submitted job finished, did exactly its generated work, and the
    makespan is at least the lower bound ``max(sum T1 / P, max(r + Tinf))``.
    """
    if sorted(traces) != list(range(len(case.works))):
        return f"finished jobs {len(traces)} != submitted {len(case.works)}"
    for jid, trace in traces.items():
        if trace.total_work != case.works[jid]:
            return f"job {jid} did work {trace.total_work}, generated {case.works[jid]}"
    bound = metrics.makespan_lower_bound(case.works, case.spans, case.releases, case.processors)
    span = max(t.completion_time for t in traces.values())
    if span < bound:
        return f"makespan {span} below lower bound {bound}"
    return None
