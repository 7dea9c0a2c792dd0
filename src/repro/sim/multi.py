"""Multiprogrammed two-level scheduling simulation.

A set of jobs space-shares ``P`` processors (paper Sections 6.3 and 7, second
simulation set).  Scheduling quanta are machine-wide and synchronized: at
every boundary ``t = 0, L, 2L, ...`` the allocator divides the processors
among the active jobs' requests, each job runs its quantum, and newly
released jobs join at the next boundary.

A job that completes mid-quantum releases its processors at its completion
step for accounting purposes (no further waste accrues), but they become
re-allocatable only at the next boundary — the conservative reading of the
paper's quantum-granularity reallocation.

Two loops
---------
:func:`simulate_job_set` runs one of exactly two loops, and both produce
bit-identical traces:

- the **reference loop** steps every job's own executor through every
  quantum and allocates through the mapping interface.  It is the oracle,
  and it runs when ``batch="off"``, when any job is not counts-determined
  (no :func:`~repro.sim.multi_batched.segment_profile`: reference-engine
  dags, executor factories such as work stealing), or when the allocator
  has no array-native ``allocate_batch``;
- the **windowed kernel loop** runs everything else.  All jobs live in
  batched kernels (:mod:`repro.sim.multi_batched`), one per allocation
  group, and between barriers — admissions and hierarchical rebalancing
  boundaries — each group advances a whole window of quanta through
  :func:`~repro.sim.sharded.run_group_window`.  A flat allocator (DEQ,
  round-robin) is one group spanning the machine; a
  :class:`~repro.allocators.hierarchical.HierarchicalAllocator` gives one
  group per processor group.  Records go *columnar* into one
  :class:`~repro.sim.superstep.QuantumLog`, and finished traces get
  array-backed :class:`~repro.core.columnar.TraceColumns` views instead of
  eagerly-built record lists.

Supersteps
----------
``superstep="auto"`` (the default) adds multi-quantum fast-forwarding inside
each window.  Between *events* — a job completing or a feedback-driven
request change — the window checks whether the next quantum is a literal
fixed point of the previous one: the feedback recurrences hold every request
bit-identical
(:meth:`~repro.core.feedback.FeedbackPolicy.advance_request_batch`; a policy
with only a scalar form forces ``K = 1``), the group's allocator certifies
its grants repeat
(:meth:`~repro.core.allocators.base.Allocator.allocation_fixed_point`), and
every job's remaining segment chunks sustain identical pure quanta (regime-1
sustain / regime-2 drain closed forms in :mod:`repro.sim.superstep`).  When
all hold, ``K`` quanta advance at once — state moves by closed form and the
``K`` identical records land as one repeat-group in the log.
``superstep="off"`` disables only the fast-forwarding; either setting
produces byte-identical traces and artifacts, because a superstep engages
exactly when the per-quantum path would have produced those ``K`` identical
quanta anyway.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Literal, Sequence, cast

import numpy as np

from ..allocators.base import Allocator, validate_allocation
from ..allocators.hierarchical import HierarchicalAllocator
from ..core.overhead import NO_OVERHEAD, ReallocationOverhead
from ..core.types import JobTrace, QuantumRecord, integer_request
from ..engine.base import JobExecutor
from .jobs import JobSpec, make_executor
from .metrics import makespan, mean_response_time
from .multi_batched import MultiBatchKernel, segment_profile
from .sharded import run_group_window
from .single import run_quantum_with_overhead
from .superstep import QuantumLog

__all__ = ["MultiJobResult", "SUPERSTEP_ENV_VAR", "simulate_job_set"]

BatchChoice = Literal["auto", "off"]
SuperstepChoice = Literal["auto", "off"]

#: Ambient override of the default superstep mode.  When a caller leaves
#: ``superstep=None``, this environment variable (if set) picks the mode —
#: the hook the CI byte-identity job uses to re-run the full artifact
#: pipeline with fast-forwarding disabled and diff the output bytes.
SUPERSTEP_ENV_VAR = "REPRO_SUPERSTEP"


@dataclass(slots=True)
class MultiJobResult:
    """Traces and set-level metrics of one multiprogrammed run."""

    traces: dict[int, JobTrace]
    processors: int
    quantum_length: int
    quanta_elapsed: int = 0
    released: dict[int, int] = field(default_factory=dict)

    @property
    def makespan(self) -> int:
        return makespan(self.traces.values())

    @property
    def mean_response_time(self) -> float:
        return mean_response_time(self.traces.values())

    @property
    def total_waste(self) -> int:
        return sum(t.total_waste for t in self.traces.values())

    @property
    def total_work(self) -> int:
        return sum(t.total_work for t in self.traces.values())


#: ``(release time, job id, spec)``, sorted: the admission order.
_Pending = list[tuple[int, int, JobSpec]]
#: ``(finished traces in the reference loop's order, quanta elapsed)``.
_Outcome = tuple[dict[int, JobTrace], int]


@dataclass(slots=True)
class _ActiveJob:
    spec: JobSpec
    executor: JobExecutor
    trace: JobTrace
    request: float
    next_q: int = 1


def simulate_job_set(
    specs: Sequence[JobSpec],
    allocator: Allocator,
    processors: int,
    *,
    quantum_length: int = 1000,
    max_quanta: int = 10_000_000,
    overhead: ReallocationOverhead = NO_OVERHEAD,
    strict: bool = False,
    batch: BatchChoice = "auto",
    superstep: SuperstepChoice | None = None,
) -> MultiJobResult:
    """Run a job set to completion under a multiprogrammed allocator.

    Job ids default to the spec's position in ``specs``; explicit
    ``JobSpec.job_id`` values must be unique.  ``strict=True`` enables the
    engines' per-step invariant checking for every job.  ``batch`` and
    ``superstep`` pick the loop and the fast-forwarding inside it (see the
    module docstring); results depend on neither.  ``superstep=None`` (the
    default) resolves to :data:`SUPERSTEP_ENV_VAR` if set, else ``"auto"``.
    """
    if superstep is None:
        superstep = cast(
            SuperstepChoice, os.environ.get(SUPERSTEP_ENV_VAR, "auto")
        )
    if processors < 1:
        raise ValueError("need at least one processor")
    if quantum_length < 1:
        raise ValueError("quantum length must be >= 1")
    if not specs:
        raise ValueError("job set is empty")
    if batch not in ("auto", "off"):
        raise ValueError(f"unknown batch mode {batch!r}; pick 'auto' or 'off'")
    if superstep not in ("auto", "off"):
        raise ValueError(
            f"unknown superstep mode {superstep!r}; pick 'auto' or 'off'"
        )
    pending: _Pending = []
    seen_ids: set[int] = set()
    for i, spec in enumerate(specs):
        jid = spec.job_id if spec.job_id is not None else i
        if jid in seen_ids:
            raise ValueError(f"duplicate job id {jid}")
        seen_ids.add(jid)
        pending.append((spec.release_time, jid, spec))
    pending.sort(key=lambda item: (item[0], item[1]))

    profiles: dict[int, tuple[tuple[int, int], ...]] | None = None
    if batch == "auto" and (
        type(allocator).allocate_batch is not Allocator.allocate_batch
    ):
        profiles = {}
        for _rel, jid, spec in pending:
            profile = segment_profile(spec, strict=strict)
            if profile is None:
                profiles = None
                break
            profiles[jid] = profile
    if profiles is None:
        done, quanta = _reference_loop(
            pending, allocator, processors, quantum_length, max_quanta,
            overhead, strict,
        )
    else:
        done, quanta = _windowed_loop(
            pending, profiles, allocator, processors, quantum_length,
            max_quanta, overhead, strict, superstep == "auto",
        )
    return MultiJobResult(
        traces=done,
        processors=processors,
        quantum_length=quantum_length,
        quanta_elapsed=quanta,
        released={jid: rel for rel, jid, _ in pending},
    )


def _reference_loop(
    pending: _Pending,
    allocator: Allocator,
    processors: int,
    L: int,
    max_quanta: int,
    overhead: ReallocationOverhead,
    strict: bool,
) -> _Outcome:
    """The per-job oracle: one executor per job, one mapping allocation per
    quantum, one record per job per quantum."""
    active: dict[int, _ActiveJob] = {}
    done: dict[int, JobTrace] = {}
    t = 0
    quanta = 0
    cursor = 0  # next admission index into the sorted release list
    while cursor < len(pending) or active:
        if quanta >= max_quanta:
            raise RuntimeError(f"job set did not finish within {max_quanta} quanta")
        # Admit jobs released at or before this boundary.
        while cursor < len(pending) and pending[cursor][0] <= t:
            rel, jid, spec = pending[cursor]
            cursor += 1
            active[jid] = _ActiveJob(
                spec=spec,
                executor=make_executor(
                    spec.job, spec.discipline, strict=strict, engine=spec.engine
                ),
                trace=JobTrace(quantum_length=L, release_time=rel, job_id=jid),
                request=spec.feedback.first_request(),
            )
        if not active:
            # Fast-forward to the boundary at/after the next release.
            next_release = pending[cursor][0]
            t = max(t + L, ((next_release + L - 1) // L) * L)
            continue
        requests = {jid: integer_request(job.request) for jid, job in active.items()}
        alloc = allocator.allocate(requests, processors)
        validate_allocation(requests, alloc, processors)
        finished: list[int] = []
        for jid, job in active.items():
            a = alloc[jid]
            prev_a = job.trace.records[-1].allotment if job.trace.records else None
            ex = run_quantum_with_overhead(job.executor, a, L, prev_a, overhead)
            record = QuantumRecord(
                index=job.next_q,
                request=job.request,
                request_int=requests[jid],
                # Under a partitioning allocator the processors "available"
                # to a job are exactly its (possibly trimmed) share when
                # deprived; when satisfied the machine-wide P upper-bounds
                # availability.
                available=a if a < requests[jid] else processors,
                allotment=a,
                work=ex.work,
                span=ex.span,
                steps=ex.steps,
                quantum_length=L,
                start_step=t,
            )
            job.trace.append(record)
            job.next_q += 1
            if ex.finished:
                finished.append(jid)
            else:
                job.request = job.spec.feedback.next_request(record)
        # Finished traces land in admission order (the active dict's order).
        for jid in finished:
            done[jid] = active.pop(jid).trace
        t += L
        quanta += 1
    return done, quanta


def _windowed_loop(
    pending: _Pending,
    profiles: dict[int, tuple[tuple[int, int], ...]],
    allocator: Allocator,
    processors: int,
    L: int,
    max_quanta: int,
    overhead: ReallocationOverhead,
    strict: bool,
    superstep: bool,
) -> _Outcome:
    """The kernel loop: at every barrier, admit and (under a hierarchical
    allocator) re-derive membership, then run each group's window."""
    hier = allocator if isinstance(allocator, HierarchicalAllocator) else None
    log = QuantumLog(L)
    done: dict[int, JobTrace] = {}
    kernels: list[MultiBatchKernel] = []
    budgets: list[int] = []
    if hier is None:
        kernels.append(MultiBatchKernel(strict=strict))
        budgets.append(processors)
    t = 0
    quanta = 0
    seq = 0
    cursor = 0
    while cursor < len(pending) or any(len(k) > 0 for k in kernels):
        if quanta >= max_quanta:
            raise RuntimeError(f"job set did not finish within {max_quanta} quanta")
        arrivals: list[tuple[int, int, JobSpec, int]] = []  # (rel, jid, spec, seq)
        while cursor < len(pending) and pending[cursor][0] <= t:
            rel, jid, spec = pending[cursor]
            cursor += 1
            arrivals.append((rel, jid, spec, seq))
            seq += 1
        if not arrivals and all(len(k) == 0 for k in kernels):
            next_release = pending[cursor][0]
            t = max(t + L, ((next_release + L - 1) // L) * L)
            continue

        # Barrier: membership (sync + rebalance) over the active set including
        # this boundary's arrivals, then slot migration and admission into
        # the per-group kernels.
        group_of: dict[int, int] = {}
        if hier is not None:
            id_req: list[tuple[int, int]] = []
            for kernel in kernels:
                id_req.extend(zip(kernel.jids, kernel.integer_requests().tolist()))
            for _rel, jid, spec, _s in arrivals:
                id_req.append((jid, integer_request(spec.feedback.first_request())))
            id_req.sort()
            ids_arr = np.array([j for j, _ in id_req], dtype=np.int64)
            req_arr = np.array([r for _, r in id_req], dtype=np.int64)
            group_of = hier.begin_window(ids_arr, req_arr, processors)
            if not kernels:
                kernels.extend(
                    MultiBatchKernel(strict=strict) for _ in range(hier.group_count)
                )
                budgets.extend(hier.group_budgets())
            for g, kernel in enumerate(kernels):
                moving = [
                    pos for pos, jid in enumerate(kernel.jids) if group_of[jid] != g
                ]
                if moving:
                    for state in kernel.export_slots(moving):
                        kernels[group_of[state.jid]].import_slot(state)
        for rel, jid, spec, s in arrivals:
            kernels[group_of.get(jid, 0)].admit(
                jid=jid,
                seq=s,
                spec=spec,
                trace=JobTrace(quantum_length=L, release_time=rel, job_id=jid),
                profile=profiles[jid],
                request=spec.feedback.first_request(),
            )

        # Window length: to the next admission boundary, the next
        # rebalancing boundary, and the quantum ceiling — whichever is
        # nearest.  Always >= 1.
        window = max_quanta - quanta
        if hier is not None:
            window = min(window, hier.quanta_to_rebalance())
        if cursor < len(pending):
            next_boundary = ((pending[cursor][0] + L - 1) // L) * L
            window = min(window, (next_boundary - t) // L)

        executed = 0
        finished: list[tuple[int, int, int, JobTrace]] = []
        for g, kernel in enumerate(kernels):
            if len(kernel) == 0:
                continue
            ran, ended = run_group_window(
                kernel,
                hier.group_allocator(g) if hier is not None else allocator,
                log,
                budget=budgets[g],
                processors=processors,
                start=t,
                quanta=window,
                superstep=superstep,
                overhead=overhead,
            )
            executed = max(executed, ran)
            finished.extend(ended)
        for _q, _s, jid, trace in sorted(finished):
            done[jid] = trace
        if hier is not None:
            hier.advance_window(executed)
        t += executed * L
        quanta += executed
    log.build_traces(done)
    return done, quanta
