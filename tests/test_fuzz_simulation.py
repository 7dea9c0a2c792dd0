"""Whole-system fuzzing: random jobs, random availability, both policies —
the simulator's global invariants must hold for every combination."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.allocators.availability import TraceAvailability
from repro.allocators.equipartition import DynamicEquiPartitioning
from repro.core.abg import AControl
from repro.core.agreedy import AGreedy
from repro.core.overhead import ReallocationOverhead
from repro.engine.phased import PhasedJob
from repro.sim.jobs import JobSpec
from repro.sim.multi import simulate_job_set
from repro.sim.single import simulate_job

phases_strategy = st.lists(
    st.tuples(st.integers(1, 10), st.integers(1, 40)),
    min_size=1,
    max_size=6,
)

availability_strategy = st.lists(st.integers(1, 24), min_size=1, max_size=12)

policy_strategy = st.sampled_from(
    [
        AControl(0.0),
        AControl(0.2),
        AControl(0.5),
        AGreedy(),
        AGreedy(responsiveness=3.0, utilization_threshold=0.5),
    ]
)


class TestSingleJobInvariants:
    @settings(max_examples=150, deadline=None)
    @given(phases_strategy, availability_strategy, policy_strategy, st.integers(5, 60))
    def test_trace_invariants(self, phases, avail, policy, L):
        job = PhasedJob(phases)
        trace = simulate_job(
            job, policy, TraceAvailability(avail), quantum_length=L
        )
        # conservation
        assert trace.total_work == job.work
        assert trace.total_span == pytest.approx(job.span)
        # structural invariants on every quantum
        for rec in trace:
            assert 1 <= rec.allotment <= rec.available
            assert rec.allotment <= rec.request_int
            assert rec.waste >= 0
            assert 0 <= rec.span <= rec.steps + 1e-9  # breadth-first execution
        # only the last quantum may be short
        for rec in trace.records[:-1]:
            assert rec.is_full
        # running time at least the greedy optimum
        assert trace.running_time >= job.span or trace.running_time >= job.work / max(avail)
        # transition factor well-defined
        assert trace.measured_transition_factor() >= 1.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        phases_strategy,
        policy_strategy,
        st.integers(5, 40),
        st.floats(min_value=0.0, max_value=10.0),
    )
    @example(
        phases=[(1, 7), (9, 34), (1, 26), (2, 5)], policy=AControl(0.0), L=25, cost=0.25
    )
    def test_overhead_invariants(self, phases, policy, L, cost):
        job = PhasedJob(phases)
        trace = simulate_job(
            job,
            policy,
            16,
            quantum_length=L,
            overhead=ReallocationOverhead(per_processor=cost),
        )
        assert trace.total_work == job.work
        # Overhead changes the feedback trajectory, so it can also shorten
        # a run (the pinned example takes 109 steps against 110 without
        # overhead); only the model's lower bounds hold.
        assert trace.running_time >= job.span
        assert trace.running_time >= job.work / 16
        # Greedy non-idling: a quantum that keeps the previous allotment
        # pays no reallocation overhead, so every step does work.
        for prev, rec in zip(trace.records, trace.records[1:]):
            if rec.allotment == prev.allotment:
                assert rec.work >= rec.steps


class TestJobSetInvariants:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(phases_strategy, min_size=1, max_size=5),
        policy_strategy,
        st.integers(8, 32),
        st.lists(st.integers(0, 300), min_size=5, max_size=5),
    )
    def test_multi_invariants(self, jobs_phases, policy, processors, releases):
        jobs = [PhasedJob(p) for p in jobs_phases]
        specs = [
            JobSpec(job=j, feedback=policy, release_time=releases[i])
            for i, j in enumerate(jobs)
        ]
        result = simulate_job_set(
            specs, DynamicEquiPartitioning(), processors, quantum_length=20
        )
        assert set(result.traces) == set(range(len(jobs)))
        for i, job in enumerate(jobs):
            trace = result.traces[i]
            assert trace.total_work == job.work
            # a job cannot finish before its release plus its span
            assert trace.completion_time >= releases[i] + job.span
        # makespan dominates every completion
        assert result.makespan == max(t.completion_time for t in result.traces.values())
        # machine-wide conservation: per-quantum allotments never exceed P
        by_start: dict[int, int] = {}
        for trace in result.traces.values():
            for rec in trace:
                by_start[rec.start_step] = by_start.get(rec.start_step, 0) + rec.allotment
        assert all(total <= processors for total in by_start.values())
