"""Unit/integration tests for the single-job simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.allocators.availability import ConstantAvailability, TraceAvailability
from repro.allocators.equipartition import DynamicEquiPartitioning
from repro.core.abg import AControl
from repro.core.agreedy import AGreedy
from repro.core.quantum_policy import AdaptiveQuantumLength
from repro.core.reference import FixedRequest, OracleFeedback
from repro.core.types import QuantumRecord
from repro.dag.builders import fork_join_from_phases
from repro.engine.base import QuantumExecution
from repro.engine.phased import PhasedExecutor, PhasedJob
from repro.sim.jobs import JobSpec
from repro.sim.multi import simulate_job_set
from repro.sim.single import simulate_job
from repro.workloads.forkjoin import constant_parallelism_job


class TestTraceStructure:
    def test_quantum_indices_sequential(self):
        trace = simulate_job(PhasedJob([(4, 50)]), AControl(0.2), 16, quantum_length=10)
        assert [r.index for r in trace] == list(range(1, len(trace) + 1))

    def test_first_request_is_one(self):
        trace = simulate_job(PhasedJob([(4, 50)]), AControl(0.2), 16, quantum_length=10)
        assert trace[1].request == 1.0
        assert trace[1].allotment == 1

    def test_work_conservation(self):
        job = PhasedJob([(1, 20), (6, 30), (1, 10)])
        trace = simulate_job(job, AControl(0.2), 16, quantum_length=25)
        assert trace.total_work == job.work
        assert trace.total_span == pytest.approx(job.span)

    def test_only_last_quantum_short(self):
        job = PhasedJob([(3, 100)])
        trace = simulate_job(job, AControl(0.0), 16, quantum_length=30)
        for rec in trace.records[:-1]:
            assert rec.is_full
        assert trace.records[-1].steps <= 30

    def test_conservative_allotment(self):
        trace = simulate_job(PhasedJob([(8, 60)]), AControl(0.2), 4, quantum_length=10)
        for rec in trace:
            assert rec.allotment <= rec.request_int
            assert rec.allotment <= rec.available

    def test_start_steps_accumulate(self):
        trace = simulate_job(PhasedJob([(2, 100)]), AControl(0.2), 8, quantum_length=25)
        t = 0
        for rec in trace:
            assert rec.start_step == t
            t += rec.steps

    def test_int_availability_shorthand(self):
        t1 = simulate_job(PhasedJob([(4, 40)]), AControl(0.2), 16, quantum_length=10)
        t2 = simulate_job(
            PhasedJob([(4, 40)]),
            AControl(0.2),
            ConstantAvailability(16),
            quantum_length=10,
        )
        assert t1.request_series() == t2.request_series()

    def test_job_id_carried(self):
        trace = simulate_job(
            PhasedJob([(1, 5)]), FixedRequest(1), 4, quantum_length=10, job_id=42
        )
        assert trace.job_id == 42


class TestPolicyBehaviour:
    def test_abg_converges_on_constant_parallelism(self):
        job = constant_parallelism_job(10, 2000)
        trace = simulate_job(job, AControl(0.2), 128, quantum_length=100)
        reqs = trace.request_series()
        assert reqs[0] == 1.0
        # monotone approach, no overshoot
        assert all(b >= a - 1e-9 for a, b in zip(reqs, reqs[1:]))
        assert all(r <= 10.0 + 1e-9 for r in reqs)
        assert reqs[-1] == pytest.approx(10.0, rel=0.01)

    def test_agreedy_oscillates_on_constant_parallelism(self):
        job = constant_parallelism_job(10, 5000)
        trace = simulate_job(job, AGreedy(), 128, quantum_length=100)
        tail = trace.request_series()[4:12]
        assert set(tail) == {8.0, 16.0}

    def test_oracle_runs_at_span(self):
        job = PhasedJob([(1, 100), (8, 100), (1, 100)])
        ex = PhasedExecutor(job)
        oracle = OracleFeedback(lambda: ex.current_parallelism)
        trace = simulate_job(ex, oracle, 128, quantum_length=100)
        assert trace.running_time == job.span  # perfect requests, zero delay
        assert trace.total_waste == 0

    def test_fixed_request_runs_like_static_allocation(self):
        job = PhasedJob([(4, 100)])
        trace = simulate_job(job, FixedRequest(4), 128, quantum_length=50)
        assert trace.running_time == 100
        assert all(rec.allotment == 4 for rec in trace)

    def test_deprivation_respected(self):
        job = PhasedJob([(8, 100)])
        trace = simulate_job(job, FixedRequest(8), 2, quantum_length=50)
        assert all(rec.allotment == 2 for rec in trace)
        assert all(rec.deprived for rec in trace)
        assert trace.running_time == 8 * 100 // 2

    def test_trace_availability_drives_allotment(self):
        job = PhasedJob([(8, 120)])
        trace = simulate_job(
            job,
            FixedRequest(8),
            TraceAvailability([2, 4, 8]),
            quantum_length=40,
        )
        assert trace[1].allotment == 2
        assert trace[2].allotment == 4
        assert trace[3].allotment == 8


class TestQuantumLengthPolicies:
    def test_adaptive_lengths_recorded(self):
        job = constant_parallelism_job(4, 4000)
        trace = simulate_job(
            job,
            AControl(0.0),
            16,
            quantum_length=AdaptiveQuantumLength(100, min_length=50, max_length=400),
        )
        lengths = {rec.quantum_length for rec in trace}
        assert 100 in lengths  # initial
        assert any(l > 100 for l in lengths)  # grew while stable


class TestIntegerShorthands:
    """``P`` and ``L`` may be any integral value, numpy integers included."""

    @pytest.mark.parametrize("kind", [np.int32, np.int64])
    def test_numpy_integers_give_the_plain_int_trace(self, kind):
        job = PhasedJob([(1, 20), (6, 30), (1, 10)])
        plain = simulate_job(job, AControl(0.2), 16, quantum_length=25)
        numpy_trace = simulate_job(job, AControl(0.2), kind(16), quantum_length=kind(25))
        assert numpy_trace == plain
        assert type(numpy_trace.quantum_length) is int

    @pytest.mark.parametrize("kind", [int, np.int64])
    def test_values_below_one_still_rejected(self, kind):
        job = PhasedJob([(1, 5)])
        with pytest.raises(ValueError, match="^need at least one processor$"):
            simulate_job(job, FixedRequest(1), kind(0))
        with pytest.raises(ValueError, match="^quantum length must be >= 1$"):
            simulate_job(job, FixedRequest(1), 4, quantum_length=kind(0))


class TestOneObjectPerQuantum:
    """A job-quantum builds exactly one validated ``QuantumExecution`` (the
    executor's, never re-wrapped when reallocation is free) and one
    ``QuantumRecord``."""

    @pytest.fixture
    def counts(self, monkeypatch):
        built = {QuantumRecord: 0, QuantumExecution: 0}
        for cls in built:
            init = cls.__init__

            def counting(self, *args, _cls=cls, _init=init, **kwargs):
                built[_cls] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        return built

    def test_simulate_job(self, counts):
        trace = simulate_job(
            PhasedJob([(1, 20), (6, 30), (1, 10)]), AGreedy(2.0, 0.8), 16, quantum_length=7
        )
        assert len(trace) > 5
        assert counts == {QuantumRecord: len(trace), QuantumExecution: len(trace)}

    def test_reference_loop(self, counts):
        specs = [
            JobSpec(job=PhasedJob([(1, 20), (6, 30)]), feedback=AControl(0.2)),
            JobSpec(job=PhasedJob([(3, 40)]), feedback=AGreedy(2.0, 0.8)),
        ]
        result = simulate_job_set(
            specs, DynamicEquiPartitioning(), 8, quantum_length=7, batch="off"
        )
        quanta = sum(len(t) for t in result.traces.values())
        assert counts == {QuantumRecord: quanta, QuantumExecution: quanta}


class TestErrors:
    def test_max_quanta_guard(self):
        job = PhasedJob([(1, 10_000)])
        with pytest.raises(RuntimeError):
            simulate_job(job, FixedRequest(1), 4, quantum_length=10, max_quanta=3)

    def test_finished_executor_rejected(self):
        ex = PhasedExecutor(PhasedJob([(1, 1)]))
        ex.execute_quantum(1, 5)
        with pytest.raises(ValueError):
            simulate_job(ex, FixedRequest(1), 4)

    def test_bad_availability(self):
        class Zero(ConstantAvailability):
            def __init__(self):
                pass

            def available(self, q, prev):
                return 0

        with pytest.raises(ValueError):
            simulate_job(PhasedJob([(1, 5)]), FixedRequest(1), Zero(), quantum_length=5)


class TestExplicitDagPath:
    def test_dag_description_accepted(self):
        dag = fork_join_from_phases([(1, 10), (4, 10)])
        trace = simulate_job(dag, AControl(0.2), 8, quantum_length=10)
        assert trace.total_work == dag.work

    def test_discipline_forwarded(self):
        dag = fork_join_from_phases([(1, 10), (4, 10)])
        t1 = simulate_job(dag, AControl(0.2), 8, quantum_length=10, discipline="fifo")
        assert t1.total_work == dag.work
