"""Superstep fast-forwarding, arena state, and columnar traces.

The superstep layer's claim mirrors the batched kernel's: whole-run results
— every trace, every :class:`QuantumRecord` field, artifact bytes — are
*bit-identical* whether quanta execute one at a time (``superstep="off"``)
or fast-forward in closed form whenever the system provably repeats
(``superstep="auto"``, the default).  These tests run three-way
cross-validation (serial / per-quantum batched / superstep) over randomized
job sets including mid-run releases, overhead, mixed policies, and strict
mode; unit-test the closed forms against brute-force per-quantum execution;
and pin the allocator/feedback fixed-point contracts the layer composes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.allocators.equipartition import DynamicEquiPartitioning
from repro.allocators.roundrobin import RoundRobinAllocator
from repro.core.abg import AControl
from repro.core.agreedy import AGreedy
from repro.core.overhead import ReallocationOverhead
from repro.core.reference import FixedRequest
from repro.core.types import JobTrace, QuantumRecord
from repro.engine.phased import PhasedJob
from repro.sim.jobs import JobSpec
from repro.sim.multi import simulate_job_set
from repro.sim.multi_batched import MultiBatchKernel, segment_profile
from repro.sim.superstep import (
    QuantumLog,
    SuperstepArena,
    pure_quantum_counts,
)

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def assert_results_identical(a, b) -> None:
    """Byte-for-byte equality of two MultiJobResult objects."""
    assert list(a.traces) == list(b.traces)
    assert a.quanta_elapsed == b.quanta_elapsed
    assert a.released == b.released
    for jid in a.traces:
        ta, tb = a.traces[jid], b.traces[jid]
        assert (ta.release_time, ta.job_id, ta.quantum_length) == (
            tb.release_time,
            tb.job_id,
            tb.quantum_length,
        )
        assert ta.records == tb.records


def run_three_way(make_specs, processors, *, allocator=DynamicEquiPartitioning,
                  **kwargs):
    """Serial, per-quantum batched, and superstep runs of one job set must
    agree byte for byte (fresh specs/allocator per run — DEQ is stateful)."""
    serial = simulate_job_set(
        make_specs(), allocator(), processors, batch="off", **kwargs
    )
    per_quantum = simulate_job_set(
        make_specs(), allocator(), processors, superstep="off", **kwargs
    )
    fast = simulate_job_set(
        make_specs(), allocator(), processors, superstep="auto", **kwargs
    )
    assert_results_identical(serial, per_quantum)
    assert_results_identical(serial, fast)
    return fast


def random_phased_job(rng: np.random.Generator) -> PhasedJob:
    phases: list[tuple[int, int]] = []
    for _ in range(int(rng.integers(1, 4))):
        phases.append((1, int(rng.integers(1, 6))))
        phases.append((int(rng.integers(2, 10)), int(rng.integers(1, 8))))
    return PhasedJob(phases)


def single_slot_kernel(phases, request: float) -> MultiBatchKernel:
    kernel = MultiBatchKernel()
    spec = JobSpec(job=PhasedJob(phases), feedback=FixedRequest(request))
    profile = segment_profile(spec, strict=False)
    assert profile is not None
    kernel.admit(
        jid=0,
        seq=0,
        spec=spec,
        trace=JobTrace(quantum_length=100, job_id=0),
        profile=profile,
        request=request,
    )
    return kernel


class CountingDEQ(DynamicEquiPartitioning):
    """DEQ that counts allocate_batch calls — supersteps skip allocations,
    so the count observes whether fast-forwarding actually engaged."""

    def __init__(self) -> None:
        super().__init__()
        self.batch_calls = 0

    def allocate_batch(self, ids, requests, total):
        self.batch_calls += 1
        return super().allocate_batch(ids, requests, total)


# ---------------------------------------------------------------------------
# pure_quantum_counts: closed form vs per-quantum execution
# ---------------------------------------------------------------------------


class TestPureQuantumCounts:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_quantum_execution(self, seed):
        """For random single-segment states, the counted quanta execute as
        predicted (work=delta, steps=L) and the very next quantum differs
        or completes a segment — the definition of an event."""
        rng = np.random.default_rng(seed)
        L = int(rng.integers(2, 20))
        w = int(rng.integers(1, 12))
        levels = int(rng.integers(1, 4000))
        a = int(rng.integers(1, 16))
        kernel = single_slot_kernel([(w, levels)], float(a))
        alloc = np.asarray([a], dtype=np.int64)
        plan = kernel.superstep_plan(alloc, L)
        overhead = ReallocationOverhead()  # free
        if plan is None:
            # the first quantum already reaches an event; nothing to check
            # beyond it executing at all
            kernel.execute_quantum(alloc, L, overhead)
            return
        n = int(plan.quanta[0])
        for _ in range(n):
            out = kernel.execute_quantum(alloc, L, overhead)
            assert int(out.work[0]) == int(plan.delta[0])
            assert float(out.span[0]) == float(plan.span[0])
            assert int(out.steps[0]) == L
            assert not bool(out.finished[0])
        # quantum n+1 must be an event: different record or a completion
        out = kernel.execute_quantum(alloc, L, overhead)
        assert (
            int(out.work[0]) != int(plan.delta[0])
            or int(out.steps[0]) != L
            or bool(out.finished[0])
            or int(kernel._cur[0]) > 0  # segment transition inside it
        )

    def test_regime2_exact_boundary_excluded(self):
        """A quantum that drains the segment exactly at the boundary is an
        event and never counted."""
        # w=4, one level of 40 tasks in regime 2 reach: a=4, L=10 -> one
        # quantum finishes exactly; counts must be 0.
        quanta, delta = pure_quantum_counts(
            alloc=np.asarray([4], dtype=np.int64),
            width=np.asarray([4], dtype=np.int64),
            seg_remaining=np.asarray([40], dtype=np.int64),
            to_boundary=np.asarray([0], dtype=np.int64),
            regime1=np.asarray([False]),
            length=10,
        )
        assert int(quanta[0]) == 0

    def test_apply_matches_repeated_execute(self):
        """apply_superstep leaves exactly the state k execute_quantum calls
        would, across random states."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            L = int(rng.integers(2, 16))
            phases = [
                (int(rng.integers(1, 9)), int(rng.integers(50, 4000)))
                for _ in range(int(rng.integers(1, 3)))
            ]
            a = int(rng.integers(1, 12))
            alloc = np.asarray([a], dtype=np.int64)
            overhead = ReallocationOverhead()
            k1 = single_slot_kernel(phases, float(a))
            k2 = single_slot_kernel(phases, float(a))
            # one real quantum first (sets prev_allot like the simulator)
            k1.execute_quantum(alloc, L, overhead)
            k2.execute_quantum(alloc, L, overhead)
            plan = k1.superstep_plan(alloc, L)
            if plan is None:
                continue
            k = min(int(plan.quanta[0]), 50)
            k1.bump_quantum()
            k1.apply_superstep(k, plan, alloc, L)
            k2.bump_quantum()
            for _ in range(k):
                k2.execute_quantum(alloc, L, overhead)
                k2.bump_quantum()
            for name in ("cur", "done", "rem", "prev_allot", "next_q"):
                assert np.array_equal(
                    getattr(k1._arena, name)[:1], getattr(k2._arena, name)[:1]
                ), name


# ---------------------------------------------------------------------------
# Allocator fixed points
# ---------------------------------------------------------------------------


class TestAllocationFixedPoint:
    def _grants(self, alloc, ids, req, total):
        out = alloc.allocate_batch(ids, req, total)
        assert out is not None
        return out

    def test_deq_all_satisfied_any_horizon(self):
        deq = DynamicEquiPartitioning()
        ids = np.arange(4, dtype=np.int64)
        req = np.asarray([3, 5, 2, 7], dtype=np.int64)  # all <= share
        g = self._grants(deq, ids, req, 64)
        rot = deq._rotation
        k = deq.allocation_fixed_point(ids, req, g, 64, 1000)
        assert k == 1000
        assert deq._rotation == rot  # satisfied waterfall never rotates
        # grants really repeat
        assert np.array_equal(deq.allocate_batch(ids, req, 64), g)

    def test_deq_rotating_exact_split_advances_rotation(self):
        deq = DynamicEquiPartitioning()
        ids = np.arange(4, dtype=np.int64)
        req = np.asarray([100, 100, 100, 100], dtype=np.int64)  # extra == 0
        g = self._grants(deq, ids, req, 64)
        rot = deq._rotation
        k = deq.allocation_fixed_point(ids, req, g, 64, 7)
        assert k == 7
        assert deq._rotation == rot + 7  # state advanced wholesale
        assert np.array_equal(deq.allocate_batch(ids, req, 64), g)

    def test_deq_rotating_remainder_never_fixed(self):
        deq = DynamicEquiPartitioning()
        ids = np.arange(3, dtype=np.int64)
        req = np.asarray([100, 100, 100], dtype=np.int64)  # 64 % 3 != 0
        g = self._grants(deq, ids, req, 64)
        assert deq.allocation_fixed_point(ids, req, g, 64, 7) == 0

    def test_deq_sneaky_share_plus_one(self):
        """Every unsatisfied job requesting share+1 grants requests exactly,
        yet the bonus rotates — grants alone cannot prove a fixed point."""
        deq = DynamicEquiPartitioning()
        ids = np.arange(3, dtype=np.int64)
        req = np.asarray([22, 22, 22], dtype=np.int64)  # share=21, extra=1
        g = self._grants(deq, ids, req, 64)
        assert deq.allocation_fixed_point(ids, req, g, 64, 7) == 0
        g2 = deq.allocate_batch(ids, req, 64)
        assert not np.array_equal(g, g2)  # the bonus really moved

    def test_roundrobin_divisible_total(self):
        rr = RoundRobinAllocator()
        ids = np.arange(4, dtype=np.int64)
        req = np.asarray([100, 100, 100, 100], dtype=np.int64)
        g = rr.allocate_batch(ids, req, 64)
        rot = rr._rotation
        assert rr.allocation_fixed_point(ids, req, g, 64, 5) == 5
        assert rr._rotation == rot + 5
        assert np.array_equal(rr.allocate_batch(ids, req, 64), g)

    def test_roundrobin_remainder_never_fixed(self):
        rr = RoundRobinAllocator()
        ids = np.arange(3, dtype=np.int64)
        req = np.asarray([100, 100, 100], dtype=np.int64)
        g = rr.allocate_batch(ids, req, 64)
        assert rr.allocation_fixed_point(ids, req, g, 64, 5) == 0

    def test_base_allocator_returns_zero(self):
        from repro.allocators.base import Allocator

        class Mapping(Allocator):
            def allocate(self, requests, total):
                return {j: 1 for j in requests}

        ids = np.arange(2, dtype=np.int64)
        req = np.ones(2, dtype=np.int64)
        assert Mapping().allocation_fixed_point(ids, req, req, 4, 9) == 0


# ---------------------------------------------------------------------------
# Feedback fixed points
# ---------------------------------------------------------------------------


class TestAdvanceRequestBatch:
    def _cols(self, request, allotment, work, span):
        request = np.asarray(request, dtype=np.float64)
        return dict(
            request=request,
            request_int=np.maximum(
                1, np.ceil(request - 1e-9).astype(np.int64)
            ),
            allotment=np.asarray(allotment, dtype=np.int64),
            work=np.asarray(work, dtype=np.int64),
            span=np.asarray(span, dtype=np.float64),
            steps=np.full(len(request), 100, dtype=np.int64),
        )

    def test_fixed_point_advances(self):
        policy = AControl(0.2)
        # d == A(q) == w: the geometric filter maps w to itself bitwise
        cols = self._cols([8.0], [8], [800], [100.0])
        nxt = policy.advance_request_batch(**cols, quanta=50)
        assert nxt is not None and float(nxt[0]) == 8.0

    def test_moving_recurrence_returns_none(self):
        policy = AControl(0.2)
        cols = self._cols([4.0], [4], [400], [50.0])  # A=8 != d=4: moving
        assert policy.advance_request_batch(**cols, quanta=2) is None

    def test_scalar_only_policy_returns_none(self):
        class ScalarOnly(AControl):
            def next_request_batch(self, **kwargs):
                return None

        cols = self._cols([8.0], [8], [800], [100.0])
        assert ScalarOnly().advance_request_batch(**cols, quanta=2) is None

    def test_quanta_below_one_rejected(self):
        cols = self._cols([8.0], [8], [800], [100.0])
        with pytest.raises(ValueError):
            AControl().advance_request_batch(**cols, quanta=0)


# ---------------------------------------------------------------------------
# Arena
# ---------------------------------------------------------------------------


class TestSuperstepArena:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_admit_remove_matches_reference(self, seed):
        """The packed arena mirrors a plain python list-of-rows reference
        through arbitrary admit/remove interleavings (growth included)."""
        rng = np.random.default_rng(seed)
        arena = SuperstepArena()
        ref: list[dict] = []
        uid = 0
        for _ in range(60):
            if ref and rng.random() < 0.4:
                keep = rng.random(len(ref)) < 0.6
                arena.remove(keep)
                ref = [r for r, k in zip(ref, keep) if k]
            else:
                k = int(rng.integers(1, 5))
                seg_w = rng.integers(1, 9, k).astype(np.int64)
                seg_total = seg_w * rng.integers(1, 50, k).astype(np.int64)
                arena.admit(
                    request=float(uid), seg_w=seg_w, seg_total=seg_total
                )
                ref.append(
                    {
                        "request": float(uid),
                        "rem": int(seg_total.sum()),
                        "seg_w": seg_w.tolist(),
                        "seg_total": seg_total.tolist(),
                    }
                )
                uid += 1
            # full-state comparison
            assert arena.n == len(ref)
            assert arena.request[: arena.n].tolist() == [
                r["request"] for r in ref
            ]
            assert arena.rem[: arena.n].tolist() == [r["rem"] for r in ref]
            offs = arena.seg_off[: arena.n].tolist()
            lens = arena.seg_len[: arena.n].tolist()
            for row, (off, ln) in zip(ref, zip(offs, lens)):
                assert arena.seg_w[off : off + ln].tolist() == row["seg_w"]
                assert (
                    arena.seg_total[off : off + ln].tolist()
                    == row["seg_total"]
                )
            assert arena.seg_used == sum(lens)


# ---------------------------------------------------------------------------
# QuantumLog expansion
# ---------------------------------------------------------------------------


class TestQuantumLog:
    def _group_cols(self, index0, request, work):
        n = len(index0)
        request = np.asarray(request, dtype=np.float64)
        work = np.asarray(work, dtype=np.int64)
        return dict(
            index0=np.asarray(index0, dtype=np.int64),
            request=request,
            request_int=np.maximum(1, np.ceil(request - 1e-9).astype(np.int64)),
            available=np.full(n, 64, dtype=np.int64),
            allotment=np.minimum(
                np.maximum(1, np.ceil(request - 1e-9).astype(np.int64)), 64
            ),
            work=work,
            span=work / 2.0,
            steps=np.full(n, 10, dtype=np.int64),
        )

    def test_repeat_groups_expand_to_per_quantum_records(self):
        log = QuantumLog(10)
        log.set_layout([5, 3])
        log.append_quantum(start_step=0, repeat=1, **self._group_cols(
            [1, 1], [2.0, 4.0], [20, 40]))
        log.append_quantum(start_step=10, repeat=3, **self._group_cols(
            [2, 2], [2.0, 4.0], [20, 40]))
        log.set_layout([3])  # job 5 left
        log.append_quantum(start_step=40, repeat=1, **self._group_cols(
            [5], [4.0], [12]))
        traces = {
            5: JobTrace(quantum_length=10, job_id=5),
            3: JobTrace(quantum_length=10, job_id=3),
        }
        log.build_traces(traces)
        assert traces[5].has_columns and traces[3].has_columns
        recs5 = traces[5].records
        assert [r.index for r in recs5] == [1, 2, 3, 4]
        assert [r.start_step for r in recs5] == [0, 10, 20, 30]
        assert all(r.work == 20 and r.request == 2.0 for r in recs5)
        recs3 = traces[3].records
        assert [r.index for r in recs3] == [1, 2, 3, 4, 5]
        assert [r.start_step for r in recs3] == [0, 10, 20, 30, 40]
        assert [r.work for r in recs3] == [40, 40, 40, 40, 12]
        # materialized records are plain QuantumRecord with python scalars
        assert all(isinstance(r, QuantumRecord) for r in recs3)
        assert all(type(r.work) is int and type(r.span) is float
                   for r in recs3)

    def test_invalid_row_raises_the_scalar_error(self):
        log = QuantumLog(10)
        log.set_layout([0])
        cols = self._group_cols([1], [2.0], [20])
        cols["work"] = np.asarray([999], dtype=np.int64)  # > a*steps
        with pytest.raises(ValueError, match=r"work outside"):
            log.append_quantum(start_step=0, repeat=1, **cols)


# ---------------------------------------------------------------------------
# Whole-run three-way identity
# ---------------------------------------------------------------------------


class TestSuperstepIdentity:
    def test_rejects_unknown_mode(self):
        spec = JobSpec(job=PhasedJob([(2, 4)]), feedback=AControl())
        with pytest.raises(ValueError, match="superstep"):
            simulate_job_set(
                [spec], DynamicEquiPartitioning(), 8, superstep="always"
            )

    def test_env_var_overrides_default_mode(self, monkeypatch):
        from repro.sim.multi import SUPERSTEP_ENV_VAR

        spec = JobSpec(job=PhasedJob([(2, 4)]), feedback=AControl())
        monkeypatch.setenv(SUPERSTEP_ENV_VAR, "always")
        with pytest.raises(ValueError, match="superstep"):
            simulate_job_set([spec], DynamicEquiPartitioning(), 8)
        monkeypatch.setenv(SUPERSTEP_ENV_VAR, "off")
        off = simulate_job_set([spec], DynamicEquiPartitioning(), 8)
        monkeypatch.delenv(SUPERSTEP_ENV_VAR)
        auto = simulate_job_set([spec], DynamicEquiPartitioning(), 8)
        assert_results_identical(off, auto)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sets_three_way(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        jobs = [random_phased_job(rng) for _ in range(n)]
        rels = rng.integers(0, 60, n).tolist()

        def make():
            policy = AControl(0.2)
            return [
                JobSpec(job=j, feedback=policy, release_time=int(r), job_id=i)
                for i, (j, r) in enumerate(zip(jobs, rels))
            ]

        run_three_way(make, 32, quantum_length=int(rng.integers(3, 12)))

    @pytest.mark.parametrize("seed", range(4))
    def test_stable_workload_engages_and_matches(self, seed):
        """On a satisfied, long-phase workload supersteps must actually
        fire — far fewer allocator calls than quanta — and still match."""
        rng = np.random.default_rng(100 + seed)
        policy = AControl(0.2)
        jobs = [
            PhasedJob([(int(rng.integers(4, 10)), 40_000)])
            for _ in range(4)
        ]

        def make():
            return [JobSpec(job=j, feedback=policy) for j in jobs]

        counting = CountingDEQ()
        fast = simulate_job_set(
            make(), counting, 128, quantum_length=50, superstep="auto"
        )
        assert counting.batch_calls * 4 < fast.quanta_elapsed
        slow = simulate_job_set(
            make(), DynamicEquiPartitioning(), 128, quantum_length=50,
            superstep="off",
        )
        assert_results_identical(slow, fast)

    def test_mixed_policies_and_fixed_request(self):
        jobs = [
            PhasedJob([(6, 5000)]),
            PhasedJob([(4, 5000)]),
            PhasedJob([(8, 5000)]),
        ]

        def make():
            return [
                JobSpec(job=jobs[0], feedback=AControl(0.2)),
                JobSpec(job=jobs[1], feedback=AGreedy(2.0, 0.8)),
                JobSpec(job=jobs[2], feedback=FixedRequest(8.0)),
            ]

        run_three_way(make, 64, quantum_length=20)

    def test_overhead_three_way(self):
        jobs = [PhasedJob([(5, 3000)]), PhasedJob([(3, 2000)])]

        def make():
            policy = AControl(0.2)
            return [JobSpec(job=j, feedback=policy) for j in jobs]

        run_three_way(
            make,
            32,
            quantum_length=25,
            overhead=ReallocationOverhead(fixed=2.0, per_processor=0.5),
        )

    def test_strict_three_way(self):
        jobs = [PhasedJob([(4, 2000)]), PhasedJob([(7, 2500)])]

        def make():
            policy = AControl(0.2)
            return [JobSpec(job=j, feedback=policy) for j in jobs]

        run_three_way(make, 32, quantum_length=20, strict=True)

    def test_roundrobin_three_way(self):
        jobs = [PhasedJob([(4, 4000)]) for _ in range(4)]

        def make():
            policy = AControl(0.2)
            return [JobSpec(job=j, feedback=policy) for j in jobs]

        run_three_way(make, 64, allocator=RoundRobinAllocator,
                      quantum_length=25)

    def test_arrival_on_event_boundary_inside_would_be_superstep(self):
        """A release landing mid-way through what would otherwise be a long
        superstep must cap the fast-forward at the preceding boundary."""
        late = PhasedJob([(3, 500)])
        steady = [PhasedJob([(6, 50_000)]) for _ in range(3)]

        def make():
            policy = AControl(0.2)
            specs = [JobSpec(job=j, feedback=policy, job_id=i)
                     for i, j in enumerate(steady)]
            specs.append(
                JobSpec(job=late, feedback=policy, release_time=7_777,
                        job_id=99)
            )
            return specs

        fast = run_three_way(make, 128, quantum_length=50)
        # the late job really was admitted at the boundary after release
        assert fast.traces[99].records[0].start_step == 7_800

    def test_max_quanta_cap_respected(self):
        policy = AControl(0.2)
        jobs = [PhasedJob([(6, 100_000)])]

        def make():
            return [JobSpec(job=j, feedback=policy) for j in jobs]

        with pytest.raises(RuntimeError, match="did not finish"):
            simulate_job_set(
                make(), DynamicEquiPartitioning(), 32, quantum_length=10,
                max_quanta=500, superstep="auto",
            )

    def test_columnar_traces_lazy_until_records_read(self):
        policy = AControl(0.2)
        specs = [
            JobSpec(job=PhasedJob([(4, 3000)]), feedback=policy, job_id=0)
        ]
        res = simulate_job_set(
            specs, DynamicEquiPartitioning(), 16, quantum_length=20
        )
        trace = res.traces[0]
        assert trace.has_columns
        # aggregates answer from columns without materializing
        work = trace.total_work
        span = trace.total_span
        assert trace.has_columns
        recs = trace.records  # materializes
        assert not trace.has_columns
        assert sum(r.work for r in recs) == work
        total = 0.0
        for r in recs:
            total += r.span
        assert total == span
