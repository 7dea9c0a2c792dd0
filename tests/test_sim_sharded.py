"""Byte-identity of the windowed kernel loop against the reference loop.

``simulate_job_set`` runs every batched job set as per-group windows of
quanta (:func:`repro.sim.sharded.run_group_window`); ``batch="off"`` is the
per-job reference loop, the oracle.  Traces must be *bit-identical* on every
workload — mid-run releases, migrations at rebalancing boundaries,
reallocation overhead, both feedback policies, superstep on and off, and
flat allocators as one group.  Job sets the kernel loop cannot run (a
non-batchable job, a mapping-only allocator) take the reference loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.allocators import (
    Allocator,
    DynamicEquiPartitioning,
    HierarchicalAllocator,
    RoundRobinAllocator,
)
from repro.core.abg import AControl
from repro.core.agreedy import AGreedy
from repro.core.overhead import ReallocationOverhead
from repro.dag import builders
from repro.engine.phased import PhasedJob
from repro.sim import multi
from repro.sim.jobs import JobSpec
from repro.sim.multi import MultiJobResult, simulate_job_set


def random_specs(
    n: int,
    seed: int,
    *,
    max_release: int = 4000,
    policy=None,
) -> list[JobSpec]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        phases = [
            (int(rng.integers(1, 32)), int(rng.integers(40, 400)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        out.append(
            JobSpec(
                job=PhasedJob(phases),
                feedback=policy or AControl(),
                release_time=int(rng.integers(0, max_release)),
            )
        )
    return out


def assert_identical(a: MultiJobResult, b: MultiJobResult) -> None:
    assert set(a.traces) == set(b.traces)
    assert list(a.traces) == list(b.traces)  # same finished-dict order
    assert a.quanta_elapsed == b.quanta_elapsed
    assert a.processors == b.processors
    assert a.released == b.released
    for jid, trace in a.traces.items():
        assert list(trace.records) == list(b.traces[jid].records), f"job {jid}"


def hier(**overrides) -> HierarchicalAllocator:
    params = dict(group_size=12, rebalance_interval=8, imbalance_threshold=0.2)
    params.update(overrides)
    return HierarchicalAllocator(**params)




class TestHierarchicalShardIdentity:
    def test_traces_identical_to_reference(self):
        specs = random_specs(24, seed=101)
        ref = simulate_job_set(specs, hier(), 48, quantum_length=100, batch="off")
        windowed = simulate_job_set(specs, hier(), 48, quantum_length=100)
        assert_identical(ref, windowed)

    def test_superstep_off_also_identical(self):
        specs = random_specs(16, seed=23)
        ref = simulate_job_set(
            specs, hier(), 48, quantum_length=100, batch="off"
        )
        windowed = simulate_job_set(
            specs, hier(), 48, quantum_length=100, superstep="off"
        )
        assert_identical(ref, windowed)

    def test_migrations_cross_windows(self):
        """A tight rebalancing interval forces job migrations between
        windows (slots exported from one group kernel into another)."""
        specs = random_specs(20, seed=55, max_release=1)
        allocator = hier(rebalance_interval=2, imbalance_threshold=0.05)
        ref = simulate_job_set(specs, allocator, 40, quantum_length=80, batch="off")
        allocator2 = hier(rebalance_interval=2, imbalance_threshold=0.05)
        windowed = simulate_job_set(specs, allocator2, 40, quantum_length=80)
        assert_identical(ref, windowed)
        # the scenario actually rebalanced: membership moved at least once
        assert allocator.group_count > 1

    def test_reallocation_overhead(self):
        specs = random_specs(10, seed=3, max_release=1000)
        oh = ReallocationOverhead(per_processor=0.5, fixed=7)
        ref = simulate_job_set(
            specs, hier(), 32, quantum_length=60, overhead=oh, batch="off"
        )
        windowed = simulate_job_set(specs, hier(), 32, quantum_length=60, overhead=oh)
        assert_identical(ref, windowed)

    def test_agreedy_policy(self):
        specs = random_specs(12, seed=31, policy=AGreedy())
        ref = simulate_job_set(specs, hier(), 36, quantum_length=70, batch="off")
        windowed = simulate_job_set(specs, hier(), 36, quantum_length=70)
        assert_identical(ref, windowed)

    def test_late_releases_hit_idle_machine(self):
        """Job gaps exercise the barrier loop's idle fast-forward."""
        jobs = [PhasedJob([(4, 100)]), PhasedJob([(2, 50)]), PhasedJob([(8, 60)])]
        specs = [
            JobSpec(job=j, feedback=AControl(), release_time=r)
            for j, r in zip(jobs, [0, 20_000, 90_000])
        ]
        ref = simulate_job_set(
            specs, hier(group_size=8), 16, quantum_length=100, batch="off"
        )
        windowed = simulate_job_set(specs, hier(group_size=8), 16, quantum_length=100)
        assert_identical(ref, windowed)


class TestFlatAllocatorsSharded:
    """Non-hierarchical array-native allocators run as a single group
    spanning the machine — its windows (and their supersteps) must still
    reproduce the reference loop exactly."""

    @pytest.mark.parametrize(
        "make", [DynamicEquiPartitioning, RoundRobinAllocator]
    )
    def test_single_group_identity(self, make):
        specs = random_specs(18, seed=77)
        ref = simulate_job_set(specs, make(), 40, quantum_length=100, batch="off")
        windowed = simulate_job_set(specs, make(), 40, quantum_length=100)
        assert_identical(ref, windowed)


class MappingOnly(Allocator):
    """An allocator without an array-native ``allocate_batch``."""

    fair = False
    non_reserving = False

    def allocate(self, requests, total):
        return {j: 1 for j in requests}


class TestRouting:
    """Every job batchable and an array-native allocator: group windows.
    Anything else: the reference loop, for the whole set."""

    @pytest.fixture
    def window_calls(self, monkeypatch) -> list[int]:
        calls: list[int] = []
        real = multi.run_group_window

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(multi, "run_group_window", counting)
        return calls

    def test_batchable_set_runs_group_windows(self, window_calls):
        simulate_job_set(random_specs(6, seed=2), hier(), 16, quantum_length=100)
        assert window_calls

    def test_non_batchable_job_mixed_with_phased_runs_reference_loop(
        self, window_calls
    ):
        dag = builders.fork_join_from_phases([(1, 2), (4, 3)])
        specs = random_specs(5, seed=8, max_release=300)
        specs.insert(
            2,
            JobSpec(job=dag, feedback=AControl(), engine="reference", release_time=150),
        )
        ref = simulate_job_set(specs, hier(), 24, quantum_length=100, batch="off")
        mixed = simulate_job_set(specs, hier(), 24, quantum_length=100)
        assert_identical(ref, mixed)
        assert window_calls == []

    def test_mapping_only_allocator_runs_reference_loop(self, window_calls):
        specs = random_specs(4, seed=1)
        ref = simulate_job_set(specs, MappingOnly(), 16, batch="off")
        result = simulate_job_set(specs, MappingOnly(), 16)
        assert_identical(ref, result)
        assert window_calls == []


class TestValidation:
    def test_duplicate_ids_rejected(self):
        spec = JobSpec(job=PhasedJob([(1, 1)]), feedback=AControl(), job_id=5)
        with pytest.raises(ValueError, match="duplicate"):
            simulate_job_set([spec, spec], hier(), 16)


class TestScaleSmoke:
    def test_thousands_of_jobs_many_groups(self):
        """A reduced cut of the giant-scale scenario: hundreds of jobs over
        many groups."""
        specs = random_specs(200, seed=91, max_release=2000)
        ref = simulate_job_set(
            specs, hier(group_size=64, rebalance_interval=25), 512,
            quantum_length=100, batch="off",
        )
        windowed = simulate_job_set(
            specs, hier(group_size=64, rebalance_interval=25), 512,
            quantum_length=100,
        )
        assert_identical(ref, windowed)
        assert len(ref.traces) == 200
