"""Extreme-regime lockstep tests for the array allocation paths.

Each allocator's ``allocate_batch`` must agree with its mapping-path
``allocate`` bit for bit in the regimes the usual randomized sweeps rarely
hit: machines vastly larger than the job set, degenerate single-job groups,
and invalid zero-request jobs appearing mid-set (both entry points must
reject them identically, including which job the error names)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.allocators import (
    DynamicEquiPartitioning,
    HierarchicalAllocator,
    RoundRobinAllocator,
)

ALLOCATOR_FACTORIES = [
    DynamicEquiPartitioning,
    RoundRobinAllocator,
    lambda: HierarchicalAllocator(group_size=512, rebalance_interval=3),
]


def as_arrays(requests: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    ids = np.array(sorted(requests), dtype=np.int64)
    reqs = np.array([requests[int(j)] for j in ids], dtype=np.int64)
    return ids, reqs


def lockstep(make, request_rounds, total: int) -> None:
    """Run the same round sequence through a mapping-path instance and an
    array-path instance; every round must agree exactly (rotation state
    included, which is why the comparison spans multiple rounds)."""
    scalar = make()
    batched = make()
    for requests in request_rounds:
        ids, reqs = as_arrays(requests)
        expected = scalar.allocate(requests, total)
        grants = batched.allocate_batch(ids, reqs, total)
        assert expected == {int(j): int(g) for j, g in zip(ids, grants)}


class TestMachineMuchLargerThanJobSet:
    """P >> |J|: every job is satisfied outright and the waterfall's
    first round terminates; remainders never rotate."""

    @pytest.mark.parametrize("make", ALLOCATOR_FACTORIES)
    def test_three_jobs_ten_thousand_processors(self, make):
        rounds = [
            {0: 7, 1: 300, 2: 41},
            {0: 7, 1: 300, 2: 41},
            {0: 9999, 1: 1, 2: 5000},
        ]
        lockstep(make, rounds, total=10_000)

    @pytest.mark.parametrize("make", ALLOCATOR_FACTORIES)
    def test_single_job_huge_machine(self, make):
        lockstep(make, [{17: 3}, {17: 12_000}, {17: 1}], total=16_384)

    def test_hierarchical_grants_cap_at_group_budget(self):
        """A lone huge request on a big machine gets its whole group's
        budget, not the whole machine — the documented price of
        decentralization."""
        alloc = HierarchicalAllocator(group_size=1024)
        grants = alloc.allocate({0: 10_000}, 10_240)
        assert alloc.group_count == 10
        assert grants[0] == 1024


class TestZeroRequestMidSet:
    """A request below one processor is invalid; both entry points must
    reject the set and name the same offending job."""

    @pytest.mark.parametrize("make", ALLOCATOR_FACTORIES)
    def test_rejection_names_the_same_job(self, make):
        requests = {3: 5, 7: 0, 11: 2}
        scalar = make()
        batched = make()
        with pytest.raises(ValueError) as scalar_err:
            scalar.allocate(requests, 1024)
        ids, reqs = as_arrays(requests)
        with pytest.raises(ValueError) as batch_err:
            batched.allocate_batch(ids, reqs, 1024)
        assert str(scalar_err.value) == str(batch_err.value)
        assert "7" in str(batch_err.value)

    @pytest.mark.parametrize("make", ALLOCATOR_FACTORIES)
    def test_negative_request_rejected(self, make):
        ids = np.array([0, 1], dtype=np.int64)
        reqs = np.array([4, -2], dtype=np.int64)
        with pytest.raises(ValueError):
            make().allocate_batch(ids, reqs, 1024)

    def test_rejection_leaves_hierarchical_state_clean(self):
        """A rejected round must not advance the quantum counter or admit
        the offending set's jobs."""
        alloc = HierarchicalAllocator(group_size=8)
        alloc.allocate({0: 2, 1: 2}, 16)
        before = alloc.membership()
        with pytest.raises(ValueError):
            alloc.allocate({0: 2, 1: 2, 2: 0}, 16)
        assert alloc.membership() == before
        assert alloc.quanta_to_rebalance() == alloc.rebalance_interval - 1


class TestSingleJobGroups:
    """group_size=1 degenerates every group to one processor and at most
    one job: each inner waterfall is the |J|=1 base case."""

    def test_every_job_gets_exactly_one_processor(self):
        alloc = HierarchicalAllocator(group_size=1)
        grants = alloc.allocate({j: j + 1 for j in range(8)}, 8)
        assert alloc.group_count == 8
        assert grants == {j: 1 for j in range(8)}

    def test_lockstep_across_churn(self):
        rng = np.random.default_rng(6)
        rounds = []
        for _ in range(10):
            members = sorted(rng.choice(12, size=int(rng.integers(1, 9)), replace=False).tolist())
            rounds.append({int(j): int(rng.integers(1, 20)) for j in members})
        lockstep(lambda: HierarchicalAllocator(group_size=1, rebalance_interval=2), rounds, total=12)

