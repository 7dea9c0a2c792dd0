"""Group windows: the body of the multiprogrammed kernel loop.

:func:`repro.sim.multi.simulate_job_set` runs every batched job set as a
sequence of *windows*.  Between two barriers — an admission boundary or a
:class:`~repro.allocators.hierarchical.HierarchicalAllocator` rebalancing
boundary — group membership cannot change, and each group's allocation reads
and writes only its own state (Cao, Sun, Qian & Wu, ICPP 2014).  So each
group advances through the whole window on its own:
:func:`run_group_window` allocates, executes, appends, feeds back, removes
finished jobs and, when nothing changed, fast-forwards a superstep — the
six steps of one quantum, restricted to the group.  A flat allocator such as
DEQ is one group spanning the machine.

Why windows are byte-identical to the per-job reference loop
------------------------------------------------------------
- allocation: a hierarchical allocation gathers each group's members in
  sorted-id order and runs the group's inner waterfall against its fixed
  budget — exactly the call a window makes directly;
- execution and feedback: the kernel's chunk math and the policies' batch
  recurrences are elementwise per slot, so a group-sized call returns the
  same bits as the group's rows of a machine-wide call;
- supersteps: a window fast-forwards its group through quanta whose
  group-local allocation is a certified fixed point
  (:meth:`~repro.allocators.base.Allocator.allocation_fixed_point`),
  advancing the inner allocator's state exactly as the skipped calls would,
  and emitting the identical records as one repeat-group.

Membership changes only at barriers, where the caller runs the hierarchical
allocator's ``begin_window`` front half (sync + rebalance) and migrates
whole slots between group kernels
(:meth:`~repro.sim.multi_batched.MultiBatchKernel.export_slots`).  Every
window appends straight into the run's one
:class:`~repro.sim.superstep.QuantumLog`: a job lives in exactly one group
per window and windows run in time order, so each job's rows stay
chronological for :meth:`~repro.sim.superstep.QuantumLog.build_traces`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..allocators.base import Allocator, validate_allocation_arrays
from ..core.overhead import ReallocationOverhead
from ..core.types import QuantumRecord
from .multi_batched import MultiBatchKernel, QuantumBatch
from .superstep import QuantumGroup, QuantumLog

__all__ = ["run_group_window"]


def _scalar_feedback(
    kernel: MultiBatchKernel,
    positions: Sequence[int],
    group: QuantumGroup,
    length: int,
    start_step: int,
) -> None:
    """Per-record feedback for kernel slots whose policy has no vectorized
    form — rebuilds each slot's record from the quantum's emitted columns
    (identical values, so an identical next request)."""
    for pos in positions:
        slot = kernel.slots[pos]
        record = QuantumRecord(
            index=int(group.index0[pos]),
            request=float(group.request[pos]),
            request_int=int(group.request_int[pos]),
            available=int(group.available[pos]),
            allotment=int(group.allotment[pos]),
            work=int(group.work[pos]),
            span=float(group.span[pos]),
            steps=int(group.steps[pos]),
            quantum_length=length,
            start_step=start_step,
        )
        kernel.request[pos] = slot.policy.next_request(record)


def _batch_feedback(
    kernel: MultiBatchKernel,
    group: QuantumGroup,
    req_int: np.ndarray,
    alloc_arr: np.ndarray,
    batch_out: QuantumBatch,
    finished_pos: list[int],
    length: int,
    start: int,
) -> bool:
    """Post-quantum feedback over the kernel's slots, vectorized per policy
    instance (experiment job sets share one policy object across jobs, so
    the common case is one whole-array batch call); returns whether any
    slot fell back to scalar feedback.  Requests computed for slots that
    just finished are discarded with the slot, exactly like the reference
    loop, which never updates a finished job's request.
    """
    nk = len(kernel)
    scalar_fb = False
    uniform = kernel.uniform_policy
    if uniform is not None:
        nxt = uniform.next_request_batch(
            request=kernel.request,
            request_int=req_int,
            allotment=alloc_arr,
            work=batch_out.work,
            span=batch_out.span,
            steps=batch_out.steps,
        )
        if nxt is None:
            scalar_fb = True
            fin_set = set(finished_pos)
            _scalar_feedback(
                kernel,
                [pos for pos in range(nk) if pos not in fin_set],
                group,
                length,
                start,
            )
        else:
            kernel.request = nxt
    else:
        groups: dict[int, list[int]] = {}
        fin_set = set(finished_pos)
        for pos in range(nk):
            if pos not in fin_set:
                groups.setdefault(id(kernel.slots[pos].policy), []).append(pos)
        for positions in groups.values():
            policy = kernel.slots[positions[0]].policy
            sub = np.asarray(positions, dtype=np.int64)
            nxt = policy.next_request_batch(
                request=kernel.request[sub],
                request_int=req_int[sub],
                allotment=alloc_arr[sub],
                work=batch_out.work[sub],
                span=batch_out.span[sub],
                steps=batch_out.steps[sub],
            )
            if nxt is None:
                scalar_fb = True
                _scalar_feedback(kernel, positions, group, length, start)
            else:
                kernel.request[sub] = nxt
    return scalar_fb


def _requests_hold(
    kernel: MultiBatchKernel,
    alloc_arr: np.ndarray,
    req_int: np.ndarray,
    work: np.ndarray,
    span: np.ndarray,
    steps: np.ndarray,
    quanta: int,
) -> bool:
    """Whether every slot's feedback recurrence, fed the predicted repeated
    record ``quanta`` times, leaves its request bit-identical (see
    :meth:`~repro.core.feedback.FeedbackPolicy.advance_request_batch`)."""
    uniform = kernel.uniform_policy
    if uniform is not None:
        return (
            uniform.advance_request_batch(
                request=kernel.request,
                request_int=req_int,
                allotment=alloc_arr,
                work=work,
                span=span,
                steps=steps,
                quanta=quanta,
            )
            is not None
        )
    groups: dict[int, list[int]] = {}
    for pos, slot in enumerate(kernel.slots):
        groups.setdefault(id(slot.policy), []).append(pos)
    request = kernel.request
    for positions in groups.values():
        policy = kernel.slots[positions[0]].policy
        sub = np.asarray(positions, dtype=np.int64)
        nxt = policy.advance_request_batch(
            request=request[sub],
            request_int=req_int[sub],
            allotment=alloc_arr[sub],
            work=work[sub],
            span=span[sub],
            steps=steps[sub],
            quanta=quanta,
        )
        if nxt is None:
            return False
    return True


def _attempt_superstep(
    kernel: MultiBatchKernel,
    log: QuantumLog,
    allocator: Allocator,
    group: QuantumGroup,
    req_int: np.ndarray,
    avail: np.ndarray,
    alloc_arr: np.ndarray,
    budget: int,
    length: int,
    start: int,
    limit: int,
) -> int:
    """Fast-forward up to ``limit`` quanta past the one that just executed
    at ``start``; returns how many were skipped (0 when any fixed-point
    check fails).

    The checks, in order: the quantum's feedback left every request at its
    pre-quantum value (else next quantum's allocation inputs differ); every
    slot's remaining chunk sustains ``K >= 1`` pure quanta under the same
    allotment (closed form, also bounding ``K``); the feedback recurrences
    hold the requests fixed over the predicted records; and the allocator
    certifies (and state-advances through) ``K`` repeats of its grants.
    ``limit`` keeps the superstep inside the window, which already ends
    before the next admission.  Everything that passes is exact, so the
    emitted repeat-group and the fast-forwarded arena state are
    byte-identical to executing the ``K`` quanta one at a time.
    """
    if kernel.request.tobytes() != group.request.tobytes():
        return 0
    plan = kernel.superstep_plan(alloc_arr, length)
    if plan is None:
        return 0
    limit = min(limit, int(plan.quanta.min()))
    if limit < 1:
        return 0
    steps_pred = np.full(len(kernel.slots), length, dtype=np.int64)
    if not _requests_hold(
        kernel, alloc_arr, req_int, plan.delta, plan.span, steps_pred, limit
    ):
        return 0
    ids_sorted, order = kernel.allocation_order()
    k = allocator.allocation_fixed_point(
        ids_sorted, req_int[order], alloc_arr[order], budget, limit
    )
    if k < 1:
        return 0
    log.append_quantum(
        start_step=start + length,
        repeat=k,
        index0=kernel.next_q,
        request=group.request,
        request_int=req_int,
        available=avail,
        allotment=alloc_arr,
        work=plan.delta,
        span=plan.span,
        steps=steps_pred,
    )
    kernel.apply_superstep(k, plan, alloc_arr, length)
    return k


def run_group_window(
    kernel: MultiBatchKernel,
    allocator: Allocator,
    log: QuantumLog,
    *,
    budget: int,
    processors: int,
    start: int,
    quanta: int,
    superstep: bool,
    overhead: ReallocationOverhead,
) -> tuple[int, list[tuple[int, int, int]]]:
    """Advance one group through a window of up to ``quanta`` quanta starting
    at machine time ``start``; returns ``(executed, finished)``.

    ``allocator`` divides the group's ``budget`` processors (the whole
    machine for a flat allocator); ``processors`` is the machine-wide ``P``
    that caps the records' ``available`` field.  ``executed`` falls short
    of ``quanta`` only if the group empties.  ``finished`` holds one
    ``(window quantum, admission seq, job id)`` entry per job that
    completed — sorting the union over all groups gives the reference
    loop's finished-trace order.  Mutates ``kernel``, ``allocator`` and
    ``log`` in place.
    """
    L = log.quantum_length
    layout_dirty = True
    finished: list[tuple[int, int, int]] = []
    executed = 0
    t = start
    while executed < quanta and len(kernel) > 0:
        nk = len(kernel)
        req_int = kernel.integer_requests()
        ids_sorted, order = kernel.allocation_order()
        req_sorted = req_int[order]
        grants = allocator.allocate_batch(ids_sorted, req_sorted, budget)
        if grants is None:
            raise ValueError(
                f"{type(allocator).__name__}.allocate_batch returned None; "
                "an override must return the allotment array"
            )
        validate_allocation_arrays(ids_sorted, req_sorted, grants, budget)
        alloc_arr = np.empty(nk, dtype=np.int64)
        alloc_arr[order] = grants
        batch_out = kernel.execute_quantum(alloc_arr, L, overhead)
        # Under a partitioning allocator the processors "available" to a
        # job are exactly its (possibly trimmed) share when deprived; when
        # satisfied the machine-wide P upper-bounds availability.
        avail = np.where(alloc_arr < req_int, alloc_arr, processors)
        if layout_dirty:
            log.set_layout(kernel.jids)
            layout_dirty = False
        # The group snapshots ``index0``/``request`` before the bump and the
        # in-place feedback writes below; the other columns are fresh arrays
        # this iteration never touches again.
        group = log.append_quantum(
            start_step=t,
            repeat=1,
            index0=kernel.next_q,
            request=kernel.request,
            request_int=req_int,
            available=avail,
            allotment=alloc_arr,
            work=batch_out.work,
            span=batch_out.span,
            steps=batch_out.steps,
        )
        kernel.bump_quantum()
        finished_pos = np.flatnonzero(batch_out.finished).tolist()
        scalar_fb = _batch_feedback(
            kernel, group, req_int, alloc_arr, batch_out, finished_pos, L, t
        )
        for pos in finished_pos:
            slot = kernel.slots[pos]
            finished.append((executed, slot.seq, slot.jid))
        if finished_pos:
            kernel.remove(finished_pos)
            layout_dirty = True
        skipped = 0
        if superstep and not scalar_fb and not finished_pos:
            skipped = _attempt_superstep(
                kernel,
                log,
                allocator,
                group,
                req_int,
                avail,
                alloc_arr,
                budget,
                L,
                t,
                quanta - executed - 1,
            )
        t += (skipped + 1) * L
        executed += skipped + 1
    return executed, finished
