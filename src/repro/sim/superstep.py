"""Whole-run superstep layer: arena state, columnar quantum log, closed forms.

PR 5's kernel vectorized *within* a machine quantum; the remaining per-quantum
python — state repacking, record materialization, and the quantum loop itself —
still bounded full-scale fig6.  This module supplies the three pieces that
lift the kernel to whole-*run* granularity:

:class:`SuperstepArena`
    One preallocated, amortized-growth home for every per-slot scalar the
    kernel tracks (request, segment cursor, tasks done, remaining work,
    previous allotment, next quantum index) plus the packed per-segment
    ``(width, total)`` tables.  Admission writes rows in place and removal
    compacts in place — no per-quantum ``np.append`` churn, no segment-table
    repacking.

:class:`QuantumLog`
    Columnar record emission for the whole simulation: per quantum the
    simulation loop appends one *group* of aligned column arrays (O(1) python,
    no per-slot work), and a superstep of ``K`` identical quanta appends one
    group with ``repeat=K``.  At the end of the run :meth:`QuantumLog.build_traces`
    expands and sorts the groups once, vectorized, and returns every kernel
    job's :class:`~repro.core.columnar.TraceColumns` — records themselves are
    never built unless someone iterates them.

:func:`pure_quantum_counts`
    The closed form behind multi-quantum fast-forwarding.  A quantum is
    *pure* for a job when a single ``(segment, regime)`` chunk consumes the
    entire quantum — then the quantum's record is fully determined by
    ``(allotment, width, regime)`` and repeats unchanged.  The function
    counts, per slot, how many consecutive pure quanta remain from the
    current state:

    - regime 1 (wavefront full, ``done < total - w``): each pure quantum
      completes ``rate*L`` tasks with ``rate = min(a, w)``; the chunk spans
      the whole quantum while ``boundary - done > rate*(L-1)``, giving
      ``n1 = floor((D - rate*(L-1) - 1) / (rate*L)) + 1`` such quanta (0 when
      ``D <= rate*(L-1)``).  Regime-1 overshoot is bounded by
      ``rate - 1 < w``, so a pure regime-1 quantum can never complete the
      segment.
    - regime 2 (draining the last level): each pure quantum completes
      ``a*L`` tasks; quanta stay pure *and non-completing* while the
      segment's remaining work exceeds ``a*L``, giving
      ``n2 = floor((R - 1) / (a*L))``.  A quantum that finishes the segment
      exactly at the boundary is an *event* (segment transition or job
      completion) and is deliberately left to the normal per-quantum path.

    Every count uses the same int64 ceiling/floor arithmetic as the serial
    chunk loop, so fast-forwarded state (``done += K*delta``) and the
    repeated records (``work = delta``, ``span = delta/w``, ``steps = L``)
    are bit-identical to executing the ``K`` quanta one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.columnar import FLOAT_FIELDS, INT_FIELDS, TraceColumns
from ..core.types import check_quantum_columns

__all__ = [
    "SuperstepArena",
    "SuperstepPlan",
    "QuantumGroup",
    "QuantumLog",
    "pure_quantum_counts",
]

_MIN_SLOTS = 16
_MIN_SEGS = 64


class SuperstepArena:
    """Preallocated per-slot kernel state with amortized-doubling growth.

    The first ``n`` rows of every array are live; capacity beyond that is
    uninitialized headroom.  Segment tables are packed flat: slot ``i``'s
    segments occupy ``seg_w[seg_off[i] : seg_off[i] + seg_len[i]]`` (and the
    aligned ``seg_total``), with ``seg_used`` marking the packed tail.
    """

    __slots__ = (
        "n",
        "request",
        "cur",
        "done",
        "rem",
        "prev_allot",
        "next_q",
        "seg_off",
        "seg_len",
        "seg_used",
        "seg_w",
        "seg_total",
    )

    def __init__(self) -> None:
        self.n = 0
        self.request = np.zeros(_MIN_SLOTS, dtype=np.float64)
        self.cur = np.zeros(_MIN_SLOTS, dtype=np.int64)
        self.done = np.zeros(_MIN_SLOTS, dtype=np.int64)
        self.rem = np.zeros(_MIN_SLOTS, dtype=np.int64)
        self.prev_allot = np.zeros(_MIN_SLOTS, dtype=np.int64)
        self.next_q = np.zeros(_MIN_SLOTS, dtype=np.int64)
        self.seg_off = np.zeros(_MIN_SLOTS, dtype=np.int64)
        self.seg_len = np.zeros(_MIN_SLOTS, dtype=np.int64)
        self.seg_used = 0
        self.seg_w = np.zeros(_MIN_SEGS, dtype=np.int64)
        self.seg_total = np.zeros(_MIN_SEGS, dtype=np.int64)

    def _grow_slots(self) -> None:
        cap = self.request.size * 2
        for name in ("request", "cur", "done", "rem", "prev_allot", "next_q",
                     "seg_off", "seg_len"):
            old = getattr(self, name)
            new = np.zeros(cap, dtype=old.dtype)
            new[: self.n] = old[: self.n]
            setattr(self, name, new)

    def _grow_segs(self, need: int) -> None:
        cap = self.seg_w.size
        while cap < need:
            cap *= 2
        for name in ("seg_w", "seg_total"):
            old = getattr(self, name)
            new = np.zeros(cap, dtype=np.int64)
            new[: self.seg_used] = old[: self.seg_used]
            setattr(self, name, new)

    def admit(
        self, *, request: float, seg_w: np.ndarray, seg_total: np.ndarray
    ) -> None:
        """Append one slot (fresh job state) at the packed tail."""
        if self.n == self.request.size:
            self._grow_slots()
        k = int(seg_w.size)
        if self.seg_used + k > self.seg_w.size:
            self._grow_segs(self.seg_used + k)
        row = self.n
        self.request[row] = request
        self.cur[row] = 0
        self.done[row] = 0
        self.rem[row] = int(seg_total.sum())
        self.prev_allot[row] = -1
        self.next_q[row] = 1
        self.seg_off[row] = self.seg_used
        self.seg_len[row] = k
        self.seg_w[self.seg_used : self.seg_used + k] = seg_w
        self.seg_total[self.seg_used : self.seg_used + k] = seg_total
        self.seg_used += k
        self.n = row + 1

    def remove(self, keep: np.ndarray) -> None:
        """Compact the live rows down to ``keep`` (a boolean mask over the
        first ``n`` rows), re-packing the segment tables in place."""
        n = self.n
        m = int(np.count_nonzero(keep))
        for name in ("request", "cur", "done", "rem", "prev_allot", "next_q"):
            arr = getattr(self, name)
            arr[:m] = arr[:n][keep]
        kept_len = self.seg_len[:n][keep]
        kept_off = self.seg_off[:n][keep]
        if m:
            # Gather the surviving segment rows (fancy indexing copies, so
            # the left-shifting writes never read already-overwritten cells).
            idx = np.concatenate(
                [
                    np.arange(off, off + ln, dtype=np.int64)
                    for off, ln in zip(kept_off.tolist(), kept_len.tolist())
                ]
            )
            used = int(idx.size)
            self.seg_w[:used] = self.seg_w[idx]
            self.seg_total[:used] = self.seg_total[idx]
            new_off = np.zeros(m, dtype=np.int64)
            np.cumsum(kept_len[:-1], out=new_off[1:])
            self.seg_off[:m] = new_off
            self.seg_len[:m] = kept_len
            self.seg_used = used
        else:
            self.seg_used = 0
        self.n = m


@dataclass(frozen=True, slots=True)
class SuperstepPlan:
    """Per-slot closed-form description of the upcoming pure quanta.

    ``quanta[i]`` is how many consecutive identical quanta slot ``i`` can
    fast-forward; each completes ``delta[i]`` tasks (= the record's work)
    with span ``span[i]`` over the full quantum length.
    """

    quanta: np.ndarray
    delta: np.ndarray
    span: np.ndarray


def pure_quantum_counts(
    *,
    alloc: np.ndarray,
    width: np.ndarray,
    seg_remaining: np.ndarray,
    to_boundary: np.ndarray,
    regime1: np.ndarray,
    length: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``(quanta, delta)``: consecutive pure quanta per slot, and the tasks
    each completes — see the module docstring for the derivation.

    ``to_boundary`` is ``boundary - done`` (may be <= 0 in regime 2),
    ``seg_remaining`` is ``total - done``, and ``regime1`` the regime mask.
    All arrays are int64 (mask excepted) and ``alloc >= 1``.
    """
    rate = np.minimum(alloc, width)
    per_q1 = rate * length
    lim1 = rate * (length - 1)
    n1 = np.where(
        to_boundary > lim1, (to_boundary - lim1 - 1) // per_q1 + 1, 0
    )
    per_q2 = alloc * length
    n2 = (seg_remaining - 1) // per_q2
    quanta = np.where(regime1, n1, n2)
    delta = np.where(regime1, per_q1, per_q2)
    return quanta, delta


@dataclass(slots=True)
class QuantumGroup:
    """One emitted stretch of ``repeat`` identical machine quanta."""

    epoch: int
    start_step: int
    repeat: int
    index0: np.ndarray
    request: np.ndarray
    request_int: np.ndarray
    available: np.ndarray
    allotment: np.ndarray
    work: np.ndarray
    span: np.ndarray
    steps: np.ndarray


class QuantumLog:
    """Simulation-wide columnar record store with layout epochs.

    Rows are machine-quantum-major: each appended group carries one value per
    live slot, aligned to the slot layout (job ids) registered by the most
    recent :meth:`set_layout` call.  The log never touches individual jobs
    until :meth:`build_traces`, which runs once at the end of the run.
    """

    __slots__ = ("quantum_length", "_layouts", "_epoch", "_groups")

    def __init__(self, quantum_length: int) -> None:
        self.quantum_length = quantum_length
        self._layouts: list[np.ndarray] = []
        self._epoch = -1
        self._groups: list[QuantumGroup] = []

    def __len__(self) -> int:
        return len(self._groups)

    def set_layout(self, jids: Sequence[int]) -> None:
        """Register the current slot->job-id layout (call after every
        admission/removal; cheap relative to how rarely membership changes)."""
        # np.array, not np.asarray: the caller hands in its *live* slot
        # layout (the kernel keeps appending/compacting it), so the stored
        # epoch must own its memory (tests/test_superstep_lifetime.py)
        self._layouts.append(np.array(jids, dtype=np.int64))
        self._epoch += 1

    def append_quantum(
        self,
        *,
        start_step: int,
        repeat: int,
        index0: np.ndarray,
        request: np.ndarray,
        request_int: np.ndarray,
        available: np.ndarray,
        allotment: np.ndarray,
        work: np.ndarray,
        span: np.ndarray,
        steps: np.ndarray,
    ) -> QuantumGroup:
        """Record ``repeat`` consecutive identical quanta, the first starting
        at ``start_step``.  ``index0`` and ``request`` are snapshotted (the
        simulation mutates them in place after emission); the remaining
        columns must be freshly-computed arrays that are never written again.

        Validation mirrors the per-record path
        (:func:`~repro.core.types.check_quantum_columns`): the offending row
        raises exactly the record constructor's error at exactly the quantum
        that produced it.
        """
        index0 = index0.copy()
        check_quantum_columns(
            index=index0,
            request=request,
            request_int=request_int,
            available=available,
            allotment=allotment,
            work=work,
            span=span,
            steps=steps,
            quantum_length=self.quantum_length,
            start_step=start_step,
        )
        group = QuantumGroup(
            epoch=self._epoch,
            start_step=start_step,
            repeat=repeat,
            index0=index0,
            request=request.copy(),
            request_int=request_int,
            available=available,
            allotment=allotment,
            work=work,
            span=span,
            steps=steps,
        )
        self._groups.append(group)
        return group

    # ------------------------------------------------------------------

    def build_traces(self) -> dict[int, TraceColumns]:
        """Expand the groups once, sort rows by job, gather every field
        straight into its row of two run-wide blocks, and return every job's
        :class:`TraceColumns` (column slices of those blocks).

        Group order is chronological and rows within a superstep group are
        slot-major (slot ``i``'s ``K`` quanta are consecutive), so a stable
        sort by job id leaves each job's rows in quantum order.
        """
        if not self._groups:
            return {}
        L = self.quantum_length
        parts: dict[str, list[np.ndarray]] = {
            name: [] for name in ("jid", *INT_FIELDS, *FLOAT_FIELDS)
        }
        for grp in self._groups:
            layout = self._layouts[grp.epoch]
            n = int(grp.index0.size)
            k = grp.repeat
            if k == 1:
                parts["jid"].append(layout)
                parts["index"].append(grp.index0)
                parts["start_step"].append(np.full(n, grp.start_step, dtype=np.int64))
            else:
                offsets = np.arange(k, dtype=np.int64)
                parts["jid"].append(np.repeat(layout, k))
                parts["index"].append(np.repeat(grp.index0, k) + np.tile(offsets, n))
                parts["start_step"].append(grp.start_step + L * np.tile(offsets, n))
            for name in _GROUP_FIELDS:
                col: np.ndarray = getattr(grp, name)
                parts[name].append(col if k == 1 else np.repeat(col, k))
        jid_all = np.concatenate(parts.pop("jid"))
        order = np.argsort(jid_all, kind="stable")
        jid_sorted = jid_all[order]
        del jid_all
        ints = np.empty((len(INT_FIELDS), order.size), dtype=np.int64)
        floats = np.empty((len(FLOAT_FIELDS), order.size), dtype=np.float64)
        # Each field's parts are dropped as soon as it is gathered: parts of
        # repeat-groups are expanded copies, and holding them all until the
        # end would add a full copy of the run's rows to the peak.  The
        # sort's indices are in range, so ``clip`` gathers unbuffered.
        for block, names in ((ints, INT_FIELDS), (floats, FLOAT_FIELDS)):
            for row, name in zip(block, names):
                np.take(np.concatenate(parts.pop(name)), order, out=row, mode="clip")
        del order
        bounds = np.flatnonzero(np.diff(jid_sorted)) + 1
        starts = np.concatenate(([0], bounds, [jid_sorted.size]))
        # One 0-d quantum length shared by every trace: columns are read-only.
        length = np.array(L, dtype=np.int64)
        return {
            int(jid_sorted[a]): TraceColumns(ints[:, a:b], floats[:, a:b], length)
            for a, b in zip(starts[:-1].tolist(), starts[1:].tolist())
        }


_GROUP_FIELDS = tuple(
    name for name in (*INT_FIELDS, *FLOAT_FIELDS) if name not in ("index", "start_step")
)
"""The record fields a :class:`QuantumGroup` stores as they are (``index``
and ``start_step`` are expanded from ``index0`` and the group's start)."""
