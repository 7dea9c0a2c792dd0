"""Closed-form execution of fork-join (phased) jobs.

The paper's evaluation workload is data-parallel jobs "that have fork-join
structures, which alternate between serial and parallel phases" (Section 7.1).
A :class:`PhasedJob` describes such a job as a sequence of phases
``(width, levels)``: ``width`` independent chains of ``levels`` unit tasks,
with a full barrier between adjacent phases (the fork/join tasks).

Why a closed form is possible
-----------------------------
Under B-Greedy's lowest-level-first discipline with a constant per-quantum
allotment ``a``:

- Every unfinished chain's frontier task is ready (its only parent is the
  previous task of the same chain), and the barrier blocks the next phase
  entirely.  Hence the scheduler completes ``min(a, ready)`` tasks per step.
- Lowest-level-first keeps the completed region *level-major*: at any time at
  most one level is partially complete, every shallower level is done and
  every deeper level untouched.  (A step may span two adjacent levels: it
  first drains the partial level, then overflows into the next level's
  already-enabled chains.)
- Consequently ``ready = width`` while the partial level is not the phase's
  last level, and ``ready = remaining tasks`` once only the last level
  remains.

Per-quantum progress therefore advances in two arithmetic regimes per phase
(throughput ``min(a, width)``, then ``min(a, remaining)``), each O(1) to
evaluate — no per-step loop.  ``Tinf`` bookkeeping is equally simple: with a
uniform level width ``w``, completing ``x`` tasks level-major advances exactly
``x / w`` fractional levels.

The test suite cross-validates this engine step-for-step against
:class:`repro.engine.explicit.ExplicitExecutor` on the equivalent explicit
dags (see :func:`repro.dag.builders.fork_join_from_phases`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..verify.violations import (
    InvariantError,
    V_IDLE_WITH_READY_TASKS,
    V_SPAN_EXCEEDS_STEPS,
    V_WORK_EXCEEDS_CAPACITY,
    Violation,
)
from .base import JobExecutor, QuantumExecution

__all__ = ["Phase", "PhasedJob", "PhasedExecutor"]


@dataclass(frozen=True, slots=True)
class Phase:
    """One fork-join phase: ``width`` chains of ``levels`` unit tasks."""

    width: int
    levels: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.levels < 1:
            raise ValueError(f"phase ({self.width}, {self.levels}) must be positive")

    @property
    def work(self) -> int:
        return self.width * self.levels


class PhasedJob:
    """Immutable description of a fork-join job as a phase sequence."""

    __slots__ = ("phases", "_work", "_span")

    def __init__(self, phases: Sequence[Phase | tuple[int, int]]):
        if not phases:
            raise ValueError("a job needs at least one phase")
        normalized = tuple(
            p if isinstance(p, Phase) else Phase(*p) for p in phases
        )
        self.phases: tuple[Phase, ...] = normalized
        self._work = sum(p.work for p in normalized)
        self._span = sum(p.levels for p in normalized)

    @property
    def work(self) -> int:
        """``T1``."""
        return self._work

    @property
    def span(self) -> int:
        """``Tinf``."""
        return self._span

    @property
    def average_parallelism(self) -> float:
        return self._work / self._span

    @property
    def max_width(self) -> int:
        return max(p.width for p in self.phases)

    def parallelism_profile(self) -> list[int]:
        """Width of each level in order — identical to the explicit dag's
        level sizes."""
        profile: list[int] = []
        for p in self.phases:
            profile.extend([p.width] * p.levels)
        return profile

    def executor(self) -> "PhasedExecutor":
        """A fresh run state for this job."""
        return PhasedExecutor(self)

    def __iter__(self) -> Iterator[Phase]:
        return iter(self.phases)

    def __len__(self) -> int:
        return len(self.phases)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PhasedJob(phases={len(self.phases)}, T1={self.work}, "
            f"Tinf={self.span}, A={self.average_parallelism:.2f})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhasedJob):
            return NotImplemented
        return self.phases == other.phases

    def __hash__(self) -> int:
        return hash(self.phases)


class PhasedExecutor(JobExecutor):
    """Closed-form B-Greedy execution state of a :class:`PhasedJob`.

    With ``strict=True`` every quantum's closed-form result is re-validated
    against the invariants the arithmetic is supposed to guarantee — work
    within processor capacity, greedy non-idling (at least one task per
    step), span within the quantum length — raising
    :class:`~repro.verify.violations.InvariantError` if the closed form ever
    drifts from B-Greedy semantics.
    """

    __slots__ = ("_job", "_phase_idx", "_done_in_phase", "_remaining", "_strict")

    def __init__(self, job: PhasedJob, *, strict: bool = False):
        self._job = job
        self._phase_idx = 0
        self._done_in_phase = 0
        self._remaining = job.work
        self._strict = bool(strict)

    # ------------------------------------------------------------------

    def execute_quantum(self, allotment: int, max_steps: int) -> QuantumExecution:
        self._check_quantum_args(allotment, max_steps)
        a = allotment
        steps_left = max_steps
        work = 0
        span = 0.0
        phases = self._job.phases
        n_phases = len(phases)
        idx = self._phase_idx
        done = self._done_in_phase
        # Conditional expressions rather than ``min``: this loop runs for
        # every chunk of every quantum, and a builtin call costs more.
        while steps_left > 0 and idx < n_phases:
            phase = phases[idx]
            w = phase.width
            total = w * phase.levels
            boundary = total - w  # tasks strictly before the last level
            if done < boundary:
                # Regime 1: a deeper level always has enabled chains, so the
                # scheduler sustains min(a, w) tasks per step.
                t = a if a < w else w
                need = -(-(boundary - done) // t)  # ceil division
                use = steps_left if steps_left < need else need
                delta = t * use  # cannot exceed total - done (t <= w)
            else:
                # Regime 2: only the phase's last level remains; ready tasks
                # shrink with the remaining count.
                r = total - done
                need = -(-r // a)
                use = steps_left if steps_left < need else need
                delta = a * use if a * use < r else r
            done += delta
            work += delta
            span += delta / w
            steps_left -= use
            if done == total:
                idx += 1
                done = 0
        self._phase_idx = idx
        self._done_in_phase = done
        self._remaining -= work
        steps_used = max_steps - steps_left
        if self._strict:
            self._check_quantum(work, span, steps_used, a)
        return QuantumExecution(work, span, steps_used, self._remaining == 0)

    def _check_quantum(
        self, work: int, span: float, steps: int, allotment: int
    ) -> None:
        """Re-validate a closed-form quantum against B-Greedy semantics
        (strict mode)."""
        if work > allotment * steps:
            raise InvariantError(
                Violation(
                    V_WORK_EXCEEDS_CAPACITY,
                    f"closed form produced T1(q)={work} > a*steps="
                    f"{allotment * steps}",
                )
            )
        if work < steps:
            raise InvariantError(
                Violation(
                    V_IDLE_WITH_READY_TASKS,
                    f"closed form produced T1(q)={work} < steps={steps}; "
                    "greedy completes at least one task per step",
                )
            )
        if span > steps + 1e-9:
            raise InvariantError(
                Violation(
                    V_SPAN_EXCEEDS_STEPS,
                    f"closed form produced Tinf(q)={span} > steps={steps}; "
                    "breadth-first advances at most one level per step",
                )
            )

    # ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._remaining == 0

    @property
    def total_work(self) -> int:
        return self._job.work

    @property
    def total_span(self) -> int:
        return self._job.span

    @property
    def remaining_work(self) -> int:
        return self._remaining

    @property
    def job(self) -> PhasedJob:
        return self._job

    @property
    def current_parallelism(self) -> float:
        """Width of the current phase — the true instantaneous parallelism a
        clairvoyant oracle would request."""
        if self.finished:
            return 0.0
        return float(self._job.phases[self._phase_idx].width)
