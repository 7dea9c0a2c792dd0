"""Execution-engine interface.

An *executor* is the mutable run state of one job.  The simulator drives it
one scheduling quantum at a time: ``execute_quantum(allotment, max_steps)``
runs the job's task scheduler for up to ``max_steps`` unit time steps with a
constant processor allotment and reports the paper's per-quantum
measurements.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields

__all__ = ["QuantumExecution", "JobExecutor"]


@dataclass(frozen=True, slots=True, init=False)
class QuantumExecution:
    """What one quantum of execution accomplished."""

    work: int
    """``T1(q)``: unit tasks completed."""

    span: float
    """``Tinf(q)``: fractional dag levels advanced."""

    steps: int
    """Time steps consumed (``< max_steps`` only if the job finished)."""

    finished: bool
    """Whether the job completed during this quantum."""

    def __init__(self, work: int, span: float, steps: int, finished: bool) -> None:
        # The slot descriptors' own setters (bound once, below the class):
        # a frozen dataclass's generated __init__ pays one
        # ``object.__setattr__`` lookup per field instead.
        _set_work(self, work)
        _set_span(self, span)
        _set_steps(self, steps)
        _set_finished(self, finished)
        if steps < 0 or work < 0 or span < -1e-12:
            raise ValueError("negative quantum execution quantities")


_set_work, _set_span, _set_steps, _set_finished = (
    QuantumExecution.__dict__[f.name].__set__ for f in fields(QuantumExecution)
)


class JobExecutor(ABC):
    """Mutable execution state of a single job."""

    @abstractmethod
    def execute_quantum(self, allotment: int, max_steps: int) -> QuantumExecution:
        """Run up to ``max_steps`` steps with ``allotment`` processors.

        Stops early exactly when the job finishes.  ``allotment`` must be at
        least 1 (the paper's fair allocator guarantees every job one
        processor whenever ``|J| <= P``).
        """

    @property
    @abstractmethod
    def finished(self) -> bool:
        """True once every task has executed."""

    @property
    @abstractmethod
    def total_work(self) -> int:
        """``T1`` of the whole job."""

    @property
    @abstractmethod
    def total_span(self) -> int:
        """``Tinf`` of the whole job."""

    @property
    @abstractmethod
    def remaining_work(self) -> int:
        """Unit tasks not yet executed."""

    @property
    def current_parallelism(self) -> float:
        """Instantaneous parallelism hint for oracle feedback policies.

        Defaults to the job's overall average parallelism; engines that know
        better (e.g. the phased engine's current phase width) override it.
        """
        return self.total_work / max(1, self.total_span)

    def _check_quantum_args(self, allotment: int, max_steps: int) -> None:
        if allotment < 1:
            raise ValueError("allotment must be >= 1 for an active job")
        if max_steps < 1:
            raise ValueError("a quantum must span at least one step")
        if self.finished:
            raise RuntimeError("cannot execute a finished job")
