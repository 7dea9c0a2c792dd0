"""Core value types shared across the ABG reproduction.

The two-level scheduling framework of the paper divides a job's execution into
*scheduling quanta* of ``L`` time steps.  Everything the feedback algorithms,
allocators, and analyses consume is captured per quantum in
:class:`QuantumRecord`; a job's whole execution is a :class:`JobTrace`.

Conventions (matching the paper's notation):

- ``d(q)``  — processor request (real-valued controller state; the integer
  request actually sent to the OS allocator is ``ceil(d(q))``).
- ``p(q)``  — processors available to the job under the allocator's policy.
- ``a(q)``  — allotment, ``a(q) = min(ceil(d(q)), p(q))``.
- ``T1(q)`` — quantum work: unit tasks completed during the quantum.
- ``Tinf(q)`` — quantum critical-path length: number of dag levels advanced,
  fractional when a level is partially completed (fraction = completed tasks
  on the level / level size).
- ``A(q) = T1(q) / Tinf(q)`` — quantum average parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # annotation-only: keep numpy off this module's import path
    import numpy as np

    from .columnar import TraceColumns

__all__ = [
    "MAX_REQUEST",
    "QuantumRecord",
    "JobTrace",
    "integer_request",
    "quantum_records_from_columns",
    "transition_factor_of_series",
]


#: Largest real-valued processor request: 2**52.  Every integer up to it —
#: and ``MAX_REQUEST + 1`` — is exact in float64, so the cap is exact on the
#: scalar and the array path alike, and its ceiling fits an int64.
MAX_REQUEST = float(2**52)


def integer_request(d: float) -> int:
    """Convert a real-valued controller request into the integer processor
    request sent to the OS allocator.

    The controller state is real-valued (Equation 3 of the paper); processors
    are discrete.  We report ``ceil(d)``: the smallest whole number of
    processors covering the controller's target, with a floor of one processor
    (a job must always be able to make progress, cf. Section 5.1's fairness
    assumption).  A tiny tolerance absorbs float error so that e.g. a
    converged ``d = 5.000000000001`` still requests 5.

    The request domain is ``0 <= d <= MAX_REQUEST``; anything else (NaN,
    negative, infinite or larger) raises the same :class:`ValueError` as
    the kernel's vectorized form.
    """
    if not 0 <= d <= MAX_REQUEST:  # NaN fails every comparison
        raise ValueError(f"invalid processor request {d!r}")
    return max(1, math.ceil(d - 1e-9))


@dataclass(frozen=True, slots=True)
class QuantumRecord:
    """Everything observed about one scheduling quantum of one job."""

    index: int
    """Quantum number ``q``, starting at 1."""

    request: float
    """Real-valued controller request ``d(q)``."""

    request_int: int
    """Integer request sent to the allocator, ``ceil(d(q))``."""

    available: int
    """Processors available ``p(q)`` under the allocator's policy."""

    allotment: int
    """Granted processors ``a(q) = min(request_int, available)``."""

    work: int
    """Quantum work ``T1(q)``: unit tasks completed."""

    span: float
    """Quantum critical-path length ``Tinf(q)`` (fractional levels)."""

    steps: int
    """Time steps the quantum actually ran (== L except possibly the last)."""

    quantum_length: int
    """The nominal quantum length ``L`` in effect for this quantum."""

    start_step: int = 0
    """Absolute time step at which the quantum began."""

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("quantum index starts at 1")
        if self.allotment < 0 or self.available < 0:
            raise ValueError("negative processors")
        if self.allotment > self.available:
            raise ValueError("allotment exceeds availability")
        if self.allotment > self.request_int:
            raise ValueError("allocator is conservative: a(q) <= ceil(d(q))")
        if self.steps < 0 or self.steps > self.quantum_length:
            raise ValueError("quantum steps outside [0, L]")
        if self.work < 0 or self.work > self.allotment * self.steps:
            raise ValueError("quantum work outside [0, a(q) * steps]")
        # Every completed task contributes at most one fractional level, so
        # span <= work always.  The stronger invariant span <= steps (the
        # paper's Tinf(q) <= L, Section 5.1) holds for breadth-first
        # execution but NOT for depth-first disciplines, which smear
        # completions across levels — precisely why B-Greedy exists.
        if self.span < 0 or self.span > self.work + 1e-9:
            raise ValueError("quantum span outside [0, work]")

    # ------------------------------------------------------------------
    # Derived quantities used throughout the paper's analysis
    # ------------------------------------------------------------------

    @property
    def avg_parallelism(self) -> float:
        """``A(q) = T1(q) / Tinf(q)``; defined as 0 for an empty quantum."""
        if self.span == 0:
            return 0.0
        return self.work / self.span

    @property
    def waste(self) -> int:
        """Wasted processor cycles: allotted minus used, ``a(q)*steps - T1(q)``."""
        return self.allotment * self.steps - self.work

    @property
    def is_full(self) -> bool:
        """A *full quantum* has work done on every step, which in our
        discrete-time engines is equivalent to running the entire quantum
        length (the final quantum of a job stops early)."""
        return self.steps == self.quantum_length

    @property
    def deprived(self) -> bool:
        """Whether the allocator granted fewer processors than requested."""
        return self.allotment < self.request_int

    @property
    def satisfied(self) -> bool:
        """Whether the request was fully granted."""
        return not self.deprived

    @property
    def work_efficiency(self) -> float:
        """``alpha(q) = T1(q) / (a(q) * L)`` (Section 5.1), computed against
        the steps actually run so the last quantum stays meaningful."""
        denom = self.allotment * self.steps
        return self.work / denom if denom else 0.0

    @property
    def span_efficiency(self) -> float:
        """``beta(q) = Tinf(q) / L`` (Section 5.1)."""
        return self.span / self.steps if self.steps else 0.0

    @property
    def utilization(self) -> float:
        """Alias of :attr:`work_efficiency`; A-Greedy's efficiency signal."""
        return self.work_efficiency


_RECORD_SETTERS = tuple(
    QuantumRecord.__dict__[name].__set__
    for name in (
        "index",
        "request",
        "request_int",
        "available",
        "allotment",
        "work",
        "span",
        "steps",
        "quantum_length",
        "start_step",
    )
)
"""Direct slot-descriptor writers, bound once — the trusted batch
constructor's way around the frozen dataclass's per-field
``object.__setattr__`` calls."""


def quantum_records_from_columns(
    *,
    index: Sequence[int],
    request: "np.ndarray",
    request_int: "np.ndarray",
    available: "np.ndarray",
    allotment: "np.ndarray",
    work: "np.ndarray",
    span: "np.ndarray",
    steps: "np.ndarray",
    quantum_length: int,
    start_step: int | Sequence[int],
) -> list[QuantumRecord]:
    """Construct one :class:`QuantumRecord` per row of aligned columns.

    The batched simulation kernel produces a whole quantum's records as
    aligned numpy columns; materializing them through the scalar constructor
    would re-validate row by row in python.  This constructor instead checks
    every :meth:`QuantumRecord.__post_init__` invariant once, vectorized over
    the columns, and then builds the (identical) instances through direct
    slot writes.  If any row is invalid, construction falls back to the
    scalar constructor so the offending row raises exactly the error —
    message, row order — the serial path would.

    ``start_step`` is a scalar when the rows are one machine-wide quantum
    (every job starts together) and a per-row sequence when the rows are one
    job's whole columnar trace (each quantum starts at its own step).
    """
    valid = (
        (allotment >= 0)
        & (available >= 0)
        & (allotment <= available)
        & (allotment <= request_int)
        & (steps >= 0)
        & (steps <= quantum_length)
        & (work >= 0)
        & (work <= allotment * steps)
        & (span >= 0.0)
        & (span <= work + 1e-9)
    )
    starts = repeat(start_step) if isinstance(start_step, int) else start_step
    rows = zip(
        index,
        request.tolist(),
        request_int.tolist(),
        available.tolist(),
        allotment.tolist(),
        work.tolist(),
        span.tolist(),
        steps.tolist(),
        starts,
    )
    if not valid.all() or (len(index) and min(index) < 1):
        return [
            QuantumRecord(i, d, di, p, a, t1, tinf, st, quantum_length, s0)
            for i, d, di, p, a, t1, tinf, st, s0 in rows
        ]
    new = object.__new__
    (
        s_index,
        s_request,
        s_request_int,
        s_available,
        s_allotment,
        s_work,
        s_span,
        s_steps,
        s_quantum_length,
        s_start_step,
    ) = _RECORD_SETTERS
    out: list[QuantumRecord] = []
    append = out.append
    for i, d, di, p, a, t1, tinf, st, s0 in rows:
        r = new(QuantumRecord)
        s_index(r, i)
        s_request(r, d)
        s_request_int(r, di)
        s_available(r, p)
        s_allotment(r, a)
        s_work(r, t1)
        s_span(r, tinf)
        s_steps(r, st)
        s_quantum_length(r, quantum_length)
        s_start_step(r, s0)
        append(r)
    return out


class JobTrace:
    """The full per-quantum history of one job's execution.

    Aggregates the measurements the paper's evaluation reports: running time,
    wasted processor cycles, and the measured transition factor.

    Backing stores
    --------------
    A trace is either *record-backed* (a plain list of
    :class:`QuantumRecord`, appended as the serial simulation paths run) or
    *columnar* — the batched simulation kernel attaches a
    :class:`~repro.core.columnar.TraceColumns` of aligned per-quantum arrays
    via :meth:`attach_columns`.  Columnar traces answer every aggregate
    (running time, work, waste, series) straight from the arrays, and
    materialize the identical record list lazily on first access to
    :attr:`records` — the fig5/fig6 artifact writers that only need sums
    never pay for record objects at all.  Either backing produces
    bit-identical values.
    """

    __slots__ = ("quantum_length", "release_time", "job_id", "_records", "_columns")

    def __init__(
        self,
        quantum_length: int,
        records: list[QuantumRecord] | None = None,
        release_time: int = 0,
        job_id: int | None = None,
    ) -> None:
        self.quantum_length = quantum_length
        self._records: list[QuantumRecord] = records if records is not None else []
        self.release_time = release_time
        self.job_id = job_id
        self._columns: "TraceColumns | None" = None

    # ------------------------------------------------------------------
    # Backing-store management
    # ------------------------------------------------------------------

    @property
    def records(self) -> list[QuantumRecord]:
        """The record list, materialized from the columnar backing on first
        access (and from then on the live, mutable backing)."""
        cols = self._columns
        if cols is not None:
            self._columns = None
            self._records = cols.build_records()
        return self._records

    @records.setter
    def records(self, records: list[QuantumRecord]) -> None:
        self._columns = None
        self._records = records

    @property
    def has_columns(self) -> bool:
        """Whether the trace is still columnar (records not yet built)."""
        return self._columns is not None

    def attach_columns(self, columns: "TraceColumns") -> None:
        """Adopt a columnar backing store.  Only an empty trace can adopt
        one — mixing an existing record list with arrays would make the
        lazily-built view ambiguous."""
        if self._records or self._columns is not None:
            raise ValueError("columnar backing requires an empty trace")
        self._columns = columns

    def append(self, record: QuantumRecord) -> None:
        if self.records and record.index != self._records[-1].index + 1:
            raise ValueError("quantum records must be appended in order")
        if not self._records and record.index != 1:
            raise ValueError("first quantum record must have index 1")
        self._records.append(record)

    def __len__(self) -> int:
        cols = self._columns
        if cols is not None:
            return len(cols)
        return len(self._records)

    def __iter__(self) -> Iterator[QuantumRecord]:
        return iter(self.records)

    def __getitem__(self, q: int) -> QuantumRecord:
        """1-based access mirroring the paper's ``q`` index."""
        if q < 1:
            raise IndexError("quantum index starts at 1")
        return self.records[q - 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JobTrace):
            return NotImplemented
        return (
            self.quantum_length == other.quantum_length
            and self.release_time == other.release_time
            and self.job_id == other.job_id
            and self.records == other.records
        )

    def __repr__(self) -> str:
        return (
            f"JobTrace(quantum_length={self.quantum_length!r}, "
            f"records={self.records!r}, release_time={self.release_time!r}, "
            f"job_id={self.job_id!r})"
        )

    # ------------------------------------------------------------------
    # Aggregate metrics
    # ------------------------------------------------------------------

    @property
    def running_time(self) -> int:
        """Total time steps from the job's first quantum to completion."""
        cols = self._columns
        if cols is not None:
            return cols.total_steps()
        return sum(r.steps for r in self._records)

    @property
    def completion_time(self) -> int:
        """Absolute completion step (start of first quantum + running time)."""
        if len(self) == 0:
            return self.release_time
        cols = self._columns
        first = cols.first_start() if cols is not None else self._records[0].start_step
        return first + self.running_time

    @property
    def response_time(self) -> int:
        """Completion minus release."""
        return self.completion_time - self.release_time

    @property
    def total_work(self) -> int:
        cols = self._columns
        if cols is not None:
            return cols.total_work()
        return sum(r.work for r in self._records)

    @property
    def total_span(self) -> float:
        cols = self._columns
        if cols is not None:
            return cols.total_span()
        return sum(r.span for r in self._records)

    @property
    def total_waste(self) -> int:
        cols = self._columns
        if cols is not None:
            return cols.total_waste()
        return sum(r.waste for r in self._records)

    @property
    def full_quanta(self) -> list[QuantumRecord]:
        return [r for r in self.records if r.is_full]

    def avg_parallelism_series(self, *, full_only: bool = True) -> list[float]:
        cols = self._columns
        if cols is not None:
            return cols.avg_parallelism_series(full_only=full_only)
        recs: Iterable[QuantumRecord] = (
            self.full_quanta if full_only else self._records
        )
        return [r.avg_parallelism for r in recs]

    def measured_transition_factor(self) -> float:
        """Transition factor ``CL`` measured from the trace (Section 5.2):
        the maximal ratio of average parallelism between adjacent full
        quanta, with ``A(0)`` defined to be 1."""
        series = [1.0] + self.avg_parallelism_series(full_only=True)
        return transition_factor_of_series(series)

    def request_series(self) -> list[float]:
        cols = self._columns
        if cols is not None:
            return cols.request_series()
        return [r.request for r in self._records]

    def allotment_series(self) -> list[int]:
        cols = self._columns
        if cols is not None:
            return cols.allotment_series()
        return [r.allotment for r in self._records]

    @property
    def reallocation_count(self) -> int:
        """Number of quantum boundaries at which the allotment changed — the
        practical cost of request instability (context switching, lost
        locality) that Section 4 argues against."""
        allot = self.allotment_series()
        return sum(1 for a, b in zip(allot, allot[1:]) if a != b)

    @property
    def avg_allotment(self) -> float:
        """Time-weighted mean allotment over the execution."""
        total_steps = self.running_time
        if total_steps == 0:
            return 0.0
        cols = self._columns
        if cols is not None:
            return cols.allotted_steps() / total_steps
        return sum(r.allotment * r.steps for r in self._records) / total_steps


def transition_factor_of_series(parallelism: Sequence[float]) -> float:
    """Max ratio between adjacent entries of a positive parallelism series.

    ``CL = max_q max(A(q)/A(q-1), A(q-1)/A(q))`` — at least 1 by definition.
    Entries that are zero (empty quanta) are skipped.
    """
    c = 1.0
    prev: float | None = None
    for a in parallelism:
        if a <= 0:
            continue
        if prev is not None:
            c = max(c, a / prev, prev / a)
        prev = a
    return c
