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
from dataclasses import dataclass, fields
from itertools import repeat
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:  # the columnar module imports this one
    from .columnar import TraceColumns

__all__ = [
    "MAX_REQUEST",
    "QuantumRecord",
    "JobTrace",
    "check_quantum_columns",
    "integer_request",
    "quantum_records_from_columns",
    "quantum_rows",
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


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(
        self,
        index: int,
        request: float,
        request_int: int,
        available: int,
        allotment: int,
        work: int,
        span: float,
        steps: int,
        quantum_length: int,
        start_step: int = 0,
    ) -> None:
        # The slot descriptors' own setters (bound once, below the class):
        # a frozen dataclass's generated __init__ pays one
        # ``object.__setattr__`` lookup per field instead.
        _set_index(self, index)
        _set_request(self, request)
        _set_request_int(self, request_int)
        _set_available(self, available)
        _set_allotment(self, allotment)
        _set_work(self, work)
        _set_span(self, span)
        _set_steps(self, steps)
        _set_quantum_length(self, quantum_length)
        _set_start_step(self, start_step)
        if index < 1:
            raise ValueError("quantum index starts at 1")
        if allotment < 0 or available < 0:
            raise ValueError("negative processors")
        if allotment > available:
            raise ValueError("allotment exceeds availability")
        if allotment > request_int:
            raise ValueError("allocator is conservative: a(q) <= ceil(d(q))")
        if steps < 0 or steps > quantum_length:
            raise ValueError("quantum steps outside [0, L]")
        if work < 0 or work > allotment * steps:
            raise ValueError("quantum work outside [0, a(q) * steps]")
        # Every completed task contributes at most one fractional level, so
        # span <= work always.  The stronger invariant span <= steps (the
        # paper's Tinf(q) <= L, Section 5.1) holds for breadth-first
        # execution but NOT for depth-first disciplines, which smear
        # completions across levels — precisely why B-Greedy exists.
        if span < 0 or span > work + 1e-9:
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


_FIELDS = tuple(f.name for f in fields(QuantumRecord))
"""Record field names in constructor order."""

(
    _set_index,
    _set_request,
    _set_request_int,
    _set_available,
    _set_allotment,
    _set_work,
    _set_span,
    _set_steps,
    _set_quantum_length,
    _set_start_step,
) = (QuantumRecord.__dict__[name].__set__ for name in _FIELDS)
"""Direct slot-descriptor writers, bound once — how both the validating
constructor and the trusted batch constructor get round the frozen
dataclass's per-field ``object.__setattr__`` calls."""


def _per_row(values: Any) -> Iterable[Any]:
    """One python scalar per row: an ``int`` or 0-d array repeats, an array
    is listed, and a list is used as it is."""
    if np.ndim(values) == 0:
        return repeat(int(values))
    return values.tolist() if isinstance(values, np.ndarray) else values


def quantum_rows(**columns: Any) -> Iterator[tuple[Any, ...]]:
    """The rows of aligned record columns as python-scalar tuples in
    :class:`QuantumRecord` field order, unvalidated.  ``quantum_length`` and
    ``start_step`` may be scalars (or 0-d arrays) shared by every row."""
    return zip(*(_per_row(columns[name]) for name in _FIELDS))


def check_quantum_columns(
    *,
    index: Sequence[int] | np.ndarray,
    request: np.ndarray,
    request_int: np.ndarray,
    available: np.ndarray,
    allotment: np.ndarray,
    work: np.ndarray,
    span: np.ndarray,
    steps: np.ndarray,
    quantum_length: int | np.ndarray,
    start_step: int | Sequence[int] | np.ndarray,
) -> None:
    """Check every :class:`QuantumRecord` constructor invariant over
    aligned columns in one vectorized pass.  Only if some row fails are the
    rows rebuilt through the scalar constructor, so the first bad row raises
    exactly the error — message, row order — the per-record path would."""
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
    if valid.all() and not (np.asarray(index, dtype=np.int64) < 1).any():
        return
    rows = quantum_rows(
        index=index,
        request=request,
        request_int=request_int,
        available=available,
        allotment=allotment,
        work=work,
        span=span,
        steps=steps,
        quantum_length=quantum_length,
        start_step=start_step,
    )
    for row in rows:
        QuantumRecord(*row)


def quantum_records_from_columns(**columns: Any) -> list[QuantumRecord]:
    """Construct one :class:`QuantumRecord` per row of aligned columns.

    Takes the keyword columns of :func:`check_quantum_columns`, runs that
    check, and then builds the (identical) instances through direct slot
    writes instead of re-validating row by row in python.
    """
    check_quantum_columns(**columns)
    new = object.__new__
    out: list[QuantumRecord] = []
    append = out.append
    for i, d, di, p, a, t1, tinf, st, ql, s0 in quantum_rows(**columns):
        r = new(QuantumRecord)
        _set_index(r, i)
        _set_request(r, d)
        _set_request_int(r, di)
        _set_available(r, p)
        _set_allotment(r, a)
        _set_work(r, t1)
        _set_span(r, tinf)
        _set_steps(r, st)
        _set_quantum_length(r, ql)
        _set_start_step(r, s0)
        append(r)
    return out


class JobTrace:
    """The full per-quantum history of one job's execution.

    Aggregates the measurements the paper's evaluation reports: running time,
    wasted processor cycles, and the measured transition factor.

    Storage
    -------
    A trace stores its quanta in one
    :class:`~repro.core.columnar.TraceColumns` of aligned per-quantum
    arrays, built once by whatever produced the trace: the batched kernel's
    :class:`~repro.sim.superstep.QuantumLog` at the end of a run, or
    :meth:`~repro.core.columnar.TraceColumns.from_records` at the end of the
    single-job and reference loops and of trace loading.  Every aggregate
    reads the arrays.  :attr:`records` is a read-only tuple built from the
    columns on first access (every row validated) and cached; the columns
    are never mutated, so the cache cannot go stale.
    """

    __slots__ = ("quantum_length", "columns", "release_time", "job_id", "_record_view")

    def __init__(
        self,
        quantum_length: int,
        columns: "TraceColumns | None" = None,
        release_time: int = 0,
        job_id: int | None = None,
    ) -> None:
        if columns is None:  # an empty trace
            from .columnar import TraceColumns

            columns = TraceColumns.from_records(())
        self.quantum_length = quantum_length
        self.columns = columns
        self.release_time = release_time
        self.job_id = job_id
        self._record_view: tuple[QuantumRecord, ...] | None = None

    @property
    def records(self) -> tuple[QuantumRecord, ...]:
        """The quanta as records, built from the columns on first access."""
        if self._record_view is None:
            self._record_view = tuple(self.columns.build_records())
        return self._record_view

    def __len__(self) -> int:
        return len(self.columns)

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
            and self.columns == other.columns
        )

    def __repr__(self) -> str:
        return (
            f"JobTrace(quantum_length={self.quantum_length!r}, "
            f"quanta={len(self)}, release_time={self.release_time!r}, "
            f"job_id={self.job_id!r})"
        )

    # ------------------------------------------------------------------
    # Aggregate metrics
    # ------------------------------------------------------------------

    @property
    def running_time(self) -> int:
        """Total time steps from the job's first quantum to completion."""
        return int(self.columns.steps.sum())

    @property
    def completion_time(self) -> int:
        """Absolute completion step (start of first quantum + running time)."""
        if len(self) == 0:
            return self.release_time
        return int(self.columns.start_step[0]) + self.running_time

    @property
    def response_time(self) -> int:
        """Completion minus release."""
        return self.completion_time - self.release_time

    @property
    def total_work(self) -> int:
        return int(self.columns.work.sum())

    @property
    def total_span(self) -> float:
        # Left-to-right python-float addition: numpy's pairwise summation
        # (and, from python 3.12, the builtin ``sum``) would round
        # differently, and every artifact and fixture pins this order.
        total = 0.0
        for value in self.columns.span.tolist():
            total += value
        return total

    @property
    def total_waste(self) -> int:
        cols = self.columns
        return int((cols.allotment * cols.steps - cols.work).sum())

    @property
    def full_quanta(self) -> list[QuantumRecord]:
        return [r for r in self.records if r.is_full]

    def avg_parallelism_series(self, *, full_only: bool = True) -> list[float]:
        cols = self.columns
        work, span = cols.work, cols.span
        if full_only:
            full = cols.steps == cols.quantum_length
            work, span = work[full], span[full]
        # Python-scalar division per row, as QuantumRecord.avg_parallelism
        # computes it (int / float), with the same empty-quantum zero.
        return [
            0.0 if tinf == 0 else t1 / tinf
            for t1, tinf in zip(work.tolist(), span.tolist())
        ]

    def measured_transition_factor(self) -> float:
        """Transition factor ``CL`` measured from the trace (Section 5.2):
        the maximal ratio of average parallelism between adjacent full
        quanta, with ``A(0)`` defined to be 1."""
        series = [1.0] + self.avg_parallelism_series(full_only=True)
        return transition_factor_of_series(series)

    def request_series(self) -> list[float]:
        result: list[float] = self.columns.request.tolist()
        return result

    def allotment_series(self) -> list[int]:
        result: list[int] = self.columns.allotment.tolist()
        return result

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
        cols = self.columns
        return int((cols.allotment * cols.steps).sum()) / total_steps


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
