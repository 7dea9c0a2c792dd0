"""Single-job two-level scheduling simulation.

Drives the quantum loop of Figure 3 for one job:

    request d(q)  -->  conservative allotment a(q) = min(ceil(d), p(q))
                  -->  task scheduler runs the quantum
                  -->  measurements feed the next request.

Used by the paper's first simulation set (Figure 5: individual jobs on an
unconstrained machine) and by the trim-analysis experiments (adversarial
availability).
"""

from __future__ import annotations

import operator

from ..allocators.availability import ConstantAvailability
from ..allocators.base import AvailabilityPolicy
from ..core.columnar import TraceColumns
from ..core.feedback import FeedbackPolicy
from ..core.overhead import NO_OVERHEAD, ReallocationOverhead
from ..core.quantum_policy import FixedQuantumLength, QuantumLengthPolicy
from ..core.types import JobTrace, QuantumRecord, integer_request
from ..engine.base import JobExecutor, QuantumExecution
from ..engine.explicit import Discipline
from .jobs import EngineChoice, JobDescription, make_executor

__all__ = ["simulate_job", "run_quantum_with_overhead"]


def _integral(value: object) -> int | None:
    """``value`` as a python ``int`` when it is an integer of any type — a
    numpy integer included (``operator.index``) — else ``None``."""
    try:
        return operator.index(value)
    except TypeError:
        return None


def run_quantum_with_overhead(
    executor: JobExecutor,
    allotment: int,
    length: int,
    prev_allotment: int | None,
    overhead: ReallocationOverhead,
) -> QuantumExecution:
    """Execute one quantum, charging reallocation overhead at its start.

    The overhead steps hold the allotment but do no work; a quantum fully
    consumed by overhead executes nothing (and, by charging the full quantum,
    guarantees the simulation still terminates: an unchanged allotment next
    quantum costs nothing).  A free quantum returns the executor's own
    result."""
    cost = overhead.cost(prev_allotment, allotment, length)
    if cost >= length:
        return QuantumExecution(work=0, span=0.0, steps=length, finished=False)
    ex = executor.execute_quantum(allotment, length - cost)
    if cost == 0:
        return ex
    return QuantumExecution(
        work=ex.work, span=ex.span, steps=cost + ex.steps, finished=ex.finished
    )


def simulate_job(
    job: JobDescription,
    feedback: FeedbackPolicy,
    availability: AvailabilityPolicy | int,
    *,
    quantum_length: QuantumLengthPolicy | int = 1000,
    discipline: Discipline = "breadth-first",
    max_quanta: int = 10_000_000,
    job_id: int | None = None,
    overhead: ReallocationOverhead = NO_OVERHEAD,
    strict: bool = False,
    engine: EngineChoice = "auto",
) -> JobTrace:
    """Run one job to completion and return its full quantum trace.

    Parameters
    ----------
    job:
        A :class:`PhasedJob`, explicit :class:`Dag`, or fresh executor.
    feedback:
        The processor-request policy (e.g. :class:`~repro.core.abg.AControl`
        for ABG or :class:`~repro.core.agreedy.AGreedy`).
    availability:
        Either an :class:`AvailabilityPolicy` or an integer ``P`` shorthand
        (python or numpy) for constant availability.
    quantum_length:
        Either a :class:`QuantumLengthPolicy` or an integer ``L`` shorthand
        (python or numpy) for the paper's fixed quantum length.
    max_quanta:
        Safety valve against a mis-configured run that cannot finish.
    overhead:
        Reallocation-overhead model (default: the paper's free
        reallocation); see :class:`~repro.core.overhead.ReallocationOverhead`.
    strict:
        Enable the engines' per-step invariant checking
        (:class:`~repro.verify.violations.InvariantError` on breach).
    engine:
        Executor selection for explicit dags (see
        :data:`~repro.sim.jobs.EngineChoice`); ``"auto"`` uses the batched
        level-major kernel whenever the dag's structure permits it.
    """
    processors = _integral(availability)
    if processors is not None:
        availability = ConstantAvailability(processors)
    fixed_length = _integral(quantum_length)
    if fixed_length is not None:
        qlen_policy: QuantumLengthPolicy = FixedQuantumLength(fixed_length)
    else:
        qlen_policy = quantum_length

    executor = make_executor(job, discipline, strict=strict, engine=engine)
    if executor.finished:
        raise ValueError("job is already finished; pass a fresh executor or description")
    records: list[QuantumRecord] = []
    append = records.append
    next_length = qlen_policy.next_length
    available = availability.available
    next_request = feedback.next_request

    d = feedback.first_request()
    prev: QuantumRecord | None = None
    t = 0
    q = 1
    while not executor.finished:
        if q > max_quanta:
            raise RuntimeError(f"job did not finish within {max_quanta} quanta")
        length = next_length(prev)
        p = available(q, prev)
        if p < 1:
            raise ValueError("availability policy must offer at least one processor")
        d_int = integer_request(d)
        a = min(d_int, p)
        ex = run_quantum_with_overhead(
            executor, a, length, prev.allotment if prev else None, overhead
        )
        # Positional, in field order: passing ten keywords costs more than
        # the constructor's own slot writes and checks.
        record = QuantumRecord(q, d, d_int, p, a, ex.work, ex.span, ex.steps, length, t)
        append(record)
        t += ex.steps
        d = next_request(record)
        prev = record
        q += 1

    return JobTrace(
        records[0].quantum_length, TraceColumns.from_records(records), job_id=job_id
    )
