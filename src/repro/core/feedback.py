"""Feedback-policy interface.

Between scheduling quanta the user-level task scheduler sends the OS
allocator a *processor request* computed from what it observed during the
previous quantum (parallelism feedback, Section 1).  A
:class:`FeedbackPolicy` is that request calculator.

Policies are deliberately *stateless*: the next request is a pure function of
the previous quantum's :class:`~repro.core.types.QuantumRecord` (which
contains the previous request).  This mirrors the paper's non-clairvoyance —
the policy sees only measured history — and makes policies trivially
testable and replayable.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .types import QuantumRecord

__all__ = ["FeedbackPolicy"]


class FeedbackPolicy(ABC):
    """Computes the processor request ``d(q+1)`` from quantum ``q``'s record."""

    #: Human-readable policy name used in experiment tables.
    name: str = "feedback"

    def first_request(self) -> float:
        """``d(1)`` — the paper initializes every policy at one processor."""
        return 1.0

    @abstractmethod
    def next_request(self, prev: QuantumRecord) -> float:
        """``d(q+1)`` given quantum ``q``'s full record."""

    def next_request_batch(
        self,
        *,
        request: np.ndarray,
        request_int: np.ndarray,
        allotment: np.ndarray,
        work: np.ndarray,
        span: np.ndarray,
        steps: np.ndarray,
    ) -> np.ndarray | None:
        """Vectorized ``d(q+1)`` for many jobs' quantum-``q`` measurements.

        The multi-job batched simulation kernel
        (:mod:`repro.sim.multi_batched`) calls this with one aligned float64 /
        int64 array per :class:`QuantumRecord` field it consumes.  An
        implementation must return ``result[i]`` *bit-identical* to
        ``next_request(record_i)`` for every ``i`` — the kernel's byte-for-byte
        artifact guarantee depends on it.  The base implementation returns
        ``None``, which tells the kernel to fall back to per-record scalar
        calls — always correct, just slower.

        Contract for subclasses: a class that overrides :meth:`next_request`
        while inheriting a non-``None`` ``next_request_batch`` from an
        ancestor would silently diverge between the serial and batched
        simulation paths — such a class must override this method too (or
        ``return None`` to opt out of vectorization).
        """
        return None

    def advance_request_batch(
        self,
        *,
        request: np.ndarray,
        request_int: np.ndarray,
        allotment: np.ndarray,
        work: np.ndarray,
        span: np.ndarray,
        steps: np.ndarray,
        quanta: int,
    ) -> np.ndarray | None:
        """Closed-form multi-quantum advance: the requests after ``quanta``
        consecutive quanta that all repeat exactly these measurements, or
        ``None`` when the recurrence cannot be fast-forwarded.

        The superstep layer (:mod:`repro.sim.sharded`) fast-forwards ``K``
        quanta only when the per-quantum measurements are literally constant,
        so the K-step recurrence collapses: every policy in the repo — ABG's
        geometric filter ``d' = r*d + (1-r)*A``, A-Greedy's multiplicative
        update, and the fixed policies — maps a *bitwise* fixed point of one
        application to itself for any ``K``, and any ``d`` that is **not** a
        fixed point changes the request at the very next boundary, which is
        an event that ends the superstep.  The base implementation therefore
        evaluates :meth:`next_request_batch` once and returns the result iff
        it is bit-identical to ``request``; a policy with no batch form
        (``next_request_batch`` is ``None`` — per-job scalar fallback)
        returns ``None``, forcing the superstep to ``K = 1``.

        A subclass whose recurrence moves even at a fixed record (e.g. a
        time-dependent controller) inherits correct behaviour automatically:
        its ``next_request_batch`` result differs from ``request`` and the
        superstep never engages.  ``quanta`` (>= 1) is part of the contract
        for overrides that can advance a *moving* recurrence in closed form.
        """
        if quanta < 1:
            raise ValueError("a superstep advance covers at least one quantum")
        nxt = self.next_request_batch(
            request=request,
            request_int=request_int,
            allotment=allotment,
            work=work,
            span=span,
            steps=steps,
        )
        if nxt is None:
            return None
        if nxt.tobytes() == np.ascontiguousarray(request).tobytes():
            return nxt
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
