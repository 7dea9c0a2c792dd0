"""Shared fixtures for the ABG reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Phase, PhasedJob
from repro.core.columnar import TraceColumns
from repro.core.types import JobTrace, QuantumRecord


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def simple_phases() -> list[tuple[int, int]]:
    """A serial-parallel-serial fork-join shape used across engine tests."""
    return [(1, 50), (10, 30), (1, 20)]


@pytest.fixture
def simple_job(simple_phases) -> PhasedJob:
    return PhasedJob(simple_phases)


def make_trace(records, quantum_length: int = 1000, **kwargs) -> JobTrace:
    """A trace of ``records``, its columns built once as every producer does."""
    return JobTrace(quantum_length, TraceColumns.from_records(records), **kwargs)


def make_record(
    *,
    index: int = 1,
    request: float = 4.0,
    request_int: int | None = None,
    available: int = 128,
    allotment: int | None = None,
    work: int | None = None,
    span: float = 100.0,
    steps: int = 1000,
    quantum_length: int = 1000,
    start_step: int = 0,
) -> QuantumRecord:
    """Build a valid QuantumRecord with sensible defaults for tests."""
    import math

    if request_int is None:
        request_int = max(1, math.ceil(request - 1e-9))
    if allotment is None:
        allotment = min(request_int, available)
    if work is None:
        work = allotment * steps  # perfectly efficient by default
    return QuantumRecord(
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
