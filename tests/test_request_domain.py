"""One request domain on the scalar and the array path.

A real-valued request must be finite, ``>= 0`` and at most
:data:`~repro.core.types.MAX_REQUEST`.  The scalar
:func:`~repro.core.types.integer_request` (reference loop, single-job
simulator) and the kernel's vectorized
:meth:`~repro.sim.multi_batched.MultiBatchKernel.integer_requests` accept
and reject exactly the same values, with the same error.
"""

from __future__ import annotations

import math

import pytest

from repro.allocators import DynamicEquiPartitioning
from repro.core.reference import FixedRequest
from repro.core.types import MAX_REQUEST, JobTrace, integer_request
from repro.engine.phased import PhasedJob
from repro.sim.jobs import JobSpec
from repro.sim.multi import simulate_job_set
from repro.sim.multi_batched import MultiBatchKernel


def kernel_requests(d: float) -> list[int]:
    """The kernel's integer request for one slot holding request ``d``."""
    kernel = MultiBatchKernel()
    kernel.admit(
        jid=0,
        seq=0,
        spec=JobSpec(job=PhasedJob([(1, 1)]), feedback=FixedRequest(1)),
        trace=JobTrace(quantum_length=10, job_id=0),
        profile=((1, 1),),
        request=d,
    )
    return kernel.integer_requests().tolist()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "d, expected",
    [
        (math.nan, None),
        (-1.0, None),
        (math.inf, None),
        (1e300, None),
        (MAX_REQUEST, 2**52),
        (MAX_REQUEST + 1, None),
    ],
)
def test_scalar_and_array_forms_agree(d, expected):
    if expected is None:
        with pytest.raises(ValueError) as scalar:
            integer_request(d)
        with pytest.raises(ValueError) as array:
            kernel_requests(d)
        assert str(scalar.value) == str(array.value)
        assert str(scalar.value) == f"invalid processor request {d!r}"
    else:
        assert integer_request(d) == expected
        assert kernel_requests(d) == [expected]


def test_huge_request_raises_identically_on_both_loops():
    specs = [JobSpec(job=PhasedJob([(2, 10)]), feedback=FixedRequest(1e300))]
    errors = []
    for batch in ("off", "auto"):
        with pytest.raises(ValueError) as exc:
            simulate_job_set(
                specs, DynamicEquiPartitioning(), 8, quantum_length=10, batch=batch
            )
        errors.append(str(exc.value))
    assert errors == ["invalid processor request 1e+300"] * 2
