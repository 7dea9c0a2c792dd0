"""Execution-path replay hooks for the golden-trace harness.

The multiprogrammed simulator has three execution paths that are
bit-identical by contract: the serial per-job reference loop, the windowed
batched kernel loop, and that loop with multi-quantum superstep
fast-forwarding on top.  :func:`replay_path` pins one of them explicitly —
including ``superstep`` — so a replay can never be perturbed by the ambient
:data:`~repro.sim.multi.SUPERSTEP_ENV_VAR` override.  One golden fixture
replayed through all three paths therefore proves three-way identity
against the recorded reference run.  (A job set the kernel loop cannot run
— a non-batchable job, a mapping-only allocator — takes the reference loop
on every path.)
"""

from __future__ import annotations

from typing import Sequence

from ..allocators.base import Allocator
from .jobs import JobSpec
from .multi import BatchChoice, MultiJobResult, SuperstepChoice, simulate_job_set

__all__ = ["EXECUTION_PATHS", "PATH_MODES", "replay_path"]

#: The replayable execution paths, in reference-first order.
EXECUTION_PATHS: tuple[str, ...] = ("serial", "batched", "superstep")

#: path name -> ``(batch, superstep)`` modes of :func:`simulate_job_set`.
PATH_MODES: dict[str, tuple[BatchChoice, SuperstepChoice]] = {
    "serial": ("off", "off"),
    "batched": ("auto", "off"),
    "superstep": ("auto", "auto"),
}


def replay_path(
    specs: Sequence[JobSpec],
    allocator: Allocator,
    processors: int,
    *,
    quantum_length: int,
    max_quanta: int,
    path: str,
) -> MultiJobResult:
    """Run a job set to completion on one named execution path.

    ``path`` must be one of :data:`EXECUTION_PATHS`; the batch backend and
    the superstep mode are both passed explicitly so the environment cannot
    change what a fixture replay executes.
    """
    modes = PATH_MODES.get(path)
    if modes is None:
        raise ValueError(
            f"unknown execution path {path!r}; pick one of {EXECUTION_PATHS}"
        )
    batch, superstep = modes
    return simulate_job_set(
        specs,
        allocator,
        processors,
        quantum_length=quantum_length,
        max_quanta=max_quanta,
        batch=batch,
        superstep=superstep,
    )
