"""Outside-in layer tracing for the benchmark's traced run.

Nothing in ``src/`` knows about tracing.  :class:`Tracer` replaces each
layer's public entry point (a module function or a class method) with a
span-recording wrapper for the duration of a ``with`` block and restores the
originals on exit, so the untraced runs execute the program unmodified.

A span's *self time* is its duration minus the time of the spans it caused
(the child spans opened while it was on the stack), so self times of nested
layers add up to the time spent under the outermost span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable

#: ``(layer entry, owner, attribute)``: ``owner`` is ``module`` or
#: ``module:Class``.  An entry listed for several owners (a method that two
#: policies implement) accumulates into one row.  A module function is
#: patched in every loaded ``repro`` module that imported it by name.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("sim.multi.simulate_job_set", "repro.sim.multi", "simulate_job_set"),
    ("sim.multi_batched.execute_quantum", "repro.sim.multi_batched:MultiBatchKernel", "execute_quantum"),
    ("sim.multi_batched.integer_requests", "repro.sim.multi_batched:MultiBatchKernel", "integer_requests"),
    ("sim.multi_batched.admit", "repro.sim.multi_batched:MultiBatchKernel", "admit"),
    ("sim.multi_batched.remove", "repro.sim.multi_batched:MultiBatchKernel", "remove"),
    ("allocators.hierarchical.allocate_batch", "repro.allocators.hierarchical:HierarchicalAllocator", "allocate_batch"),
    ("allocators.equipartition.allocate_batch", "repro.allocators.equipartition:DynamicEquiPartitioning", "allocate_batch"),
    ("allocators.base.validate_allocation_arrays", "repro.allocators.base", "validate_allocation_arrays"),
    ("allocators.base.allocation_fixed_point", "repro.allocators.base:Allocator", "allocation_fixed_point"),
    ("core.feedback.next_request_batch", "repro.core.abg:AControl", "next_request_batch"),
    ("core.feedback.next_request_batch", "repro.core.agreedy:AGreedy", "next_request_batch"),
    ("core.feedback.next_request", "repro.core.abg:AControl", "next_request"),
    ("core.feedback.next_request", "repro.core.agreedy:AGreedy", "next_request"),
    ("core.feedback.advance_request_batch", "repro.core.feedback:FeedbackPolicy", "advance_request_batch"),
    ("sim.superstep.append_quantum", "repro.sim.superstep:QuantumLog", "append_quantum"),
    ("sim.superstep.set_layout", "repro.sim.superstep:QuantumLog", "set_layout"),
    ("sim.superstep.build_traces", "repro.sim.superstep:QuantumLog", "build_traces"),
    ("sim.superstep.superstep_plan", "repro.sim.multi_batched:MultiBatchKernel", "superstep_plan"),
    ("sim.superstep.apply_superstep", "repro.sim.multi_batched:MultiBatchKernel", "apply_superstep"),
    ("sim.sharded.run_group_window", "repro.sim.sharded", "run_group_window"),
    ("runtime.supervisor.run_supervised", "repro.runtime.supervisor", "run_supervised"),
    ("sim.single.simulate_job", "repro.sim.single", "simulate_job"),
    ("engine.phased.execute_quantum", "repro.engine.phased:PhasedExecutor", "execute_quantum"),
    ("sim.metrics.makespan", "repro.sim.metrics", "makespan"),
    ("sim.metrics.mean_response_time", "repro.sim.metrics", "mean_response_time"),
    ("core.columnar.build_records", "repro.core.columnar:TraceColumns", "build_records"),
)

#: Per-layer metrics derived from the span counters (see
#: :meth:`Tracer.layer_metrics`), with their units.
DERIVED: tuple[tuple[str, str], ...] = (
    ("sim.superstep.ff_quanta_frac", "ratio"),
    ("sim.superstep.superstep_yield", "ratio"),
    ("runtime.supervisor.retries", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def entry_names() -> list[str]:
    """Layer entries in table order, each once."""
    return list(dict.fromkeys(name for name, _, _ in ENTRY_POINTS))


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in entry_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    return units


def _supervisor_retries(outcome: Any) -> int:
    """Retries inside one ``run_supervised`` call: attempts beyond the first."""
    return sum(max(0, n - 1) for n in getattr(outcome, "attempts", {}).values())


class Tracer:
    """Span statistics per layer entry, recorded by installed wrappers.

    Use as a context manager: entering installs every wrapper in
    :data:`ENTRY_POINTS`, leaving restores the original attributes (also
    when the traced code raised).  :attr:`calls`, :attr:`self_s` and
    :attr:`retries` accumulate across every ``with`` block of one tracer.
    """

    def __init__(self) -> None:
        names = entry_names()
        self.calls = dict.fromkeys(names, 0)
        self.self_s = dict.fromkeys(names, 0.0)
        self.retries = 0
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter
        count_retries = name == "runtime.supervisor.run_supervised"

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if count_retries:
                self.retries += _supervisor_retries(result)
            return result

        return span

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        try:
            for name, owner_path, attr in ENTRY_POINTS:
                module_name, _, class_name = owner_path.partition(":")
                module = importlib.import_module(module_name)
                if class_name:
                    cls = getattr(module, class_name)
                    if attr not in vars(cls):
                        raise AttributeError(f"{owner_path} defines no {attr}")
                    self._patch(cls, attr, self._wrap(name, vars(cls)[attr]))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for loaded in list(sys.modules.values()):
                    # vars(), not getattr(): lazy packages resolve unknown
                    # names through a module __getattr__ that imports.
                    if (
                        getattr(loaded, "__name__", "").startswith("repro")
                        and vars(loaded).get(attr) is original
                    ):
                        self._patch(loaded, attr, wrapper)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def layer_metrics(
        self,
        *,
        passes: int,
        traced_wall_s: float,
        untraced_run_s: float,
        quanta_elapsed: int,
    ) -> dict[str, float]:
        """Per-pass layer table: calls and self time averaged over ``passes``
        traced passes, plus the derived ratios.

        ``quanta_elapsed`` is the per-pass sum of the multiprogrammed runs'
        ``quanta_elapsed``; quanta not executed by ``execute_quantum`` were
        fast-forwarded by supersteps.
        """
        out: dict[str, float] = {}
        for name in entry_names():
            out[f"{name}.calls"] = self.calls[name] / passes
            out[f"{name}.self_s"] = self.self_s[name] / passes
        executed = out["sim.multi_batched.execute_quantum.calls"]
        out["sim.superstep.ff_quanta_frac"] = (
            (quanta_elapsed - executed) / quanta_elapsed if quanta_elapsed else 0.0
        )
        plans = out["sim.superstep.superstep_plan.calls"]
        out["sim.superstep.superstep_yield"] = (
            out["sim.superstep.apply_superstep.calls"] / plans if plans else 0.0
        )
        out["runtime.supervisor.retries"] = self.retries / passes
        per_pass_wall = traced_wall_s / passes
        out["trace.coverage"] = sum(self.self_s.values()) / traced_wall_s
        out["trace.overhead_frac"] = per_pass_wall / untraced_run_s - 1.0
        return out
