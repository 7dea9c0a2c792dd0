"""One benchmark process: generate a workload, warm up, then measure it.

``perfbench/run.py`` starts this in a fresh interpreter for every set-up
sample and every measured run, so set-up time includes interpreter start and
imports, and peak RSS belongs to the one run.  It prints one JSON object.

    worker.py setup --workload W --seed N --size S --t0 T
    worker.py run   --workload W --seed N --size S --t0 T --seconds X --trace 0|1

``--t0`` is the wall-clock time at which the parent started this process.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field

import workloads
from layers import Tracer
from workloads import Output, Workload


def setup(args: argparse.Namespace) -> tuple[Workload, float]:
    """Generate the workload, run its tiny twin once (imports, numpy and
    allocator first-call costs), and return it with the seconds since
    ``--t0``."""
    workload = workloads.build(args.workload, args.seed, args.size)
    for case in workloads.build(args.workload, args.seed, "tiny").cases:
        case.solution(case.simulate())
    return workload, time.time() - args.t0


@dataclass
class Tally:
    """Simulations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


@dataclass
class Pass:
    """One timed pass over every case of a workload."""

    wall_s: float
    call_s: list[float]
    job_quanta: int
    quanta_elapsed: int
    job_digests: list[str | None]
    """Per case: :func:`workloads.digest` of its traces, ``None`` if it raised."""
    summaries: list[tuple[float, float] | None]

    @property
    def digest(self) -> str:
        """Digest of every output of the pass."""
        return hashlib.sha256(repr((self.job_digests, self.summaries)).encode()).hexdigest()


def run_pass(workload: Workload, tally: Tally) -> Pass:
    """Simulate every case once (timed), then check the outputs (untimed)."""
    clock = time.perf_counter
    outputs: list[Output | BaseException] = []
    call_s: list[float] = []
    gc.collect()
    start = clock()
    for case in workload.cases:
        t = clock()
        try:
            result = case.simulate()
        except Exception as exc:  # a failed simulation is counted, not fatal
            call_s.append(clock() - t)
            outputs.append(exc)
            continue
        call_s.append(clock() - t)
        outputs.append(case.solution(result))
    wall = clock() - start

    job_quanta = quanta_elapsed = 0
    digests: list[str | None] = []
    summaries: list[tuple[float, float] | None] = []
    for i, (case, out) in enumerate(zip(workload.cases, outputs)):
        tally.attempted += 1
        if isinstance(out, BaseException):
            tally.fail(f"case {i} raised {out!r}")
            digests.append(None)
            summaries.append(None)
            continue
        problem = workloads.check(case, out.traces)
        if problem is not None:
            tally.fail(f"case {i}: {problem}")
        job_quanta += sum(len(t) for t in out.traces.values())
        quanta_elapsed += out.quanta_elapsed
        digests.append(workloads.digest(out.traces))
        summaries.append(out.summary)
    return Pass(wall, call_s, job_quanta, quanta_elapsed, digests, summaries)


def timed_passes(workload: Workload, seconds: float, tally: Tally) -> list[Pass]:
    """Passes until the next one would end after ``seconds`` (at least one).
    Every pass must produce the same outputs."""
    start = time.perf_counter()
    passes = [run_pass(workload, tally)]
    while True:
        typical = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - start + typical > seconds:
            break
        passes.append(run_pass(workload, tally))
        if passes[-1].digest != passes[0].digest:
            tally.fail(f"pass {len(passes)} output differs from pass 1")
    return passes


def reference_check(workload: Workload, first: Pass, tally: Tally) -> None:
    """Per-job digests of the reference cases under ``batch="off"`` must
    equal the default path's."""
    index = {id(case): i for i, case in enumerate(workload.cases)}
    for case in workload.reference:
        tally.attempted += 1
        try:
            ref = workloads.digest(case.reference())
            i = index.get(id(case))
            if i is None:
                expected = workloads.digest(case.solution(case.simulate()).traces)
            else:
                expected = first.job_digests[i]
        except Exception as exc:  # counted as a failed simulation
            tally.fail(f"reference run raised {exc!r}")
            continue
        if ref != expected:
            tally.fail("default path differs from the batch='off' reference loop")


def end_to_end(passes: list[Pass]) -> tuple[dict[str, float], int]:
    """End-to-end metrics of the untraced passes, and the call-time sample
    count behind the percentiles."""
    run_s = statistics.median(p.wall_s for p in passes)
    calls = [t for p in passes for t in p.call_s]
    p90 = statistics.quantiles(calls, n=10)[8] if len(calls) > 1 else calls[0]
    return {
        "run_s": run_s,
        "job_quanta_per_s": passes[0].job_quanta / run_s,
        "sim_p50_ms": statistics.median(calls) * 1e3,
        "sim_p90_ms": p90 * 1e3,
    }, len(calls)


def traced_run(workload: Workload, seconds: float, tally: Tally) -> dict[str, object]:
    """Untraced passes for half the time, traced passes for the rest.

    The traced outputs must equal the untraced ones, and no trace may
    materialize its records (``core.columnar.build_records`` stays at 0).
    """
    plain = timed_passes(workload, seconds / 2, tally)
    tracer = Tracer()
    with tracer:
        traced = timed_passes(workload, seconds / 2, tally)
    reference_check(workload, plain[0], tally)
    if traced[0].digest != plain[0].digest:
        tally.fail("traced output differs from the untraced output")
    if tracer.calls["core.columnar.build_records"]:
        tally.fail("a trace materialized its records")
    layer = tracer.layer_metrics(
        passes=len(traced),
        traced_wall_s=sum(p.wall_s for p in traced),
        untraced_run_s=statistics.median(p.wall_s for p in plain),
        quanta_elapsed=plain[0].quanta_elapsed,
    )
    return {"metrics": layer, "passes": len(plain) + len(traced)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=list(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workload, setup_s = setup(args)
    report: dict[str, object] = {"setup_s": setup_s}
    if args.mode == "run":
        tally = Tally()
        if args.trace:
            report.update(traced_run(workload, args.seconds, tally))
        else:
            passes = timed_passes(workload, args.seconds, tally)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics, samples = end_to_end(passes)
            metrics["peak_rss_mb"] = peak_rss_mb
            reference_check(workload, passes[0], tally)
            report.update(metrics=metrics, passes=len(passes), sim_samples=samples)
        report.update(attempted=tally.attempted, failed=tally.failed, reasons=tally.reasons)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
