"""Allotment timeline rendering.

Draws a job's execution as a quantum-by-quantum strip: processor request,
allotment, and measured parallelism — the picture behind Figures 1 and 4,
for any trace.
"""

from __future__ import annotations

from ..core.types import JobTrace
from .ascii import sparkline

__all__ = ["timeline", "allotment_strip"]


def allotment_strip(trace: JobTrace, *, max_quanta: int = 60) -> str:
    """One sparkline row each for request, allotment, and parallelism."""
    recs = trace.records[:max_quanta]
    if not recs:
        raise ValueError("empty trace")
    rows = [
        ("request d(q)", [r.request for r in recs]),
        ("allotment a(q)", [float(r.allotment) for r in recs]),
        ("parallelism A(q)", [r.avg_parallelism for r in recs]),
    ]
    label_w = max(len(name) for name, _ in rows)
    lines = []
    for name, series in rows:
        lines.append(
            f"{name:<{label_w}}  {sparkline(series)}"
            f"  [{min(series):.3g}, {max(series):.3g}]"
        )
    if len(trace) > max_quanta:
        lines.append(f"({len(trace) - max_quanta} more quanta not shown)")
    return "\n".join(lines)


def timeline(trace: JobTrace, *, max_quanta: int = 30) -> str:
    """A per-quantum table with a proportional allotment bar — a compact
    Gantt-style view of how the scheduler tracked the job."""
    recs = trace.records[:max_quanta]
    if not recs:
        raise ValueError("empty trace")
    peak = max(max(r.allotment for r in recs), 1)
    scale = min(1.0, 40.0 / peak)
    lines = [
        f"{'q':>4} {'d(q)':>8} {'a(q)':>5} {'A(q)':>8} {'waste':>8}  allotment"
    ]
    for r in recs:
        bar = "█" * max(1, int(round(r.allotment * scale)))
        lines.append(
            f"{r.index:>4} {r.request:>8.2f} {r.allotment:>5} "
            f"{r.avg_parallelism:>8.2f} {r.waste:>8}  {bar}"
        )
    if len(trace) > max_quanta:
        lines.append(f"... ({len(trace) - max_quanta} more quanta)")
    return "\n".join(lines)
