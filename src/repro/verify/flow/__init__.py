"""Interprocedural purity & parallel-safety analysis (``ABG2xx``/``ABG3xx``).

The file-local lint (:mod:`repro.verify.lint`) can only see one function
at a time; this package *proves* the repo's fan-out determinism contract —
"``--jobs``/``--workers`` never changes a number" — by building a call
graph over ``src/repro``, extracting per-function effect summaries, and
propagating reachability from the worker-dispatched entry points to a
fixpoint.  The ``ABG3xx`` family adds the scalar↔batched kernel contract:
an API-parity pass over the ``Allocator``/``FeedbackPolicy`` hierarchies
and a numerical-determinism pass over the array-kernel modules
(:mod:`repro.verify.flow.kernel`).  See :mod:`repro.verify.flow.analysis` for the
rule families and docs/STATIC_ANALYSIS.md for the full catalogue.

Entry points::

    python -m repro lint --deep            # unified ABG1xx/2xx/3xx report
    python -m repro lint --deep --strict-roots
    from repro.verify.flow import analyze_paths
    report = analyze_paths(["src/repro"])
"""

from __future__ import annotations

from .analysis import DEFAULT_ROOT_PATTERNS, FlowReport, analyze_paths
from .cache import DEFAULT_CACHE_PATH, SummaryCache, analyzer_version
from .callgraph import ModuleIndex, build_call_graph
from .kernel import (
    DEFAULT_KERNEL_PATTERNS,
    PARITY_CONTRACTS,
    ParityContract,
    is_kernel_path,
    numeric_findings,
    parity_findings,
)
from .model import AttrWrite, FunctionSummary, ModuleInfo
from .summarize import summarize_module

__all__ = [
    "AttrWrite",
    "DEFAULT_CACHE_PATH",
    "DEFAULT_KERNEL_PATTERNS",
    "DEFAULT_ROOT_PATTERNS",
    "FlowReport",
    "FunctionSummary",
    "ModuleIndex",
    "ModuleInfo",
    "PARITY_CONTRACTS",
    "ParityContract",
    "SummaryCache",
    "analyze_paths",
    "analyzer_version",
    "build_call_graph",
    "is_kernel_path",
    "numeric_findings",
    "parity_findings",
    "summarize_module",
]
