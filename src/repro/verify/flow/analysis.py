"""Fixpoint analysis: prove the fan-out determinism contract statically.

``analyze_paths`` summarizes every file (through the content-hash cache),
builds the call graph, determines the *worker-dispatched* root set, and
propagates reachability to a fixpoint.  Every function reachable from a
root executes inside a ``ProcessPoolExecutor`` worker under ``repro all
--jobs`` / ``fig5``/``fig6 --workers`` — so on those functions the ABG2xx
rules apply:

- ``ABG201`` — writes to module-global or closure state (a worker's
  globals are per-process: any such write silently diverges between serial
  and parallel runs);
- ``ABG212`` — a ``default_rng(seed)`` whose seed expression is not
  data-flow-derived from a parameter, literal, or module constant;
- ``ABG221`` — hash-order set iteration without ``sorted(...)``;
- ``ABG231`` — unpicklable or handle-bearing payloads at the dispatch
  sites themselves (reported wherever they occur).

Mutable defaults and seedless or global-state randomness are the
file-local ``ABG103``/``ABG101``'s: those rules already cover every file
of ``src/repro``, worker-reachable or not.

Flow-analyzer v2 adds attribute-level and exception-path rules on the
same reachable set:

- ``ABG331`` — attribute-level mutation of shared module state reached
  through a chain (``CONFIG.limits.max = 1``, ``TABLE[k].bump()``) —
  what ABG201's direct-base check cannot see;
- ``ABG332`` — a parameter mutated before a later explicit ``raise`` in
  the same worker-reachable function: the supervised pool *retries*
  failed units, so the replay sees the half-mutated argument;
- ``ABG333`` (``strict_roots=True`` only) — a pool-dispatch site whose
  payload cannot be resolved to an analyzed function (computed callables
  and names that leave the tree); forwarding a function-typed *parameter*
  is exempt, since the concrete callee is resolved at the outer call.

The kernel passes (``ABG3xx`` parity + numeric rules,
:mod:`repro.verify.flow.kernel`) also run here: parity over the cached
module index, numeric over a fresh parse of each kernel file.

Roots come from two sources: **discovered** dispatch sites (any function
handed by name to ``map_deterministic`` / ``run_supervised`` /
``pool.submit`` / ``pool.map``) and the **declared** patterns in
:data:`DEFAULT_ROOT_PATTERNS` covering registry-driven dispatch the
resolver cannot see through (the bench scenario table, the
experiment-runner registry, the engine protocol surface the workers
drive, and the supervised pool's worker entrypoint).

Suppression uses the shared ``# abg: allow[CODE] reason=...`` syntax from
:mod:`repro.verify.findings`; a reason is mandatory.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..findings import LintFinding, is_suppressed, rule_severity
from .cache import SummaryCache, source_digest
from .callgraph import ModuleIndex, build_call_graph
from .kernel import (
    DEFAULT_KERNEL_PATTERNS,
    inferred_pair_findings,
    PARITY_CONTRACTS,
    ParityContract,
    is_kernel_path,
    numeric_findings,
    parity_findings,
)
from .model import FunctionSummary, ModuleInfo
from .summarize import summarize_module

__all__ = ["FlowReport", "analyze_paths", "DEFAULT_ROOT_PATTERNS"]

#: Declared roots (``module-glob::qualname-glob``) for dispatch the call
#: graph cannot follow because the callee travels through a data registry:
#: the bench scenario table (``SCENARIOS``), the experiment-runner registry
#: (``_experiments()``), the engine protocol surface workers drive (which
#: includes the multi-job batched kernel's quantum entry point), and the
#: supervised pool's picklable worker entrypoint (every ``pool.submit``
#: funnels through it, so everything it calls runs inside a worker).
DEFAULT_ROOT_PATTERNS: tuple[str, ...] = (
    "repro.bench.scenarios::_*",
    "repro.engine.*::*.execute_quantum",
    "repro.sim.multi_batched::*.execute_quantum",
    "repro.sim.multi_batched::*.superstep_plan",
    "repro.sim.multi_batched::*.apply_superstep",
    "repro.sim.superstep::*.build_traces",
    "repro.experiments.*::run_*",
    "repro.runtime.supervisor::_invoke_unit",
)


@dataclass(slots=True)
class FlowReport:
    """Outcome of one deep analysis run."""

    findings: list[LintFinding] = field(default_factory=list)
    roots: tuple[str, ...] = ()
    reachable: frozenset[str] = frozenset()
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings


def _iter_python_files(paths: Iterable[Path | str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.exists():
            files.append(p)
        else:
            raise FileNotFoundError(f"no such file or directory: {p}")
    return files


def _display(func_id: str) -> str:
    return func_id.replace("::", ".")


def _matches(func_id: str, pattern: str) -> bool:
    module, _, qualname = func_id.partition("::")
    pat_module, sep, pat_qual = pattern.partition("::")
    if not sep:
        return fnmatchcase(_display(func_id), pattern)
    return fnmatchcase(module, pat_module) and fnmatchcase(qualname, pat_qual)


def _function_findings(
    summary: FunctionSummary,
    info: ModuleInfo,
    lines: Sequence[str],
    trace: tuple[str, ...],
) -> list[LintFinding]:
    """The ABG2xx findings of one worker-reachable function."""
    out: list[LintFinding] = []

    def emit(line: int, code: str, message: str) -> None:
        if is_suppressed(lines, line, code):
            return
        out.append(
            LintFinding(
                path=info.path,
                line=line,
                col=0,
                code=code,
                message=message,
                severity=rule_severity(code),
                trace=trace,
            )
        )

    for write in summary.global_writes:
        verb = "rebinds" if write.kind == "rebind" else "mutates"
        emit(
            write.line,
            "ABG201",
            f"worker-dispatched path {verb} module-global/closure state "
            f"{write.name!r}; workers each see their own copy, so results "
            "depend on the worker count — pass state through the task instead",
        )
    for rng in summary.rng_uses:
        emit(
            rng.line,
            "ABG212",
            "RNG seed on a parallel path is not derived from a seed "
            "parameter, literal, or module constant; thread the seed "
            "through the task arguments",
        )
    for it in summary.set_iterations:
        emit(
            it.line,
            "ABG221",
            f"hash-order iteration over set {it.detail!r} on a parallel "
            "path; wrap in sorted(...) before the elements can reach a "
            "recorded schedule or artifact",
        )
    for write in summary.attr_writes:
        if write.root_kind == "global":
            emit(
                write.line,
                "ABG331",
                f"worker-dispatched path mutates shared instance state "
                f"{write.root}.{write.attr}: attribute-level writes through "
                "module-level objects diverge per worker process just like "
                "direct global writes — pass state through the task instead",
            )
        elif write.root_kind == "param" and any(
            r > write.line for r in summary.raises
        ):
            emit(
                write.line,
                "ABG332",
                f"parameter {write.root!r} mutated ({write.attr}) before a "
                "possible raise later in this worker function: the "
                "supervised pool retries failed units, so the replay sees "
                "the half-mutated argument — mutate only after the last "
                "raise, or work on a copy",
            )
    return out


def _payload_findings(
    summary: FunctionSummary, info: ModuleInfo, lines: Sequence[str]
) -> list[LintFinding]:
    """ABG231 findings at dispatch sites (reported wherever they occur)."""
    out: list[LintFinding] = []
    for risk in summary.payload_risks:
        if is_suppressed(lines, risk.line, "ABG231"):
            continue
        out.append(
            LintFinding(
                path=info.path,
                line=risk.line,
                col=0,
                code="ABG231",
                message=f"process-pool payload is not safely picklable: "
                f"{risk.detail}; ship a module-level function and plain data",
                severity=rule_severity("ABG231"),
            )
        )
    return out


def analyze_paths(
    paths: Iterable[Path | str],
    *,
    root_patterns: Sequence[str] = DEFAULT_ROOT_PATTERNS,
    extra_roots: Sequence[str] = (),
    cache: SummaryCache | None = None,
    overrides: Mapping[str, str] | None = None,
    strict_roots: bool = False,
    kernel_patterns: Sequence[str] = DEFAULT_KERNEL_PATTERNS,
    parity_contracts: Sequence[ParityContract] = PARITY_CONTRACTS,
) -> FlowReport:
    """Run the interprocedural analysis over files and directories.

    ``root_patterns`` add declared roots (``module-glob::qualname-glob``)
    on top of the discovered dispatch sites; ``extra_roots`` add exact
    function ids.  ``cache`` (a :class:`SummaryCache`) reuses summaries of
    unchanged files; ``overrides`` maps absolute path strings to
    replacement source text — the hook the mutation tests use to inject a
    violation without touching the tree.  ``strict_roots`` turns
    unresolvable pool-dispatch payloads into ``ABG333`` findings instead
    of silently trusting the declared root patterns to cover them.
    ``kernel_patterns``/``parity_contracts`` configure the ABG3xx passes
    (the numeric pass re-parses matching files fresh; the summary cache
    is never consulted for it).
    """
    report = FlowReport()
    modules: dict[str, ModuleInfo] = {}
    sources: dict[str, list[str]] = {}

    for file_path in _iter_python_files(paths):
        path_str = str(file_path)
        if overrides is not None and path_str in overrides:
            source = overrides[path_str]
        else:
            source = file_path.read_text(encoding="utf-8")
        sources[path_str] = source.splitlines()
        digest = source_digest(source)
        info = cache.get(path_str, digest) if cache is not None else None
        if info is None:
            try:
                info = summarize_module(source, path_str)
            except SyntaxError as exc:
                report.findings.append(
                    LintFinding(
                        path=path_str,
                        line=exc.lineno or 1,
                        col=exc.offset or 0,
                        code="ABG100",
                        message=f"syntax error: {exc.msg}",
                        severity=rule_severity("ABG100"),
                    )
                )
                continue
            if cache is not None:
                cache.put(path_str, digest, info)
        modules[info.module] = info
    if cache is not None:
        cache.save()

    index = ModuleIndex(modules)
    graph = build_call_graph(index)
    functions = index.functions()

    # -- root set: discovered dispatch sites + declared patterns -------------
    roots: list[str] = []
    for module, info in index.modules.items():
        for qualname, summary in info.functions.items():
            for dispatch in summary.dispatches:
                resolved_ids = (
                    index.resolve_call(info, dispatch.callee, qualname)
                    if dispatch.callee
                    else ()
                )
                for resolved in resolved_ids:
                    if resolved not in roots:
                        roots.append(resolved)
                if strict_roots and not resolved_ids:
                    # a function-typed *parameter* forwarded to the pool is
                    # resolved at the outer call site — not a strict-roots
                    # violation (map_deterministic forwarding its fn)
                    if dispatch.callee and dispatch.callee in summary.params:
                        continue
                    lines = sources.get(info.path, [])
                    if is_suppressed(lines, dispatch.line, "ABG333"):
                        continue
                    detail = (
                        f"payload {dispatch.callee!r} does not resolve to an "
                        "analyzed function"
                        if dispatch.callee
                        else "payload is a computed callable"
                    )
                    report.findings.append(
                        LintFinding(
                            path=info.path,
                            line=dispatch.line,
                            col=0,
                            code="ABG333",
                            message=f"pool-dispatch callee unresolvable in "
                            f"strict-roots mode: {detail}; the analysis "
                            "cannot prove the worker-side effects — dispatch "
                            "a module-level function by name",
                            severity=rule_severity("ABG333"),
                        )
                    )
    for func_id in functions:
        if any(_matches(func_id, p) for p in root_patterns) and func_id not in roots:
            roots.append(func_id)
    for root in extra_roots:
        if root in functions and root not in roots:
            roots.append(root)
    report.roots = tuple(sorted(roots))

    # -- reachability fixpoint ------------------------------------------------
    # Property getters are invoked by attribute access (no call site), so
    # once any method of a class is reachable its properties are too.
    class_properties: dict[str, list[str]] = {}
    for func_id, summary in functions.items():
        if summary.is_property and "." in summary.qualname:
            cls_id = func_id.rsplit(".", 1)[0]
            class_properties.setdefault(cls_id, []).append(func_id)

    parent: dict[str, str | None] = {r: None for r in roots}
    queue: deque[str] = deque(roots)
    while queue:
        current = queue.popleft()
        successors = list(graph.get(current, ()))
        if "." in current.rpartition("::")[2]:
            successors.extend(class_properties.get(current.rsplit(".", 1)[0], ()))
        for callee in successors:
            if callee not in parent:
                parent[callee] = current
                queue.append(callee)
    report.reachable = frozenset(parent)

    def trace_of(func_id: str) -> tuple[str, ...]:
        chain: list[str] = []
        cursor: str | None = func_id
        while cursor is not None:
            chain.append(_display(cursor))
            cursor = parent[cursor]
        return tuple(reversed(chain))

    # -- findings -------------------------------------------------------------
    for func_id, summary in functions.items():
        info = index.info_for(func_id)
        lines = sources.get(info.path, [])
        report.findings.extend(_payload_findings(summary, info, lines))
        if func_id in parent:
            report.findings.extend(
                _function_findings(summary, info, lines, trace_of(func_id))
            )

    # -- kernel passes (ABG3xx) ----------------------------------------------
    report.findings.extend(parity_findings(index, sources, parity_contracts))
    report.findings.extend(inferred_pair_findings(index, sources, parity_contracts))
    kernel_files = 0
    for path_str, lines in sources.items():
        if not is_kernel_path(path_str, kernel_patterns):
            continue
        kernel_files += 1
        try:
            tree = ast.parse("\n".join(lines), filename=path_str)
        except SyntaxError:
            continue  # already reported as ABG100 above
        report.findings.extend(numeric_findings(path_str, lines, tree))

    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    report.stats = {
        "modules": len(modules),
        "functions": len(functions),
        "roots": len(roots),
        "reachable": len(parent),
        "kernel_files": kernel_files,
        "cache_hits": cache.hits if cache is not None else 0,
        "cache_misses": cache.misses if cache is not None else 0,
    }
    return report
