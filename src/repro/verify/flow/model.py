"""Data model of the interprocedural flow analysis.

A :class:`FunctionSummary` is the per-function *effect summary* the
analysis propagates: which functions it calls, which module-global or
closure state it writes, where it introduces randomness, where it iterates
hash-ordered containers, and what it ships to a process pool.  Summaries
are purely syntactic facts about one function body — extracting them never
needs other files — which is what makes the content-hash summary cache
(:mod:`repro.verify.flow.cache`) sound: a file's summaries depend only on
its own bytes.

Everything here round-trips through plain JSON (``to_payload`` /
``from_payload``) so the cache can persist summaries between runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

__all__ = [
    "CallSite",
    "GlobalWrite",
    "RngUse",
    "SetIteration",
    "PayloadRisk",
    "DispatchSite",
    "AttrWrite",
    "FunctionSummary",
    "ModuleInfo",
    "function_id",
    "module_payload",
    "module_from_payload",
]

#: Separator between module name and function qualname in a function id.
_SEP = "::"


def function_id(module: str, qualname: str) -> str:
    """Unambiguous id of a function: ``module::qualname``."""
    return f"{module}{_SEP}{qualname}"


@dataclass(frozen=True, slots=True)
class CallSite:
    """One call expression: the dotted callee name as written, e.g.
    ``"simulate_job"``, ``"exp.run_fig5"``, ``"self.helper"``."""

    callee: str
    line: int


@dataclass(frozen=True, slots=True)
class GlobalWrite:
    """A write to module-global or closure state.

    ``kind`` is ``"rebind"`` (``global``/``nonlocal`` + assignment) or
    ``"mutation"`` (in-place mutation of a module-level object: item/attr
    assignment, augmented assignment, or a mutating method call).
    """

    name: str
    line: int
    kind: str


@dataclass(frozen=True, slots=True)
class RngUse:
    """A ``default_rng(seed)`` whose seed expression is not derived from
    parameters, literals, or module constants.  Seedless and ambient
    randomness is the file-local ABG101's, which covers every file."""

    line: int
    detail: str = ""


@dataclass(frozen=True, slots=True)
class SetIteration:
    """Iteration over an expression inferred to be a ``set`` with no
    intervening ``sorted(...)``."""

    line: int
    detail: str = ""


@dataclass(frozen=True, slots=True)
class PayloadRisk:
    """A non-picklable or handle-bearing argument at a pool dispatch site.

    ``kind``: ``"lambda"``, ``"nested-function"``, or ``"open-handle"``.
    """

    line: int
    kind: str
    detail: str = ""


@dataclass(frozen=True, slots=True)
class DispatchSite:
    """A function value handed to a process pool (``map_deterministic``,
    ``pool.submit``, ``pool.map``); ``callee`` is the dotted name as
    written, empty when the payload is not a plain name."""

    callee: str
    line: int


@dataclass(frozen=True, slots=True)
class AttrWrite:
    """An attribute-level (or item-level) mutation reached through a name.

    ``root`` is the chain's base name (``cfg`` for ``cfg.limits.max = 1``),
    ``attr`` the dotted path written below it (``"limits.max"``, or ``"[]"``
    for an item store, or ``"<method>"`` for a mutating method call), and
    ``root_kind`` whether the root is module-level shared state
    (``"global"``) or a function parameter (``"param"``).
    """

    root: str
    attr: str
    line: int
    root_kind: str


@dataclass(slots=True)
class FunctionSummary:
    """The effect summary of one function or method."""

    qualname: str
    line: int
    params: tuple[str, ...] = ()
    #: default-value expressions aligned to ``params`` (``""`` = no default),
    #: kept as source text so the parity pass can flag default drift
    defaults: tuple[str, ...] = ()
    #: decorated ``@property`` / ``@cached_property`` — invoked by attribute
    #: access, so reachability pulls it in with the rest of its class
    is_property: bool = False
    calls: tuple[CallSite, ...] = ()
    global_writes: tuple[GlobalWrite, ...] = ()
    rng_uses: tuple[RngUse, ...] = ()
    set_iterations: tuple[SetIteration, ...] = ()
    payload_risks: tuple[PayloadRisk, ...] = ()
    dispatches: tuple[DispatchSite, ...] = ()
    attr_writes: tuple[AttrWrite, ...] = ()
    #: lines of explicit ``raise`` statements (exception-path effect model)
    raises: tuple[int, ...] = ()


@dataclass(slots=True)
class ModuleInfo:
    """Everything the analysis knows about one source file."""

    module: str
    path: str
    #: ``import numpy as np`` -> ``{"np": "numpy"}``
    imports: dict[str, str] = field(default_factory=dict)
    #: ``from .parallel import map_deterministic`` ->
    #: ``{"map_deterministic": "repro.experiments.parallel.map_deterministic"}``
    aliases: dict[str, str] = field(default_factory=dict)
    #: module-level names bound to literal (immutable) values
    constants: tuple[str, ...] = ()
    #: module-level names bound to mutable containers
    mutable_globals: tuple[str, ...] = ()
    #: class name -> base-class dotted names as written (for hierarchy
    #: analysis: calls through a base annotation reach every override)
    classes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: class name -> names assigned at class level (marker attributes such
    #: as ``batch_fallback`` for the kernel-parity pass)
    class_attrs: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: module-level names bound to constructed class instances — shared
    #: state the attribute-mutation tracking (ABG331) watches
    instance_globals: tuple[str, ...] = ()
    functions: dict[str, FunctionSummary] = field(default_factory=dict)


_TUPLE_FIELDS: dict[str, type] = {
    "calls": CallSite,
    "global_writes": GlobalWrite,
    "rng_uses": RngUse,
    "set_iterations": SetIteration,
    "payload_risks": PayloadRisk,
    "dispatches": DispatchSite,
    "attr_writes": AttrWrite,
}


def module_payload(info: ModuleInfo) -> dict[str, Any]:
    """JSON-serializable form of a :class:`ModuleInfo` (for the cache)."""
    return {
        "module": info.module,
        "path": info.path,
        "imports": dict(info.imports),
        "aliases": dict(info.aliases),
        "constants": list(info.constants),
        "mutable_globals": list(info.mutable_globals),
        "classes": {name: list(bases) for name, bases in info.classes.items()},
        "class_attrs": {
            name: list(attrs) for name, attrs in info.class_attrs.items()
        },
        "instance_globals": list(info.instance_globals),
        "functions": {
            name: {
                "qualname": fn.qualname,
                "line": fn.line,
                "params": list(fn.params),
                "defaults": list(fn.defaults),
                "is_property": fn.is_property,
                "raises": list(fn.raises),
                **{
                    fname: [asdict(item) for item in getattr(fn, fname)]
                    for fname in _TUPLE_FIELDS
                },
            }
            for name, fn in info.functions.items()
        },
    }


def module_from_payload(payload: Mapping[str, Any]) -> ModuleInfo:
    """Inverse of :func:`module_payload`."""
    functions: dict[str, FunctionSummary] = {}
    for name, raw in payload["functions"].items():
        kwargs: dict[str, Any] = {
            "qualname": str(raw["qualname"]),
            "line": int(raw["line"]),
            "params": tuple(raw["params"]),
            "defaults": tuple(raw.get("defaults", ())),
            "is_property": bool(raw.get("is_property", False)),
            "raises": tuple(int(r) for r in raw.get("raises", ())),
        }
        for fname, cls in _TUPLE_FIELDS.items():
            kwargs[fname] = tuple(cls(**item) for item in raw.get(fname, ()))
        functions[name] = FunctionSummary(**kwargs)
    return ModuleInfo(
        module=str(payload["module"]),
        path=str(payload["path"]),
        imports=dict(payload["imports"]),
        aliases=dict(payload["aliases"]),
        constants=tuple(payload["constants"]),
        mutable_globals=tuple(payload["mutable_globals"]),
        classes={
            name: tuple(bases) for name, bases in payload["classes"].items()
        },
        class_attrs={
            name: tuple(attrs)
            for name, attrs in payload.get("class_attrs", {}).items()
        },
        instance_globals=tuple(payload.get("instance_globals", ())),
        functions=functions,
    )
