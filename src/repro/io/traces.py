"""Serialization of job traces, simulation results, and golden bundles.

Traces round-trip through plain JSON so experiment outputs can be archived,
diffed across code versions, or analyzed outside Python.  The schema is
versioned; loading rejects unknown versions rather than guessing.

Loading is *hardened*: a missing or mistyped record field, a non-finite
float, or a duplicate job id raises :class:`ValueError` naming the exact
field path (``traces['3'].records[7].span``) instead of leaking a
``KeyError``/``TypeError`` from deep inside the record constructor — a
corrupted or hand-edited fixture fails with a diagnosis, not a traceback.

Golden bundles
--------------
A *golden bundle* is the unit the regression harness (:mod:`repro.goldens`)
records and replays: one scenario specification plus the known-good traces
of its reference execution, with provenance (git revision, schema versions,
scenario id) and a content digest over the behavioural payload.  The digest
deliberately excludes provenance, so two recordings that simulate
identically have equal digests regardless of the revision that produced
them — the property the fixture-freshness CI check relies on.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..core.columnar import TraceColumns
from ..core.types import JobTrace, QuantumRecord
from ..runtime import write_atomic

__all__ = [
    "SCHEMA_VERSION",
    "GOLDEN_SCHEMA_VERSION",
    "GoldenBundle",
    "trace_to_dict",
    "trace_from_dict",
    "save_trace",
    "load_trace",
    "save_traces",
    "load_traces",
    "traces_payload",
    "traces_from_payload",
    "golden_digest",
    "golden_bundle_payload",
    "save_golden_bundle",
    "load_golden_bundle",
]

SCHEMA_VERSION = 1

#: Schema of the golden-bundle envelope (scenario + traces + provenance).
GOLDEN_SCHEMA_VERSION = 1

_RECORD_FIELDS = (
    "index",
    "request",
    "request_int",
    "available",
    "allotment",
    "work",
    "span",
    "steps",
    "quantum_length",
    "start_step",
)

#: Record fields carrying integer counts (bools are rejected: JSON ``true``
#: in a count field is a corruption, not a one).
_INT_RECORD_FIELDS = frozenset(
    (
        "index",
        "request_int",
        "available",
        "allotment",
        "work",
        "steps",
        "quantum_length",
        "start_step",
    )
)


def _require_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field {path} must be an integer, got {value!r}")
    return value


def _require_finite(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {path} must be a finite number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"field {path} must be finite, got {out!r}")
    return out


def trace_to_dict(trace: JobTrace) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "quantum_length": trace.quantum_length,
        "release_time": trace.release_time,
        "job_id": trace.job_id,
        "records": [
            {f: getattr(rec, f) for f in _RECORD_FIELDS} for rec in trace.records
        ],
    }


def _record_from_dict(raw: Any, path: str) -> QuantumRecord:
    """One validated :class:`QuantumRecord` from a JSON object at ``path``."""
    if not isinstance(raw, dict):
        raise ValueError(f"field {path} must be an object, got {type(raw).__name__}")
    values: dict[str, Any] = {}
    for name in _RECORD_FIELDS:
        if name not in raw:
            raise ValueError(f"missing field {path}.{name}")
        value = raw[name]
        where = f"{path}.{name}"
        if name in _INT_RECORD_FIELDS:
            values[name] = _require_int(value, where)
        else:
            values[name] = _require_finite(value, where)
    try:
        return QuantumRecord(**values)
    except ValueError as exc:
        raise ValueError(f"invalid record at {path}: {exc}") from None


def trace_from_dict(data: dict[str, Any], *, where: str = "trace") -> JobTrace:
    """Rehydrate one :class:`JobTrace`; ``where`` prefixes error paths."""
    if not isinstance(data, dict):
        raise ValueError(f"field {where} must be an object, got {type(data).__name__}")
    version = data.get("schema")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported trace schema {version!r} at {where}")
    if "quantum_length" not in data:
        raise ValueError(f"missing field {where}.quantum_length")
    job_id = data.get("job_id")
    if job_id is not None:
        job_id = _require_int(job_id, f"{where}.job_id")
    quantum_length = _require_int(data["quantum_length"], f"{where}.quantum_length")
    release_time = _require_int(data.get("release_time", 0), f"{where}.release_time")
    raw_records = data.get("records")
    if not isinstance(raw_records, list):
        raise ValueError(f"field {where}.records must be a list, got {raw_records!r}")
    records = [
        _record_from_dict(raw, f"{where}.records[{i}]")
        for i, raw in enumerate(raw_records)
    ]
    try:
        columns = TraceColumns.from_records(records)
    except ValueError as exc:
        raise ValueError(f"invalid records at {where}.records: {exc}") from None
    return JobTrace(quantum_length, columns, release_time=release_time, job_id=job_id)


def save_trace(trace: JobTrace, path: str | Path) -> Path:
    return write_atomic(path, json.dumps(trace_to_dict(trace), indent=2))


def load_trace(path: str | Path) -> JobTrace:
    return trace_from_dict(_loads(Path(path).read_text()))


def traces_payload(traces: dict[int, JobTrace]) -> dict[str, Any]:
    """The job-id-keyed traces mapping shared by :func:`save_traces` and the
    golden-bundle envelope (ids serialized as sorted decimal strings)."""
    return {str(jid): trace_to_dict(traces[jid]) for jid in sorted(traces)}


def traces_from_payload(
    payload: Any, *, where: str = "traces"
) -> dict[int, JobTrace]:
    """Validated inverse of :func:`traces_payload`.

    Rejects non-object payloads, unparseable job-id keys, and job ids that
    collide after normalization (``"01"`` next to ``"1"``) — each with a
    :class:`ValueError` naming the offending path.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"field {where} must be an object, got {type(payload).__name__}"
        )
    out: dict[int, JobTrace] = {}
    for key, raw in payload.items():
        try:
            jid = int(key)
        except (TypeError, ValueError):
            raise ValueError(f"bad job id {key!r} in {where}") from None
        if jid in out:
            raise ValueError(f"duplicate job id {jid} in {where}")
        out[jid] = trace_from_dict(raw, where=f"{where}[{key!r}]")
    return out


def save_traces(traces: dict[int, JobTrace], path: str | Path) -> Path:
    """Persist a multiprogrammed result's traces keyed by job id."""
    payload = {"schema": SCHEMA_VERSION, "traces": traces_payload(traces)}
    return write_atomic(path, json.dumps(payload, indent=2))


def _reject_duplicate_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key {key!r} in JSON object")
        out[key] = value
    return out


def _loads(text: str) -> Any:
    """``json.loads`` that rejects duplicate object keys instead of silently
    keeping the last one (a hand-edited fixture hazard)."""
    return json.loads(text, object_pairs_hook=_reject_duplicate_keys)


def load_traces(path: str | Path) -> dict[int, JobTrace]:
    data = _loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"traces file {path} must hold a JSON object")
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported traces schema {data.get('schema')!r}")
    return traces_from_payload(data.get("traces"))


# ---------------------------------------------------------------------------
# Golden bundles (the repro.goldens fixture format)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GoldenBundle:
    """One recorded golden fixture: scenario, known-good traces, provenance.

    ``scenario`` is the opaque scenario payload (:mod:`repro.goldens.spec`
    owns its schema — the IO layer only round-trips it); ``provenance``
    carries the recording context (git revision, schema versions, reference
    execution path) and is excluded from ``digest``.
    """

    scenario: dict[str, Any]
    traces: dict[int, JobTrace]
    provenance: dict[str, Any] = field(default_factory=dict)

    @property
    def scenario_id(self) -> str:
        return str(self.scenario.get("scenario_id", "<unknown>"))

    @property
    def digest(self) -> str:
        return golden_digest(self.scenario, self.traces)


def golden_digest(scenario: dict[str, Any], traces: dict[int, JobTrace]) -> str:
    """Content digest over the behavioural payload (scenario + traces only:
    two recordings that simulate identically digest identically)."""
    canonical = json.dumps(
        {"scenario": scenario, "traces": traces_payload(traces)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def golden_bundle_payload(bundle: GoldenBundle) -> dict[str, Any]:
    """The JSON envelope of one golden fixture file."""
    return {
        "schema": GOLDEN_SCHEMA_VERSION,
        "kind": "abg-golden-bundle",
        "trace_schema": SCHEMA_VERSION,
        "scenario": bundle.scenario,
        "provenance": bundle.provenance,
        "digest": bundle.digest,
        "traces": traces_payload(bundle.traces),
    }


def save_golden_bundle(path: str | Path, bundle: GoldenBundle) -> Path:
    return write_atomic(path, json.dumps(golden_bundle_payload(bundle), indent=1))


def load_golden_bundle(path: str | Path) -> GoldenBundle:
    """Load and validate one golden fixture.

    Raises :class:`ValueError` (never ``KeyError``/``TypeError``) on an
    unknown schema, a malformed scenario/traces payload, or a digest
    mismatch (the fixture bytes were edited without re-recording).
    """
    data = _loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"golden bundle {path} must hold a JSON object")
    if data.get("schema") != GOLDEN_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported golden-bundle schema {data.get('schema')!r} in {path}"
        )
    if data.get("trace_schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trace schema {data.get('trace_schema')!r} in {path}"
        )
    scenario = data.get("scenario")
    if not isinstance(scenario, dict):
        raise ValueError(f"field scenario must be an object in {path}")
    provenance = data.get("provenance")
    if not isinstance(provenance, dict):
        raise ValueError(f"field provenance must be an object in {path}")
    traces = traces_from_payload(data.get("traces"))
    bundle = GoldenBundle(scenario=scenario, traces=traces, provenance=provenance)
    declared = data.get("digest")
    if declared != bundle.digest:
        raise ValueError(
            f"golden bundle {path} digest mismatch: file declares {declared!r} "
            f"but contents hash to {bundle.digest!r} (edited without re-recording?)"
        )
    return bundle
