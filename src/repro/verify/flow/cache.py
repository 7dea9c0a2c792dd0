"""Content-hash effect-summary cache.

Summaries are file-local facts (see :mod:`repro.verify.flow.summarize`),
so caching them keyed on the sha256 of each file's source is sound: edit a
file and only that file re-summarizes; the (cheap) call-graph resolution
and fixpoint always run fresh.  This keeps ``python -m repro lint --deep``
fast enough for CI and pre-commit.

The cache lives in ``.abg_cache/flow-summaries.json`` by default
(git-ignored); a missing, corrupt, or schema-mismatched file is treated as
empty, never an error.

Invalidation is two-keyed: the payload ``schema`` (bumped whenever the
summary *shape* changes) **and** the :func:`analyzer_version` fingerprint,
derived from the sorted rule registry — so merely *adding* a rule, which
changes no summary shape, still discards every cached summary.  Without
the second key an upgraded linter could serve pre-upgrade summaries that
never recorded the facts the new rules need, silently masking findings.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from ...runtime import write_atomic
from ..findings import RULES
from .model import ModuleInfo, module_from_payload, module_payload

__all__ = [
    "SummaryCache",
    "DEFAULT_CACHE_PATH",
    "source_digest",
    "analyzer_version",
]

#: Default on-disk location, relative to the working directory.
DEFAULT_CACHE_PATH = Path(".abg_cache") / "flow-summaries.json"

_SCHEMA = 6  # 6: buffer points-to, mutable-default and seedless/ambient RNG facts dropped


def analyzer_version() -> str:
    """Fingerprint of the active rule set (codes + severities + summaries).

    Any rule addition, removal, or redefinition changes this string, which
    invalidates every cached summary — the rule-set key of the cache.
    """
    canon = json.dumps(sorted(RULES.items()), separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def source_digest(source: str) -> str:
    """sha256 hex digest of one file's source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class SummaryCache:
    """Load/store :class:`ModuleInfo` summaries keyed by path + digest."""

    def __init__(self, path: str | Path = DEFAULT_CACHE_PATH):
        self.path = Path(path)
        self._entries: dict[str, dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        self._load()

    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(data, dict) or data.get("schema") != _SCHEMA:
            return
        if data.get("analyzer") != analyzer_version():
            return  # rule set changed since this cache was written
        entries = data.get("entries")
        if isinstance(entries, dict):
            self._entries = entries

    def get(self, file_path: str, digest: str) -> ModuleInfo | None:
        """The cached summary for ``file_path`` when its digest matches."""
        entry = self._entries.get(file_path)
        if entry is None or entry.get("sha256") != digest:
            self.misses += 1
            return None
        try:
            info = module_from_payload(entry["module"])
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return info

    def put(self, file_path: str, digest: str, info: ModuleInfo) -> None:
        self._entries[file_path] = {
            "sha256": digest,
            "module": module_payload(info),
        }

    def save(self) -> None:
        """Persist the cache (creates the parent directory)."""
        payload = {
            "schema": _SCHEMA,
            "analyzer": analyzer_version(),
            "entries": self._entries,
        }
        write_atomic(self.path, json.dumps(payload))
