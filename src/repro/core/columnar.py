"""The storage of a :class:`~repro.core.types.JobTrace`: one array per field.

Every trace keeps its quanta as a :class:`TraceColumns` — one aligned array
per :class:`~repro.core.types.QuantumRecord` field — and answers every
aggregate (running time, work, waste, the series) straight from the
arrays.  Producers build the columns once:

- the batched simulation kernel's
  :class:`~repro.sim.superstep.QuantumLog` slices them out of one run-wide
  table at the end of a run;
- the single-job loop, the multiprogrammed reference loop and trace loading
  collect validated records and end with :meth:`TraceColumns.from_records`.

Record objects exist only for the consumers that iterate them
(:attr:`~repro.core.types.JobTrace.records`); :meth:`TraceColumns.build_records`
makes them through :func:`~repro.core.types.quantum_records_from_columns`,
which re-checks every invariant the scalar constructor enforces.

``quantum_length`` is a 0-d array when every quantum has the same ``L`` —
always, for the kernel's traces — and one value per row only when the
lengths vary (:class:`~repro.core.quantum_policy.AdaptiveQuantumLength`).
It is used by broadcasting, so a fixed-``L`` trace stores it once.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Iterator, Sequence

import numpy as np

from .types import QuantumRecord, quantum_records_from_columns, quantum_rows

__all__ = ["TraceColumns"]



class TraceColumns:
    """One job's whole per-quantum history as aligned columns.

    ``index`` and ``start_step`` are per-row (a job's quanta are contiguous
    but start at job-specific absolute steps).  The arrays may be views into
    a larger simulation-wide buffer — they are never mutated after
    construction.
    """

    __slots__ = (
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

    def __init__(
        self,
        *,
        index: np.ndarray,
        request: np.ndarray,
        request_int: np.ndarray,
        available: np.ndarray,
        allotment: np.ndarray,
        work: np.ndarray,
        span: np.ndarray,
        steps: np.ndarray,
        quantum_length: np.ndarray,
        start_step: np.ndarray,
    ) -> None:
        self.index = index
        self.request = request
        self.request_int = request_int
        self.available = available
        self.allotment = allotment
        self.work = work
        self.span = span
        self.steps = steps
        self.quantum_length = quantum_length
        self.start_step = start_step

    @classmethod
    def from_records(cls, records: Sequence[QuantumRecord]) -> TraceColumns:
        """The columns of ``records``, which must run ``1, 2, 3, ...``: the
        first quantum record has index 1, and each next one follows its
        predecessor."""
        n = len(records)
        # One pass over the records into one row table; the columns are
        # views of its fields.
        table = np.fromiter(map(_row_values, records), dtype=_ROW, count=n)
        index = table["index"].tolist()
        if index != list(range(1, n + 1)):
            raise ValueError(
                "first quantum record must have index 1"
                if index[0] != 1
                else "quantum records must be appended in order"
            )
        cols = {name: table[name] for name in cls.__slots__}
        lengths = cols["quantum_length"]
        if len(set(lengths.tolist())) == 1:
            cols["quantum_length"] = np.array(lengths[0], dtype=np.int64)
        return cls(**cols)

    def __len__(self) -> int:
        return int(self.index.size)

    def __eq__(self, other: object) -> bool:
        """Row-for-row value equality, as comparing the records would be."""
        if not isinstance(other, TraceColumns):
            return NotImplemented
        shape = self.index.shape
        return shape == other.index.shape and all(
            np.array_equal(
                np.broadcast_to(getattr(self, name), shape),
                np.broadcast_to(getattr(other, name), shape),
            )
            for name in self.__slots__
        )

    def _fields(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}

    def rows(self) -> Iterator[tuple[Any, ...]]:
        """Each quantum's fields as python scalars in record field order,
        unvalidated — the stored values as they are, for the auditor."""
        return quantum_rows(**self._fields())

    def build_records(self) -> list[QuantumRecord]:
        """The identical records, every row validated."""
        return quantum_records_from_columns(**self._fields())


_row_values = attrgetter(*TraceColumns.__slots__)
"""A record's fields in column order (the slots follow the record's fields)."""

_ROW = np.dtype(
    [
        (name, np.float64 if name in ("request", "span") else np.int64)
        for name in TraceColumns.__slots__
    ]
)
"""One quantum as a row of :meth:`TraceColumns.from_records`'s table."""
