"""The storage of a :class:`~repro.core.types.JobTrace`: two blocks of rows.

Every trace keeps its quanta as a :class:`TraceColumns`: one ``(7, n)``
int64 block with a row per integer :class:`~repro.core.types.QuantumRecord`
field (:data:`INT_FIELDS`), one ``(2, n)`` float64 block with a row per
float field (:data:`FLOAT_FIELDS`), and the quantum length.  Each field is
a read-only property returning its row, a contiguous 1-D view, and every
aggregate (running time, work, waste, the series) reads those rows.
Producers build the blocks once:

- the batched simulation kernel's
  :class:`~repro.sim.superstep.QuantumLog` gathers every field of a run
  straight into the rows of two run-wide blocks at the end of the run, and
  each job's trace is a column slice of those two blocks;
- the single-job loop, the multiprogrammed reference loop and trace loading
  collect validated records and end with :meth:`TraceColumns.from_records`.

Two blocks instead of one array per field keep a short trace small: a
trace holds three array objects, not ten.

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

from itertools import repeat
from operator import attrgetter
from typing import Any, Iterator, Sequence

import numpy as np

from .types import _FIELDS, QuantumRecord, quantum_records_from_columns, quantum_rows

__all__ = ["FLOAT_FIELDS", "INT_FIELDS", "TraceColumns"]


INT_FIELDS = ("index", "request_int", "available", "allotment", "work", "steps", "start_step")
"""The record fields stored as rows of :attr:`TraceColumns.ints`, in row order."""

FLOAT_FIELDS = ("request", "span")
"""The record fields stored as rows of :attr:`TraceColumns.floats`, in row order."""


def _field_row(name: str) -> property:
    """The read-only property giving field ``name``'s row of its block."""
    if name in INT_FIELDS:
        block, row = attrgetter("ints"), INT_FIELDS.index(name)
    else:
        block, row = attrgetter("floats"), FLOAT_FIELDS.index(name)

    def get(self: TraceColumns) -> np.ndarray:
        values: np.ndarray = block(self)[row]
        return values

    return property(get, doc=f"The ``{name}`` of every quantum (a row view).")


class TraceColumns:
    """One job's whole per-quantum history as two blocks of aligned rows.

    ``ints`` is ``(len(INT_FIELDS), n)`` int64 and ``floats`` is
    ``(len(FLOAT_FIELDS), n)`` float64; each row must be contiguous.  The
    blocks may be column slices of larger simulation-wide blocks — they are
    never mutated after construction.  ``index`` and ``start_step`` are
    per-row (a job's quanta are contiguous but start at job-specific
    absolute steps).
    """

    __slots__ = ("ints", "floats", "quantum_length")

    def __init__(
        self, ints: np.ndarray, floats: np.ndarray, quantum_length: np.ndarray
    ) -> None:
        self.ints = ints
        self.floats = floats
        self.quantum_length = quantum_length

    index = _field_row("index")
    request = _field_row("request")
    request_int = _field_row("request_int")
    available = _field_row("available")
    allotment = _field_row("allotment")
    work = _field_row("work")
    span = _field_row("span")
    steps = _field_row("steps")
    start_step = _field_row("start_step")

    @classmethod
    def from_records(cls, records: Sequence[QuantumRecord]) -> TraceColumns:
        """The columns of ``records``, which must run ``1, 2, 3, ...``: the
        first quantum record has index 1, and each next one follows its
        predecessor."""
        n = len(records)
        # One pass over the records, transposed into one tuple per field.
        table = dict(zip(_FIELDS, zip(*map(_row_values, records)) if n else repeat(())))
        index = table["index"]
        if index != tuple(range(1, n + 1)):
            raise ValueError(
                "first quantum record must have index 1"
                if index[0] != 1
                else "quantum records must be appended in order"
            )
        lengths = table["quantum_length"]
        return cls(
            np.array([table[name] for name in INT_FIELDS], dtype=np.int64),
            np.array([table[name] for name in FLOAT_FIELDS], dtype=np.float64),
            np.array(lengths[0] if len(set(lengths)) == 1 else lengths, dtype=np.int64),
        )

    def __len__(self) -> int:
        return int(self.ints.shape[1])

    def __eq__(self, other: object) -> bool:
        """Row-for-row value equality, as comparing the records would be."""
        if not isinstance(other, TraceColumns):
            return NotImplemented
        n = len(self)
        return (
            n == len(other)
            and np.array_equal(self.ints, other.ints)
            and np.array_equal(self.floats, other.floats)
            and np.array_equal(
                np.broadcast_to(self.quantum_length, n),
                np.broadcast_to(other.quantum_length, n),
            )
        )

    def _fields(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in _FIELDS}

    def rows(self) -> Iterator[tuple[Any, ...]]:
        """Each quantum's fields as python scalars in record field order,
        unvalidated — the stored values as they are, for the auditor."""
        return quantum_rows(**self._fields())

    def build_records(self) -> list[QuantumRecord]:
        """The identical records, every row validated."""
        return quantum_records_from_columns(**self._fields())


_row_values = attrgetter(*_FIELDS)
"""A record's fields in constructor order."""
