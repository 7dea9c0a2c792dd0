"""Unit tests for repro.core.types: records, traces, derived quantities."""

from __future__ import annotations

import dataclasses
import inspect
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.allocators.equipartition import DynamicEquiPartitioning
from repro.core.abg import AControl
from repro.core.columnar import TraceColumns
from repro.core.quantum_policy import AdaptiveQuantumLength
from repro.core.types import (
    JobTrace,
    QuantumRecord,
    integer_request,
    quantum_records_from_columns,
    transition_factor_of_series,
)
from repro.engine.base import QuantumExecution
from repro.engine.phased import PhasedJob
from repro.io.traces import load_trace, save_trace
from repro.sim.jobs import JobSpec
from repro.sim.multi import simulate_job_set
from repro.sim.single import simulate_job
from repro.workloads.forkjoin import constant_parallelism_job

from conftest import make_record, make_trace as _trace_with


# ---------------------------------------------------------------------------
# integer_request
# ---------------------------------------------------------------------------


class TestIntegerRequest:
    def test_exact_integer_stays(self):
        assert integer_request(5.0) == 5

    def test_fraction_rounds_up(self):
        assert integer_request(4.2) == 5

    def test_minimum_is_one(self):
        assert integer_request(0.0) == 1
        assert integer_request(0.3) == 1

    def test_float_noise_above_integer_is_absorbed(self):
        assert integer_request(5.0 + 1e-12) == 5

    def test_genuine_excess_rounds_up(self):
        assert integer_request(5.001) == 6

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            integer_request(float("nan"))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            integer_request(-1.0)

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_always_at_least_one_and_covers_request(self, d):
        n = integer_request(d)
        assert n >= 1
        assert n >= d - 1e-6  # the integer request covers the real target
        assert n <= max(1, math.ceil(d))


# ---------------------------------------------------------------------------
# QuantumRecord
# ---------------------------------------------------------------------------


class TestQuantumRecordValidation:
    def test_valid_record_constructs(self):
        rec = make_record()
        assert rec.index == 1

    def test_index_must_start_at_one(self):
        with pytest.raises(ValueError):
            make_record(index=0)

    def test_allotment_cannot_exceed_availability(self):
        with pytest.raises(ValueError):
            make_record(available=2, allotment=3, request=5.0, work=0, span=0, steps=0)

    def test_allocator_is_conservative(self):
        with pytest.raises(ValueError):
            make_record(request=2.0, request_int=2, allotment=3, work=0, span=0, steps=0)

    def test_steps_cannot_exceed_quantum_length(self):
        with pytest.raises(ValueError):
            make_record(steps=1001, quantum_length=1000)

    def test_work_cannot_exceed_capacity(self):
        with pytest.raises(ValueError):
            make_record(work=5000, allotment=4, steps=1000)

    def test_span_cannot_exceed_work(self):
        with pytest.raises(ValueError):
            make_record(work=10, span=11.0, steps=1000)

    def test_negative_span_rejected(self):
        with pytest.raises(ValueError):
            make_record(span=-0.5)


class TestQuantumRecordDerived:
    def test_avg_parallelism(self):
        rec = make_record(work=1200, span=240.0)
        assert rec.avg_parallelism == pytest.approx(5.0)

    def test_avg_parallelism_empty_quantum(self):
        rec = make_record(work=0, span=0.0, steps=0)
        assert rec.avg_parallelism == 0.0

    def test_waste(self):
        rec = make_record(allotment=4, steps=1000, work=3500)
        assert rec.waste == 500

    def test_zero_waste_when_fully_used(self):
        rec = make_record(allotment=4, steps=1000, work=4000)
        assert rec.waste == 0

    def test_is_full(self):
        assert make_record(steps=1000, quantum_length=1000).is_full
        assert not make_record(steps=999, quantum_length=1000, work=100, span=50).is_full

    def test_deprived_and_satisfied(self):
        deprived = make_record(request=10.0, request_int=10, available=4, allotment=4)
        assert deprived.deprived and not deprived.satisfied
        satisfied = make_record(request=4.0)
        assert satisfied.satisfied and not satisfied.deprived

    def test_work_efficiency(self):
        rec = make_record(allotment=4, steps=1000, work=3000)
        assert rec.work_efficiency == pytest.approx(0.75)
        assert rec.utilization == pytest.approx(0.75)

    def test_span_efficiency(self):
        rec = make_record(span=800.0, steps=1000)
        assert rec.span_efficiency == pytest.approx(0.8)

    def test_efficiencies_of_empty_quantum_are_zero(self):
        rec = make_record(work=0, span=0.0, steps=0)
        assert rec.work_efficiency == 0.0
        assert rec.span_efficiency == 0.0


_RECORD = dict(
    index=2,
    request=3.5,
    request_int=4,
    available=128,
    allotment=4,
    work=4000,
    span=100.0,
    steps=1000,
    quantum_length=1000,
    start_step=1000,
)
_EXECUTION = dict(work=40, span=10.0, steps=10, finished=False)


class TestValueObjectContract:
    """``QuantumRecord`` and ``QuantumExecution`` are frozen slots
    dataclasses with hand-written constructors: each invariant raises its
    exact message, in order, and the dataclass protocol is unchanged."""

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"index": 0}, "quantum index starts at 1"),
            ({"index": 0, "steps": -1}, "quantum index starts at 1"),
            ({"allotment": -1}, "negative processors"),
            ({"available": -1}, "negative processors"),
            ({"available": 3}, "allotment exceeds availability"),
            ({"available": 3, "request_int": 3}, "allotment exceeds availability"),
            ({"request_int": 3}, "allocator is conservative: a(q) <= ceil(d(q))"),
            ({"steps": -1}, "quantum steps outside [0, L]"),
            ({"steps": 1001}, "quantum steps outside [0, L]"),
            ({"steps": 1001, "work": -1}, "quantum steps outside [0, L]"),
            ({"work": -1}, "quantum work outside [0, a(q) * steps]"),
            ({"work": 4001}, "quantum work outside [0, a(q) * steps]"),
            ({"work": 4001, "span": -1.0}, "quantum work outside [0, a(q) * steps]"),
            ({"span": -0.5}, "quantum span outside [0, work]"),
            ({"span": 4000.1}, "quantum span outside [0, work]"),
        ],
    )
    def test_record_invariant_messages(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            QuantumRecord(**{**_RECORD, **overrides})

    @pytest.mark.parametrize(
        "overrides", [{"steps": -1}, {"work": -1}, {"span": -1e-11}]
    )
    def test_execution_invariant_message(self, overrides):
        with pytest.raises(ValueError, match="^negative quantum execution quantities$"):
            QuantumExecution(**{**_EXECUTION, **overrides})

    def test_execution_tolerates_float_noise_below_zero_span(self):
        assert QuantumExecution(**{**_EXECUTION, "span": -1e-13}).span == -1e-13

    @pytest.mark.parametrize(
        "cls, values", [(QuantumRecord, _RECORD), (QuantumExecution, _EXECUTION)]
    )
    def test_dataclass_protocol(self, cls, values):
        obj = cls(**values)
        assert obj == cls(*values.values())
        names = [f.name for f in dataclasses.fields(cls)]
        assert names == list(values) == list(inspect.signature(cls).parameters)
        assert dataclasses.asdict(obj) == values
        assert repr(obj) == f"{cls.__name__}(" + ", ".join(
            f"{k}={v!r}" for k, v in values.items()
        ) + ")"
        assert not hasattr(obj, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.work = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del obj.work
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(obj, protocol))
            assert type(copy) is cls and copy == obj
        assert hash(obj) == hash(cls(**values))
        changed = dataclasses.replace(obj, work=0, span=0.0)
        assert changed != obj and changed == cls(**{**values, "work": 0, "span": 0.0})
        assert obj != tuple(values.values())

    def test_replace_revalidates(self):
        with pytest.raises(ValueError, match="^quantum index starts at 1$"):
            dataclasses.replace(QuantumRecord(**_RECORD), index=0)
        with pytest.raises(ValueError, match="^negative quantum execution quantities$"):
            dataclasses.replace(QuantumExecution(**_EXECUTION), steps=-1)

    def test_start_step_defaults_to_zero(self):
        values = {k: v for k, v in _RECORD.items() if k != "start_step"}
        assert QuantumRecord(**values).start_step == 0


# ---------------------------------------------------------------------------
# quantum_records_from_columns
# ---------------------------------------------------------------------------


def _columns(n=4, **overrides):
    """Aligned valid columns for n records (kwargs patch one column)."""
    import numpy as np

    cols = dict(
        index=list(range(1, n + 1)),
        request=np.full(n, 4.0),
        request_int=np.full(n, 4, dtype=np.int64),
        available=np.full(n, 128, dtype=np.int64),
        allotment=np.full(n, 4, dtype=np.int64),
        work=np.full(n, 4000, dtype=np.int64),
        span=np.full(n, 100.0),
        steps=np.full(n, 1000, dtype=np.int64),
        quantum_length=1000,
        start_step=0,
    )
    cols.update(overrides)
    return cols


class TestQuantumRecordsFromColumns:
    def test_equals_scalar_constructor(self):
        cols = _columns()
        recs = quantum_records_from_columns(**cols)
        scalar = [
            QuantumRecord(
                index=i + 1,
                request=4.0,
                request_int=4,
                available=128,
                allotment=4,
                work=4000,
                span=100.0,
                steps=1000,
                quantum_length=1000,
                start_step=0,
            )
            for i in range(4)
        ]
        assert recs == scalar
        assert all(s == r for s, r in zip(scalar, recs))  # both directions

    def test_fields_are_plain_python_scalars(self):
        rec = quantum_records_from_columns(**_columns())[0]
        assert type(rec.work) is int and type(rec.span) is float
        assert type(rec.allotment) is int

    def test_derived_properties_work(self):
        rec = quantum_records_from_columns(**_columns())[1]
        assert rec.waste == 0
        assert rec.is_full and rec.satisfied

    def test_hash_and_pickle_roundtrip(self):
        import pickle

        rec = quantum_records_from_columns(**_columns())[0]
        twin = make_record(request=4.0, available=128, allotment=4, steps=1000)
        assert hash(rec) == hash(twin)
        assert pickle.loads(pickle.dumps(rec)) == rec

    def test_builds_a_trace_through_columns(self):
        recs = quantum_records_from_columns(**_columns(3))
        trace = _trace_with(recs)
        assert len(trace) == 3
        assert trace.records == tuple(recs)

    def test_invalid_row_raises_scalar_error(self):
        """A violating row falls back to the scalar constructor and raises
        exactly its message, in row order."""
        import numpy as np

        work = np.full(4, 4000, dtype=np.int64)
        work[2] = 99999  # work > allotment * steps on row 2
        with pytest.raises(ValueError) as batch_err:
            quantum_records_from_columns(**_columns(work=work))
        with pytest.raises(ValueError) as scalar_err:
            make_record(index=3, request=4.0, allotment=4, work=99999, steps=1000)
        assert str(batch_err.value) == str(scalar_err.value)

    def test_bad_index_raises_scalar_error(self):
        with pytest.raises(ValueError, match="quantum index starts at 1"):
            quantum_records_from_columns(**_columns(index=[0, 1, 2, 3]))

    def test_empty_columns(self):
        assert quantum_records_from_columns(**_columns(0)) == []


# ---------------------------------------------------------------------------
# JobTrace
# ---------------------------------------------------------------------------


@pytest.fixture
def no_records(monkeypatch):
    """Make any build of record objects from columns fail the test."""

    def refuse(cols):
        raise AssertionError("records were built")

    monkeypatch.setattr(TraceColumns, "build_records", refuse)


class TestJobTrace:
    def test_from_records_enforces_order(self):
        with pytest.raises(ValueError, match="^quantum records must be appended in order$"):
            TraceColumns.from_records([make_record(index=1), make_record(index=3)])
        with pytest.raises(ValueError, match="^quantum records must be appended in order$"):
            TraceColumns.from_records([make_record(index=1), make_record(index=1)])

    def test_first_record_must_be_quantum_one(self):
        with pytest.raises(ValueError, match="^first quantum record must have index 1$"):
            TraceColumns.from_records([make_record(index=2), make_record(index=3)])

    def test_records_are_a_cached_read_only_tuple(self):
        trace = _trace_with([make_record(index=1), make_record(index=2)])
        recs = trace.records
        assert isinstance(recs, tuple) and trace.records is recs
        with pytest.raises(AttributeError):
            trace.records = []

    def test_eq_and_repr_build_no_records(self, no_records):
        a = _trace_with([make_record(index=1, span=0.0), make_record(index=2)])
        b = _trace_with([make_record(index=1, span=-0.0), make_record(index=2)])
        assert a == b  # -0.0 == 0.0, as record == says
        assert a != _trace_with([make_record(index=1, span=1.0), make_record(index=2)])
        assert a != _trace_with([make_record(index=1, span=0.0)])
        assert a != _trace_with([make_record(index=1, span=0.0), make_record(index=2)], 500)
        assert repr(a) == (
            "JobTrace(quantum_length=1000, quanta=2, release_time=0, job_id=None)"
        )

    def test_fixed_length_is_stored_once(self):
        trace = simulate_job(constant_parallelism_job(4, 4000), AControl(0.2), 16, quantum_length=100)
        assert trace.columns.quantum_length.shape == ()
        assert trace.columns.steps.size > 1

    def test_one_based_indexing(self):
        trace = _trace_with([make_record(index=1), make_record(index=2)])
        assert trace[1].index == 1
        assert trace[2].index == 2
        with pytest.raises(IndexError):
            trace[0]

    def test_len_and_iter(self):
        trace = _trace_with([make_record(index=1), make_record(index=2)])
        assert len(trace) == 2
        assert [r.index for r in trace] == [1, 2]

    def test_running_time_sums_steps(self):
        trace = _trace_with(
            [make_record(index=1, steps=1000), make_record(index=2, steps=400, work=100, span=50)]
        )
        assert trace.running_time == 1400

    def test_completion_and_response_time(self):
        trace = _trace_with(
            [
                make_record(index=1, start_step=1000),
                make_record(index=2, start_step=2000, steps=300, work=100, span=50),
            ],
            release_time=500,
        )
        assert trace.completion_time == 1000 + 1000 + 300
        assert trace.response_time == 2300 - 500

    def test_totals(self):
        trace = _trace_with(
            [
                make_record(index=1, work=4000, span=100.0),
                make_record(index=2, work=2000, span=50.0, allotment=4, steps=1000),
            ]
        )
        assert trace.total_work == 6000
        assert trace.total_span == pytest.approx(150.0)
        assert trace.total_waste == (4000 - 4000) + (4000 - 2000)

    def test_full_quanta_excludes_short_last(self):
        trace = _trace_with(
            [make_record(index=1), make_record(index=2, steps=10, work=5, span=2)]
        )
        assert [r.index for r in trace.full_quanta] == [1]

    def test_measured_transition_factor_includes_a0(self):
        # single full quantum at parallelism 5 => CL = 5 (vs A(0)=1)
        trace = _trace_with(
            [make_record(index=1, request=5.0, work=5000, span=1000.0, allotment=5)]
        )
        assert trace.measured_transition_factor() == pytest.approx(5.0)

    def test_reallocation_count(self):
        trace = _trace_with(
            [
                make_record(index=1, allotment=2, request=2.0),
                make_record(index=2, allotment=4, request=4.0),
                make_record(index=3, allotment=4, request=4.0),
                make_record(index=4, allotment=1, request=1.0),
            ]
        )
        assert trace.reallocation_count == 2

    def test_avg_allotment_time_weighted(self):
        trace = _trace_with(
            [
                make_record(index=1, allotment=2, request=2.0, steps=1000, work=2000),
                make_record(
                    index=2, allotment=4, request=4.0, steps=500, work=2000, span=100.0
                ),
            ]
        )
        assert trace.avg_allotment == pytest.approx((2 * 1000 + 4 * 500) / 1500)

    def test_avg_allotment_empty(self):
        assert JobTrace(quantum_length=10).avg_allotment == 0.0


class TestTraceColumnsLayout:
    """Every trace stores its fields as the rows of two blocks."""

    FIELDS = ("index", "request", "request_int", "available", "allotment",
              "work", "span", "steps", "start_step")

    def assert_row_views(self, cols):
        assert cols.ints.shape == (7, len(cols)) and cols.ints.dtype == np.int64
        assert cols.floats.shape == (2, len(cols)) and cols.floats.dtype == np.float64
        for name in self.FIELDS:
            row = getattr(cols, name)
            assert row.ndim == 1 and row.size == len(cols)
            assert row.flags.c_contiguous
            block = cols.floats if name in ("request", "span") else cols.ints
            assert row.base is block or row.base is block.base
        with pytest.raises(AttributeError):
            cols.work = cols.work

    def test_from_records(self):
        trace = simulate_job(constant_parallelism_job(4, 4000), AControl(0.2), 16, quantum_length=100)
        self.assert_row_views(trace.columns)
        assert [r.work for r in trace.records] == trace.columns.work.tolist()

    def test_kernel_traces_share_the_runs_blocks(self):
        specs = [
            JobSpec(job=PhasedJob([(1, 20), (6, 30)]), feedback=AControl(0.2)),
            JobSpec(job=PhasedJob([(3, 40)]), feedback=AControl(0.2)),
            JobSpec(job=PhasedJob([(5, 25), (1, 5)]), feedback=AControl(0.2)),
        ]
        traces = simulate_job_set(specs, DynamicEquiPartitioning(), 8, quantum_length=7).traces
        reference = simulate_job_set(
            specs, DynamicEquiPartitioning(), 8, quantum_length=7, batch="off"
        ).traces
        assert traces == reference
        for trace in traces.values():
            self.assert_row_views(trace.columns)
        assert len({id(t.columns.ints.base) for t in traces.values()}) == 1
        assert len({id(t.columns.floats.base) for t in traces.values()}) == 1
        assert len({id(t.columns.quantum_length) for t in traces.values()}) == 1

    def test_adaptive_length_stays_per_row(self):
        trace = simulate_job(
            constant_parallelism_job(4, 4000),
            AControl(0.0),
            16,
            quantum_length=AdaptiveQuantumLength(100, min_length=50, max_length=400),
        )
        self.assert_row_views(trace.columns)
        assert trace.columns.quantum_length.shape == (len(trace),)


class TestAdaptiveQuantumLengthTrace:
    """``AdaptiveQuantumLength`` gives each quantum its own ``L``: the
    columns keep one length per row, and every reader uses the row's."""

    @pytest.fixture
    def trace(self):
        return simulate_job(
            constant_parallelism_job(4, 4000),
            AControl(0.0),
            16,
            quantum_length=AdaptiveQuantumLength(100, min_length=50, max_length=400),
        )

    def test_lengths_kept_per_row(self, trace):
        lengths = trace.columns.quantum_length.tolist()
        assert len(lengths) == len(trace) and len(set(lengths)) > 1
        assert [r.quantum_length for r in trace.records] == lengths

    def test_full_quanta_use_each_rows_length(self, trace):
        full = [r for r in trace.records if r.steps == r.quantum_length]
        assert any(r.quantum_length != trace.quantum_length for r in full)
        assert trace.full_quanta == full
        assert trace.avg_parallelism_series(full_only=True) == [
            r.avg_parallelism for r in full
        ]

    def test_save_load_round_trip_is_byte_identical(self, trace, tmp_path):
        first = save_trace(trace, tmp_path / "a.json")
        loaded = load_trace(first)
        assert loaded == trace
        second = save_trace(loaded, tmp_path / "b.json")
        assert first.read_bytes() == second.read_bytes()


# ---------------------------------------------------------------------------
# transition_factor_of_series
# ---------------------------------------------------------------------------


class TestTransitionFactorOfSeries:
    def test_constant_series_is_one(self):
        assert transition_factor_of_series([4.0, 4.0, 4.0]) == 1.0

    def test_upward_and_downward_ratios_count(self):
        assert transition_factor_of_series([1.0, 3.0]) == pytest.approx(3.0)
        assert transition_factor_of_series([3.0, 1.0]) == pytest.approx(3.0)

    def test_zero_entries_skipped(self):
        assert transition_factor_of_series([2.0, 0.0, 4.0]) == pytest.approx(2.0)

    def test_empty_series(self):
        assert transition_factor_of_series([]) == 1.0

    @given(st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=1, max_size=30))
    def test_always_at_least_one(self, series):
        assert transition_factor_of_series(series) >= 1.0

    @given(st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=2, max_size=30))
    def test_invariant_under_reversal(self, series):
        assert transition_factor_of_series(series) == pytest.approx(
            transition_factor_of_series(series[::-1])
        )

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=2, max_size=30),
        st.floats(min_value=0.1, max_value=10),
    )
    def test_scale_invariant(self, series, k):
        scaled = [k * x for x in series]
        assert transition_factor_of_series(scaled) == pytest.approx(
            transition_factor_of_series(series), rel=1e-9
        )
