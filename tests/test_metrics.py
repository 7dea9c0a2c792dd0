"""Unit tests for set-level metrics and lower bounds."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import (
    job_set_load,
    makespan,
    makespan_lower_bound,
    mean_response_time,
    mean_response_time_lower_bound,
)
from repro.sim.results import geometric_mean, summarize

from conftest import make_record, make_trace


def trace_completing_at(t_complete, release=0):
    record = make_record(
        index=1,
        steps=t_complete,
        quantum_length=t_complete,
        work=t_complete,
        span=float(t_complete),
        allotment=1,
        request=1.0,
        start_step=release,
    )
    return make_trace([record], t_complete, release_time=release)


class TestMakespanAndResponse:
    def test_makespan_is_max_completion(self):
        traces = [trace_completing_at(50), trace_completing_at(80)]
        assert makespan(traces) == 80

    def test_mean_response(self):
        traces = [trace_completing_at(50), trace_completing_at(80)]
        assert mean_response_time(traces) == pytest.approx(65.0)

    def test_response_subtracts_release(self):
        traces = [trace_completing_at(50, release=20)]
        assert mean_response_time(traces) == pytest.approx(50.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            makespan([])
        with pytest.raises(ValueError):
            mean_response_time([])


class TestMakespanLowerBound:
    def test_throughput_bound(self):
        # 1000 total work on 10 procs => at least 100
        assert makespan_lower_bound([600, 400], [10, 10], [0, 0], 10) == 100.0

    def test_critical_path_bound(self):
        assert makespan_lower_bound([10, 10], [500, 10], [0, 0], 10) == 500.0

    def test_release_shifts_critical_path(self):
        assert makespan_lower_bound([10], [50], [100], 10) == 150.0

    def test_validation(self):
        with pytest.raises(ValueError):
            makespan_lower_bound([], [], [], 4)
        with pytest.raises(ValueError):
            makespan_lower_bound([1], [1], [0], 0)
        with pytest.raises(ValueError):
            makespan_lower_bound([1, 2], [1], [0], 4)


class TestResponseLowerBound:
    def test_mean_span_bound(self):
        assert mean_response_time_lower_bound([1, 1], [100, 200], 64) == 150.0

    def test_squashed_area_bound(self):
        # works 100 and 300 on 2 procs: squashed = (2*100 + 1*300)/2 = 250
        # R* = max(mean span, 250/2) = 125
        assert mean_response_time_lower_bound([300, 100], [1, 1], 2) == pytest.approx(125.0)

    def test_sorted_ascending_matters(self):
        # shortest-first ordering defines the bound; input order must not
        a = mean_response_time_lower_bound([300, 100], [1, 1], 2)
        b = mean_response_time_lower_bound([100, 300], [1, 1], 2)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            mean_response_time_lower_bound([], [], 4)
        with pytest.raises(ValueError):
            mean_response_time_lower_bound([1], [1], 0)

    @given(
        st.lists(st.integers(1, 10_000), min_size=1, max_size=20),
        st.integers(1, 128),
    )
    @settings(max_examples=100, deadline=None)
    def test_bound_below_serial_execution(self, works, p):
        """Any real schedule's mean response exceeds the bound; the trivial
        shortest-first serial schedule on P procs gives an upper sanity."""
        spans = [1] * len(works)
        bound = mean_response_time_lower_bound(works, spans, p)
        works_sorted = sorted(works)
        # completion under perfect SJF squashing, floored by each job's span
        completions = []
        acc = 0
        for w in works_sorted:
            acc += w
            completions.append(max(1.0, acc / p))
        sjf_mean = sum(completions) / len(completions)
        assert bound <= sjf_mean + 1e-9


class TestLoad:
    def test_load_definition(self):
        # parallelism 20 + 12 = 32 over 128 procs
        assert job_set_load([2000, 1200], [100, 100], 128) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            job_set_load([], [], 4)


class TestResultsHelpers:
    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.minimum == 1.0 and s.maximum == 3.0
        assert s.count == 3

    def test_summarize_single(self):
        assert summarize([4.0]).std == 0.0

    def test_summarize_empty(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_str_of_stats(self):
        assert "n=3" in str(summarize([1.0, 2.0, 3.0]))
