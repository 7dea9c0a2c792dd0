"""Unit tests for trim analysis, transition factors, and theorem bounds."""

from __future__ import annotations

import pytest

from repro.analysis.bounds import (
    check_lemma2,
    lemma2_coefficients,
    theorem3_time_bound,
    theorem3_trim_steps,
    theorem4_waste_bound,
    theorem5_makespan_bound,
    theorem5_response_bound,
)
from repro.analysis.transition import (
    job_set_transition_factor,
    measured_transition_factor,
    parallelism_transitions,
)
from repro.analysis.trim import classify_quanta, trimmed_availability
from repro.core.abg import AControl
from repro.core.types import JobTrace
from repro.engine.phased import PhasedJob
from repro.sim.single import simulate_job

from conftest import make_record, make_trace as _trace


# ---------------------------------------------------------------------------
# Trim analysis
# ---------------------------------------------------------------------------


class TestClassifyQuanta:
    def test_accounted_needs_deprivation_and_low_allotment(self):
        # deprived (a < d) and a < A: accounted
        rec = make_record(
            request=8.0, request_int=8, allotment=4, work=4000, span=500.0
        )  # A = 8 > 4
        classes = classify_quanta(_trace([rec]))
        assert classes.counts == (1, 0, 0)

    def test_satisfied_is_deductible(self):
        rec = make_record(request=4.0, allotment=4, work=4000, span=500.0)
        classes = classify_quanta(_trace([rec]))
        assert classes.counts == (0, 1, 0)

    def test_deprived_but_enough_is_deductible(self):
        # a < d but a >= A
        rec = make_record(
            request=8.0, request_int=8, allotment=4, work=2000, span=1000.0
        )  # A = 2 <= 4
        classes = classify_quanta(_trace([rec]))
        assert classes.counts == (0, 1, 0)

    def test_non_full_last_quantum(self):
        full = make_record(index=1)
        short = make_record(index=2, steps=100, work=50, span=25.0)
        classes = classify_quanta(_trace([full, short]))
        assert classes.counts == (0, 1, 1)


class TestTrimmedAvailability:
    def _two_quanta(self):
        return _trace(
            [
                make_record(index=1, available=100, request=4.0),
                make_record(index=2, available=10, request=4.0),
            ]
        )

    def test_no_trim_is_weighted_mean(self):
        trace = self._two_quanta()
        assert trimmed_availability(trace, 0) == pytest.approx(55.0)

    def test_trim_removes_highest_first(self):
        trace = self._two_quanta()
        # trimming the full 1000 steps of the p=100 quantum leaves only p=10
        assert trimmed_availability(trace, 1000) == pytest.approx(10.0)

    def test_partial_trim(self):
        trace = self._two_quanta()
        # trim 500 steps: (100*500 + 10*1000) / 1500
        assert trimmed_availability(trace, 500) == pytest.approx((50000 + 10000) / 1500)

    def test_trim_everything_returns_zero(self):
        trace = self._two_quanta()
        assert trimmed_availability(trace, 999_999) == 0.0

    def test_negative_trim_rejected(self):
        with pytest.raises(ValueError):
            trimmed_availability(self._two_quanta(), -1)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            trimmed_availability(JobTrace(quantum_length=10), 0)

    def test_monotone_in_trim(self):
        trace = self._two_quanta()
        values = [trimmed_availability(trace, r) for r in (0, 200, 600, 1200, 1800)]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Transition factor
# ---------------------------------------------------------------------------


class TestTransitionFactor:
    def test_measured_on_trace(self):
        t = _trace(
            [
                make_record(index=1, request=2.0, allotment=2, work=2000, span=1000.0),
                make_record(index=2, request=2.0, allotment=2, work=2000, span=250.0),
            ]
        )  # A: 2 then 8
        assert measured_transition_factor(t) == pytest.approx(4.0)

    def test_job_set_max(self):
        t1 = _trace([make_record(index=1, request=2.0, allotment=2, work=2000, span=1000.0)])
        t2 = _trace([make_record(index=1, request=6.0, allotment=6, work=6000, span=1000.0)])
        assert job_set_transition_factor([t1, t2]) == pytest.approx(6.0)

    def test_job_set_empty(self):
        with pytest.raises(ValueError):
            job_set_transition_factor([])

    def test_parallelism_transitions_series(self):
        ts = parallelism_transitions([2.0, 8.0, 4.0])
        assert ts == [pytest.approx(2.0), pytest.approx(4.0), pytest.approx(2.0)]


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


class TestLemma2Coefficients:
    def test_values(self):
        low, high = lemma2_coefficients(2.0, 0.2)
        assert low == pytest.approx(0.8 / 1.8)
        assert high == pytest.approx(2.0 * 0.8 / 0.6)

    def test_rate_requirement(self):
        with pytest.raises(ValueError):
            lemma2_coefficients(5.0, 0.2)  # r >= 1/CL

    def test_cl_at_least_one(self):
        with pytest.raises(ValueError):
            lemma2_coefficients(0.5, 0.1)

    def test_zero_rate_degenerates(self):
        low, high = lemma2_coefficients(3.0, 0.0)
        assert low == pytest.approx(1 / 3)
        assert high == pytest.approx(3.0)


class TestLemma2OnTraces:
    def test_holds_on_simulated_abg(self):
        job = PhasedJob([(1, 2500), (3, 2500), (1, 2500), (3, 2500)])
        trace = simulate_job(job, AControl(0.2), 64, quantum_length=1000)
        report = check_lemma2(trace, 0.2)
        assert report.holds, report.violations


class TestTheorem3:
    def test_trim_steps_formula(self):
        # (CL + 1 - 2r)/(1-r) * Tinf + L
        assert theorem3_trim_steps(100.0, 50, 2.0, 0.2) == pytest.approx(
            (2.0 + 1 - 0.4) / 0.8 * 100 + 50
        )

    def test_bound_on_unconstrained_run(self):
        job = PhasedJob([(1, 2500), (4, 2500)])
        trace = simulate_job(job, AControl(0.2), 64, quantum_length=1000)
        report = theorem3_time_bound(trace, job.work, job.span, 0.2)
        assert report.holds

    def test_vacuous_when_everything_trimmed(self):
        job = PhasedJob([(1, 100)])
        trace = simulate_job(job, AControl(0.2), 4, quantum_length=10)
        report = theorem3_time_bound(
            trace, job.work, job.span, 0.2, transition_factor=50.0
        )
        assert report.bound == float("inf")
        assert report.holds


class TestTheorem4:
    def test_formula(self):
        w = theorem4_waste_bound(1000, 64, 100, 2.0, 0.2)
        assert w == pytest.approx(2.0 * 0.8 / 0.6 * 1000 + 6400)

    def test_rate_requirement(self):
        with pytest.raises(ValueError):
            theorem4_waste_bound(1000, 64, 100, 6.0, 0.2)

    def test_holds_on_simulated_run(self):
        job = PhasedJob([(1, 2500), (4, 2500)])
        trace = simulate_job(job, AControl(0.2), 64, quantum_length=1000)
        cl = trace.measured_transition_factor()
        bound = theorem4_waste_bound(job.work, 64, 1000, cl, 0.2)
        assert trace.total_waste <= bound


class TestTheorem5:
    def test_makespan_formula(self):
        c, r = 2.0, 0.2
        coeff = (c + 1 - 2 * c * r) / (1 - c * r) + (c + 1 - 2 * r) / (1 - r)
        assert theorem5_makespan_bound(100.0, 4, 50, c, r) == pytest.approx(
            coeff * 100 + 50 * 6
        )

    def test_response_formula(self):
        c, r = 2.0, 0.2
        coeff = (2 * c + 2 - 4 * c * r) / (1 - c * r) + (c + 1 - 2 * r) / (1 - r)
        assert theorem5_response_bound(100.0, 4, 50, c, r) == pytest.approx(
            coeff * 100 + 50 * 6
        )

    def test_rate_requirement(self):
        with pytest.raises(ValueError):
            theorem5_makespan_bound(100.0, 4, 50, 8.0, 0.2)
        with pytest.raises(ValueError):
            theorem5_response_bound(100.0, 4, 50, 8.0, 0.2)


class TestSpeedupReport:
    def _trace_and_job(self, availability):
        from repro.workloads.forkjoin import ramped_job

        job = ramped_job(32, levels_per_phase=600, peak_levels=6000)
        trace = simulate_job(job, AControl(0.2), availability, quantum_length=300)
        return job, trace

    def test_fields_consistent(self):
        from repro.analysis.speedup import speedup_report

        job, trace = self._trace_and_job(4)
        report = speedup_report(trace, job.work, job.span, 0.2)
        assert report.serial_time == job.work
        assert report.running_time == trace.running_time
        assert report.speedup == pytest.approx(job.work / trace.running_time)
        assert report.raw_availability == pytest.approx(4.0)

    def test_near_linear_when_deprived(self):
        from repro.analysis.speedup import speedup_report

        job, trace = self._trace_and_job(4)
        report = speedup_report(trace, job.work, job.span, 0.2)
        assert report.linearity_vs_trimmed > 0.8

    def test_adversary_hurts_raw_not_trimmed(self):
        from repro.allocators.availability import InverseParallelismAvailability
        from repro.analysis.speedup import speedup_report
        from repro.workloads.forkjoin import ramped_job

        job = ramped_job(32, levels_per_phase=600, peak_levels=6000)
        adversary = InverseParallelismAvailability(high=64, low=4, cutoff=2.0)
        trace = simulate_job(job, AControl(0.2), adversary, quantum_length=300)
        report = speedup_report(trace, job.work, job.span, 0.2)
        assert report.raw_availability > report.trimmed_availability
        assert report.linearity_vs_trimmed > report.linearity_vs_raw

    def test_validation(self):
        from repro.analysis.speedup import speedup_report

        job, trace = self._trace_and_job(4)
        with pytest.raises(ValueError):
            speedup_report(trace, 0, job.span, 0.2)


class TestTrimDemoDriver:
    def test_rows(self):
        from repro.experiments import run_trim_demo

        rows = run_trim_demo(peak_width=32, quantum_length=500)
        assert len(rows) == 3
        adversarial = next(r for r in rows if "adversarial" in r.availability)
        assert adversarial.linearity_vs_trimmed > adversarial.linearity_vs_raw
