"""Tests for the device scheduler's discrete-event simulation.

The invariants under test are the serving model's contract: sequential
segments within a query, SM co-residency by occupancy, processor sharing
(aggregate throughput conserved, never multiplied), cross-resource
overlap, and closed-loop arrivals.
"""

import pytest

from repro.engine.plan.physical import ExecutionReport, KernelExecution
from repro.gpusim.streaming import StreamTiming
from repro.gpusim.scheduler import (
    HOST,
    PCIE,
    SM,
    DeviceScheduler,
    Segment,
    percentile,
    segments_from_report,
)


def simulate(*streams):
    """Build a scheduler from per-session segment streams and run it."""
    scheduler = DeviceScheduler()
    for index, stream in enumerate(streams):
        for segments in stream:
            scheduler.submit(f"s{index}", segments)
    return scheduler.simulate()


class TestSegment:
    def test_rejects_unknown_resource(self):
        with pytest.raises(ValueError, match="unknown resource"):
            Segment("tensor-core", 1.0)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="duration"):
            Segment(SM, -0.5)

    def test_rejects_out_of_range_demand(self):
        with pytest.raises(ValueError, match="demand"):
            Segment(SM, 1.0, demand=0.0)
        with pytest.raises(ValueError, match="demand"):
            Segment(SM, 1.0, demand=1.5)


class TestPercentile:
    def test_endpoints_and_median(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)

    def test_interpolates(self):
        assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestSingleQuery:
    def test_makespan_is_sum_of_segments(self):
        result = simulate([[Segment(HOST, 1.0), Segment(PCIE, 2.0), Segment(SM, 3.0)]])
        assert result.makespan == pytest.approx(6.0)
        assert result.serialized_seconds == pytest.approx(6.0)
        assert result.overlap_speedup == pytest.approx(1.0)
        assert result.queries[0].latency == pytest.approx(6.0)
        assert result.queries[0].slowdown == pytest.approx(1.0)

    def test_zero_work_query_completes_instantly(self):
        result = simulate([[]])
        assert result.makespan == 0.0
        assert len(result.queries) == 1
        assert result.queries[0].latency == 0.0

    def test_busy_seconds_per_resource(self):
        result = simulate([[Segment(PCIE, 2.0), Segment(SM, 3.0)]])
        assert result.busy_seconds[PCIE] == pytest.approx(2.0)
        assert result.busy_seconds[SM] == pytest.approx(3.0)


class TestOverlap:
    def test_disjoint_resources_fully_overlap(self):
        # One query on the copy engine, one on the SMs: makespan is the max.
        result = simulate([[Segment(PCIE, 2.0)]], [[Segment(SM, 3.0)]])
        assert result.makespan == pytest.approx(3.0)
        assert result.serialized_seconds == pytest.approx(5.0)
        assert result.overlap_speedup == pytest.approx(5.0 / 3.0)

    def test_host_segments_overlap_each_other(self):
        result = simulate([[Segment(HOST, 2.0)]], [[Segment(HOST, 2.0)]])
        assert result.makespan == pytest.approx(2.0)

    def test_low_occupancy_kernels_are_co_resident(self):
        # Two 0.5-occupancy kernels fit on the SMs together: both run at
        # full rate, makespan is the max, not the sum.
        result = simulate(
            [[Segment(SM, 2.0, demand=0.5)]], [[Segment(SM, 2.0, demand=0.5)]]
        )
        assert result.makespan == pytest.approx(2.0)
        assert result.overlap_speedup == pytest.approx(2.0)

    def test_full_demand_kernels_processor_share(self):
        # Two demand-1.0 kernels oversubscribe the SMs: each progresses at
        # half rate, so the makespan equals full serialization -- aggregate
        # SM throughput is conserved, never multiplied.
        result = simulate([[Segment(SM, 2.0)]], [[Segment(SM, 2.0)]])
        assert result.makespan == pytest.approx(4.0)
        assert result.overlap_speedup == pytest.approx(1.0)
        # Both queries were in flight the whole time.
        for query in result.queries:
            assert query.latency == pytest.approx(4.0)
            assert query.slowdown == pytest.approx(2.0)

    def test_oversubscribed_sm_busy_never_exceeds_capacity(self):
        result = simulate(
            [[Segment(SM, 1.0, demand=0.8)]], [[Segment(SM, 1.0, demand=0.8)]]
        )
        # demand 1.6 -> rate 1/1.6 each -> makespan 1.6, SM busy == makespan.
        assert result.makespan == pytest.approx(1.6)
        assert result.busy_seconds[SM] == pytest.approx(result.makespan)


class TestClosedLoop:
    def test_next_query_arrives_at_previous_finish(self):
        result = simulate([[Segment(SM, 1.0)], [Segment(SM, 1.0)]])
        first, second = result.queries
        assert first.index == 0 and second.index == 1
        assert first.finish == pytest.approx(1.0)
        assert second.arrival == pytest.approx(first.finish)
        assert second.finish == pytest.approx(2.0)

    def test_latency_includes_contention(self):
        # Session 0 runs two back-to-back SM queries; session 1's single SM
        # query shares the array the whole time.
        result = simulate(
            [[Segment(SM, 1.0)], [Segment(SM, 1.0)]], [[Segment(SM, 2.0)]]
        )
        assert result.makespan == pytest.approx(4.0)
        contended = [q for q in result.queries if q.session == "s1"][0]
        assert contended.latency == pytest.approx(4.0)
        assert contended.slowdown == pytest.approx(2.0)

    def test_throughput_counts_all_queries(self):
        result = simulate([[Segment(SM, 1.0)], [Segment(SM, 1.0)]])
        assert result.throughput_qps == pytest.approx(2.0 / result.makespan)


class TestSegmentsFromReport:
    def _report(self):
        return ExecutionReport(
            scan_seconds=0.1,
            pcie_seconds=0.2,
            compile_seconds=0.3,
            kernel_seconds=0.5,
            filter_seconds=0.05,
            aggregate_seconds=0.07,
            sort_seconds=0.0,
            pipeline_seconds=0.04,
            kernel_executions=[
                KernelExecution(
                    name="calc_expr_0",
                    streamed=True,
                    timing=StreamTiming(4, 0.01, 0.1),
                    occupancy=0.5,
                )
            ],
        )

    def test_resource_attribution(self):
        segments = segments_from_report(self._report())
        by_label = {segment.label: segment for segment in segments}
        assert by_label["scan"].resource == HOST
        assert by_label["compile"].resource == HOST
        assert by_label["pipeline"].resource == HOST
        assert by_label["pcie"].resource == PCIE
        assert by_label["filter"].resource == SM
        assert by_label["aggregate"].resource == SM
        # sort_seconds == 0 -> no segment emitted for it.
        assert "sort" not in by_label

    def test_kernel_launch_demands_its_occupancy(self):
        segments = segments_from_report(self._report())
        launch = next(s for s in segments if s.label == "calc_expr_0")
        assert launch.resource == SM
        assert launch.demand == pytest.approx(0.5)
        assert launch.seconds == pytest.approx(0.4)  # 4 chunks x 0.1 s
        # Kernel time not covered by launch records demands the full array.
        rest = next(s for s in segments if s.label == "kernel-rest")
        assert rest.seconds == pytest.approx(0.1)
        assert rest.demand == pytest.approx(1.0)

    def test_total_charged_time_preserved(self):
        report = self._report()
        segments = segments_from_report(report)
        assert sum(s.seconds for s in segments) == pytest.approx(report.total_seconds)


class TestScheduler:
    def test_submission_order_across_sessions_is_irrelevant(self):
        a = DeviceScheduler()
        a.submit("x", [Segment(SM, 1.0)])
        a.submit("y", [Segment(SM, 2.0)])
        b = DeviceScheduler()
        b.submit("y", [Segment(SM, 2.0)])
        b.submit("x", [Segment(SM, 1.0)])
        ra, rb = a.simulate(), b.simulate()
        assert ra.makespan == pytest.approx(rb.makespan)
        assert [q.latency for q in ra.queries] == pytest.approx(
            [q.latency for q in rb.queries]
        )

    def test_submission_order_leaves_no_float_trace(self):
        """Regression: sessions used to activate in first-submission order,
        so the float sums (serialized seconds, busy time) depended on which
        host thread finished first -- 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1."""
        seconds = {"a": 0.1, "b": 0.2, "c": 0.3}
        results = []
        for order in ("abc", "cba"):
            scheduler = DeviceScheduler()
            for session in order:
                scheduler.submit(session, [Segment(SM, seconds[session], demand=0.6)])
            results.append(scheduler.simulate())
        assert results[0] == results[1]

    def test_bookkeeping(self):
        scheduler = DeviceScheduler()
        scheduler.submit("x", [Segment(SM, 1.0)])
        scheduler.submit("x", [Segment(SM, 1.0)])
        scheduler.submit("y", [Segment(HOST, 1.0)])
        assert sorted(scheduler.sessions) == ["x", "y"]
        assert scheduler.total_queries == 3
        scheduler.clear()
        assert scheduler.total_queries == 0
        assert scheduler.simulate().makespan == 0.0

    def test_submit_report_round_trip(self):
        scheduler = DeviceScheduler()
        report = ExecutionReport(scan_seconds=0.5, kernel_seconds=1.5)
        scheduler.submit_report("x", report)
        result = scheduler.simulate()
        assert result.makespan == pytest.approx(report.total_seconds)
