"""The benchmark's metrics: names, units, and how each is computed.

End-to-end metrics come from untraced runs; per-layer metrics from the
traced run, normalised per read.  Host times are reference seconds (see
``clock.py``).  ``BENCHMARK.json`` lists exactly these names (a test
checks it).
"""

from __future__ import annotations

import resource
import statistics
from collections import defaultdict
from typing import Dict, List, Tuple

from tracer import OPERATORS

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("host_qps", "1/s"),
    ("host_p50_ms", "ms"),
    ("host_p95_ms", "ms"),
    ("sim_ms_per_query", "ms"),
    ("sim_qps", "1/s"),
    ("sim_p50_ms", "ms"),
    ("sim_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

_REPORT_CHARGES = ("compile", "kernel", "pcie", "scan", "filter", "aggregate", "sort", "pipeline")

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("session.ms", "ms"),
    ("sql.parse_ms", "ms"),
    ("rules.ms", "ms"),
    ("rules.fired_per_query", "count"),
    ("planner.ms", "ms"),
    ("executor.ms", "ms"),
    ("analysis.plan_ms", "ms"),
    ("jit.compiles_per_query", "count"),
    ("jit.analysis_compiles_per_query", "count"),
    ("jit.compile_ms", "ms"),
    ("jit.lookup_ms", "ms"),
    ("jit.cache_hit_ratio", "ratio"),
    *(
        (f"op.{short}.{part}", unit)
        for short in OPERATORS.values()
        for part, unit in (("ms", "ms"), ("rows_in", "count"), ("rows_out", "count"))
    ),
    ("op.hash_join.match_ratio", "ratio"),
    ("op.filter.selectivity", "ratio"),
    ("mt.aggregate_calls", "count"),
    ("mt.aggregate_ms", "ms"),
    ("decimal.expand_calls", "count"),
    ("decimal.expand_hit_ratio", "ratio"),
    ("decimal.expand_ms", "ms"),
    ("decimal.to_unscaled_calls", "count"),
    ("decimal.to_unscaled_ms", "ms"),
    ("gpusim.execute_calls", "count"),
    ("gpusim.execute_ms", "ms"),
    ("streaming.kernels", "count"),
    ("streaming.chunks_per_kernel", "count"),
    ("streaming.ms", "ms"),
    ("storage.encode_calls", "count"),
    ("storage.encode_ms", "ms"),
    ("storage.append_ms", "ms"),
    ("stats.collect_calls", "count"),
    ("stats.collect_ms", "ms"),
    ("stats.hit_ratio", "ratio"),
    ("cost.table_stats_ms", "ms"),
    ("storage.zone_skip_ratio", "ratio"),
    ("residency.hit_ratio", "ratio"),
    ("serving.queued_ms", "ms"),
    ("serving.rejected", "count"),
    ("serving.timed_out", "count"),
    ("scheduler.overlap_speedup", "ratio"),
    ("scheduler.sm_busy_frac", "ratio"),
    ("scheduler.pcie_busy_frac", "ratio"),
    *((f"sim.{charge}_ms", "ms") for charge in _REPORT_CHARGES),
    ("sim.pcie_mb", "MB"),
    ("sim.kernels_compiled", "count"),
    ("failed_frac", "ratio"),
    ("trace.spans_per_query", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

#: Host-clock per-layer metrics; every other per-layer metric (a count, a
#: ratio of counts, a simulated charge) must repeat exactly for a seed.
HOST_CLOCK = frozenset(
    name for name, unit in PER_LAYER if unit == "ms" and not name.startswith("sim.")
) | {"trace.coverage", "trace.overhead_frac"}


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def _hit_ratio(misses: float, lookups: float) -> float:
    """Share of lookups served without recomputing; 0 when there were none."""
    return 1.0 - misses / lookups if lookups else 0.0


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _good(run) -> list:
    return [entry for entry in run.served if entry.error is None]


def _kind_median_ms(good) -> float:
    """Each read kind's median host latency, geometric mean over the kinds.

    With one kind this is the plain median.  Where the kinds' latencies
    form separate clusters -- the five queries of ``tpch_olap``, the queue
    positions of ``serve_rw`` -- the median of all reads falls between two
    clusters, where it jumps with the host's speed; each kind's own median
    does not.
    """
    by_kind: Dict[str, List[float]] = defaultdict(list)
    for entry in good:
        by_kind[entry.read.kind].append(1e3 * entry.host_seconds)
    return statistics.geometric_mean(_percentile(values, 50) for values in by_kind.values())


def simulated(run) -> Dict[str, float]:
    """The simulated-clock metrics (exactly repeatable for a seed)."""
    good = _good(run)
    schedule = run.schedule
    return {
        "sim_ms_per_query": 1e3 * statistics.fmean(e.report.total_seconds for e in good),
        "sim_qps": schedule.throughput_qps,
        "sim_p50_ms": 1e3 * schedule.latency_percentile(50),
        "sim_p95_ms": 1e3 * schedule.latency_percentile(95),
    }


def end_to_end(run) -> Dict[str, float]:
    good = _good(run)
    host = [1e3 * entry.host_seconds for entry in good]
    return {
        "setup_s": statistics.median(run.setup_seconds),
        "host_qps": len(host) / run.reference_seconds,
        "host_p50_ms": _kind_median_ms(good),
        "host_p95_ms": _percentile(host, 95),
        **simulated(run),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run, tracer, failed: int, attempted: int, untraced_qps: float) -> Dict[str, float]:
    """Per-read layer metrics from the traced run's spans and counts."""
    reads = len(run.served)
    # Spans measure wall time; the run's own ratio turns it into reference time.
    to_reference = _ratio(run.reference_seconds, run.timed_seconds)
    names = {}
    calls: Dict[str, int] = defaultdict(int)
    self_ms: Dict[str, float] = defaultdict(float)
    for span_id, _parent, _request, name, _start, _end, self_seconds in tracer.spans:
        names[span_id] = name
        calls[name] += 1
        self_ms[name] += 1e3 * self_seconds * to_reference
    under = defaultdict(int)  # (parent name, child name) -> spans
    for _id, parent, _request, name, *_ in tracer.spans:
        if parent:
            under[(names[parent], name)] += 1
    counts = tracer.counts

    def per_read(value: float) -> float:
        return _ratio(value, reads)

    metrics = {
        "session.ms": per_read(self_ms["session.execute"]),
        "sql.parse_ms": per_read(self_ms["sql.parse"]),
        "rules.ms": per_read(self_ms["rules.apply"]),
        "rules.fired_per_query": per_read(counts["rules.fired"]),
        "planner.ms": per_read(self_ms["planner.plan"]),
        "executor.ms": per_read(self_ms["executor.run_plan"]),
        "analysis.plan_ms": per_read(self_ms["analysis.plan"]),
        "jit.compiles_per_query": per_read(calls["jit.compile"]),
        "jit.analysis_compiles_per_query": per_read(counts["jit.misses.analysis"]),
        "jit.compile_ms": per_read(self_ms["jit.compile"]),
        "jit.lookup_ms": per_read(self_ms["jit.lookup"]),
        "jit.cache_hit_ratio": _ratio(
            counts["jit.hits.session"] + counts["jit.hits.analysis"], calls["jit.lookup"]
        ),
    }
    for short in OPERATORS.values():
        metrics[f"op.{short}.ms"] = per_read(self_ms[f"op.{short}"])
        for part in ("rows_in", "rows_out"):
            metrics[f"op.{short}.{part}"] = per_read(counts[f"op.{short}.{part}"])
    for short, name in (("hash_join", "match_ratio"), ("filter", "selectivity")):
        metrics[f"op.{short}.{name}"] = _ratio(
            counts[f"op.{short}.rows_out"], counts[f"op.{short}.rows_in"]
        )
    streamed = calls["streaming.execute_streamed"]
    reports = [entry.report for entry in _good(run)]
    zone_total = sum(report.zone_chunks_total for report in reports)
    run_counts = run.counters
    metrics.update(
        {
            "mt.aggregate_calls": per_read(calls["mt.aggregate"]),
            "mt.aggregate_ms": per_read(self_ms["mt.aggregate"]),
            "decimal.expand_calls": per_read(calls["decimal.from_compact"]),
            "decimal.expand_hit_ratio": _hit_ratio(
                under[("decimal.vector", "decimal.from_compact")], calls["decimal.vector"]
            ),
            "decimal.expand_ms": per_read(self_ms["decimal.from_compact"] + self_ms["decimal.vector"]),
            "decimal.to_unscaled_calls": per_read(calls["decimal.to_unscaled"]),
            "decimal.to_unscaled_ms": per_read(self_ms["decimal.to_unscaled"]),
            "gpusim.execute_calls": per_read(calls["gpusim.execute"]),
            "gpusim.execute_ms": per_read(self_ms["gpusim.execute"]),
            "streaming.kernels": per_read(streamed),
            "streaming.chunks_per_kernel": _ratio(
                under[("streaming.execute_streamed", "gpusim.execute")], streamed
            ),
            "streaming.ms": per_read(self_ms["streaming.execute_streamed"]),
            "storage.encode_calls": per_read(counts["storage.encode_calls"]),
            "storage.encode_ms": per_read(self_ms["storage.encoding"]),
            "storage.append_ms": per_read(self_ms["storage.append"]),
            "stats.collect_calls": per_read(calls["stats.collect"]),
            "stats.collect_ms": per_read(self_ms["stats.collect"] + self_ms["stats.lookup"]),
            "stats.hit_ratio": _hit_ratio(calls["stats.collect"], calls["stats.lookup"]),
            "cost.table_stats_ms": per_read(self_ms["cost.table_stats"]),
            "storage.zone_skip_ratio": _ratio(
                sum(report.zone_chunks_skipped for report in reports), zone_total
            ),
            "residency.hit_ratio": _ratio(
                run_counts.get("residency.hits", 0),
                run_counts.get("residency.hits", 0) + run_counts.get("residency.misses", 0),
            ),
            "serving.queued_ms": per_read(
                1e3 * sum(entry.queued_seconds for entry in run.served)
            ),
            "serving.rejected": run_counts.get("serving.rejected", 0),
            "serving.timed_out": run_counts.get("serving.timed_out", 0),
        }
    )
    schedule = run.schedule
    metrics["scheduler.overlap_speedup"] = schedule.overlap_speedup
    for resource_name in ("sm", "pcie"):
        busy = schedule.busy_seconds.get(resource_name, 0.0)
        metrics[f"scheduler.{resource_name}_busy_frac"] = _ratio(busy, schedule.makespan)
    for charge in _REPORT_CHARGES:
        metrics[f"sim.{charge}_ms"] = 1e3 * statistics.fmean(
            getattr(report, f"{charge}_seconds") for report in reports
        )
    metrics["sim.pcie_mb"] = statistics.fmean(report.pcie_bytes for report in reports) / 1e6
    metrics["sim.kernels_compiled"] = statistics.fmean(
        report.kernels_compiled for report in reports
    )
    covered = sum(span[-1] for span in tracer.spans)
    traced_qps = len(reports) / run.reference_seconds
    metrics.update(
        {
            "failed_frac": _ratio(failed, attempted),
            "trace.spans_per_query": per_read(len(tracer.spans)),
            "trace.coverage": _ratio(covered, run.timed_seconds),
            "trace.overhead_frac": 1.0 - traced_qps / untraced_qps,
        }
    )
    return metrics
