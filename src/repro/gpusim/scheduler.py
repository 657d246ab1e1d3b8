"""Device scheduler: interleave kernels from concurrent queries on one GPU.

The engine's timing model charges each query as if it owned the device.
With many sessions in flight that is wrong twice over: independent kernels
can be *co-resident* on the SMs whenever their combined occupancy fits
(the same register-file arithmetic :mod:`repro.gpusim.occupancy` models for
a single kernel), and PCIe copies of one query overlap compute of another
(the copy and compute engines are distinct hardware units).

This module models a shared device as three resources:

``sm``
    The SM array.  A kernel segment demands its occupancy fraction; the
    set of running segments progresses at full rate while total demand
    stays <= 1.0 and degrades proportionally once oversubscribed
    (processor sharing -- aggregate SM throughput is conserved, never
    multiplied).
``pcie``
    The copy engine.  Transfers demand the full bus, so concurrent
    transfers share bandwidth equally but overlap freely with ``sm`` and
    ``host`` work of other queries.
``host``
    CPU-side work (disk scan, JIT compilation, operator pipeline
    overhead).  Sessions are independent OS threads, so host segments
    overlap each other and everything else.

:class:`DeviceScheduler` runs a deterministic event-driven simulation of a
*closed* serving loop: each session executes its queries in order, a
query's segments run sequentially, and a session's next query arrives the
instant its previous one finishes.  The result attributes overlapped
simulated time -- per-query latency (arrival to finish under contention),
makespan, and queries/sec -- instead of serializing whole queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: Resource identifiers a :class:`Segment` may run on.
SM = "sm"
PCIE = "pcie"
HOST = "host"

_CAPACITY_SHARED = (SM, PCIE)  # capacity-1.0 processor-sharing resources

#: Numerical slack for "this segment is finished" comparisons.
_EPS = 1e-12


@dataclass(frozen=True)
class Segment:
    """One sequential slice of a query's simulated work.

    ``seconds`` is the duration the single-query timing model charged --
    i.e. the time at full progress rate.  ``demand`` is the fraction of
    the resource the segment occupies while running: a kernel's SM demand
    is its occupancy (two 0.5-occupancy kernels are co-resident at full
    speed), transfers and un-attributed device passes demand 1.0, host
    segments overlap freely regardless of demand.
    """

    resource: str
    seconds: float
    demand: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.resource not in (SM, PCIE, HOST):
            raise ValueError(f"unknown resource {self.resource!r}")
        if self.seconds < 0 or math.isnan(self.seconds):
            raise ValueError(f"segment duration must be >= 0, got {self.seconds}")
        if not 0.0 < self.demand <= 1.0:
            raise ValueError(f"segment demand must be in (0, 1], got {self.demand}")


def segments_from_report(report) -> List[Segment]:
    """Decompose one query's :class:`ExecutionReport` into scheduler segments.

    The attribution mirrors how the single-query model charged the time:
    disk scan and the operator pipeline run on the host, PCIe charges go
    to the copy engine, each recorded JIT kernel launch becomes an SM
    segment demanding its occupancy, and the remaining device passes
    (filter/aggregate/sort, which the report does not attribute to a
    specific kernel) conservatively demand the whole SM array.  Compile
    time is host work: NVRTC runs on the submitting session's thread.
    """
    segments: List[Segment] = []

    def _add(resource: str, seconds: float, demand: float = 1.0, label: str = "") -> None:
        if seconds > 0:
            segments.append(Segment(resource, seconds, demand, label))

    _add(HOST, report.scan_seconds, label="scan")
    _add(HOST, report.compile_seconds, label="compile")
    _add(PCIE, report.pcie_seconds, label="pcie")
    kernel_attributed = 0.0
    for entry in report.kernel_executions:
        seconds = entry.timing.kernel_seconds
        kernel_attributed += seconds
        _add(SM, seconds, demand=entry.occupancy, label=entry.name)
    # Kernel time the per-launch records did not cover (defensive: the two
    # totals agree today) plus the unattributed device passes.
    _add(SM, max(report.kernel_seconds - kernel_attributed, 0.0), label="kernel-rest")
    _add(SM, report.filter_seconds, label="filter")
    _add(SM, report.aggregate_seconds, label="aggregate")
    _add(SM, report.sort_seconds, label="sort")
    _add(HOST, report.pipeline_seconds, label="pipeline")
    return segments


@dataclass
class ScheduledQuery:
    """Simulated placement of one query under contention."""

    session: str
    index: int  # position in the session's stream
    arrival: float
    finish: float
    busy_seconds: float  # sum of segment durations (contention-free time)

    @property
    def latency(self) -> float:
        """Arrival-to-finish simulated seconds, including queueing."""
        return self.finish - self.arrival

    @property
    def slowdown(self) -> float:
        """Latency relative to running alone on an idle device."""
        if self.busy_seconds <= 0:
            return 1.0
        return self.latency / self.busy_seconds


@dataclass
class ScheduleResult:
    """Outcome of simulating a set of session query streams."""

    queries: List[ScheduledQuery]
    makespan: float
    #: Sum of every segment's duration: what one fully serialized device
    #: (the pre-serving engine behaviour) would have taken.
    serialized_seconds: float
    #: Per-resource busy time (at most ``makespan`` each).
    busy_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput_qps(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return len(self.queries) / self.makespan

    @property
    def overlap_speedup(self) -> float:
        """How much faster the interleaved schedule is than serialization."""
        if self.makespan <= 0:
            return 1.0
        return self.serialized_seconds / self.makespan

    def latencies(self) -> List[float]:
        return [query.latency for query in self.queries]

    def latency_percentile(self, q: float) -> float:
        return percentile(self.latencies(), q)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[int(position)]
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


class _Task:
    """One in-flight query inside the simulation."""

    __slots__ = ("session", "index", "segments", "position", "remaining", "arrival", "busy")

    def __init__(self, session: str, index: int, segments: List[Segment], arrival: float):
        self.session = session
        self.index = index
        self.segments = segments
        self.position = 0
        self.arrival = arrival
        self.busy = sum(segment.seconds for segment in segments)
        self.remaining = 0.0
        self._skip_empty()

    def _skip_empty(self) -> None:
        while self.position < len(self.segments) and self.segments[self.position].seconds <= 0:
            self.position += 1
        if self.position < len(self.segments):
            self.remaining = self.segments[self.position].seconds

    @property
    def done(self) -> bool:
        return self.position >= len(self.segments)

    @property
    def current(self) -> Segment:
        return self.segments[self.position]

    def advance_segment(self) -> None:
        self.position += 1
        self._skip_empty()


class DeviceScheduler:
    """Collects per-session query timelines and simulates their interleaving.

    Sessions submit each query's segments in execution order (the serving
    layer does this as queries complete); :meth:`simulate` then replays the
    closed loop on the simulated device.  Submission order across sessions
    does not matter -- only each session's internal order does -- so the
    result is deterministic regardless of how the asyncio event loop
    happened to interleave the real executions.
    """

    def __init__(self) -> None:
        self._streams: Dict[str, List[List[Segment]]] = {}

    def submit(self, session: str, segments: Sequence[Segment]) -> None:
        """Append one query's segments to a session's stream."""
        self._streams.setdefault(session, []).append(list(segments))

    def submit_report(self, session: str, report) -> None:
        """Convenience: decompose an ExecutionReport and submit it."""
        self.submit(session, segments_from_report(report))

    @property
    def sessions(self) -> List[str]:
        return list(self._streams)

    @property
    def total_queries(self) -> int:
        return sum(len(stream) for stream in self._streams.values())

    def clear(self) -> None:
        self._streams.clear()

    def simulate(self) -> ScheduleResult:
        """Run the closed-loop discrete-event simulation."""
        # Sessions activate in sorted order: the float sums below follow
        # activation order, and the order in which sessions first submit
        # depends on host-thread timing.
        pending = {session: list(self._streams[session]) for session in sorted(self._streams)}
        cursor = {session: 0 for session in pending}
        active: List[_Task] = []
        completed: List[ScheduledQuery] = []
        clock = 0.0
        busy = {SM: 0.0, PCIE: 0.0, HOST: 0.0}
        serialized = 0.0

        def _activate(session: str, arrival: float) -> None:
            """Start the session's next query, completing zero-work ones inline."""
            nonlocal serialized
            while cursor[session] < len(pending[session]):
                index = cursor[session]
                cursor[session] += 1
                task = _Task(session, index, pending[session][index], arrival)
                serialized += task.busy
                if task.done:  # a query of only zero-length segments
                    completed.append(
                        ScheduledQuery(session, index, arrival, arrival, task.busy)
                    )
                    continue
                active.append(task)
                return

        for session in pending:
            _activate(session, 0.0)

        while active:
            # Progress rate of every active task under processor sharing.
            demand = {SM: 0.0, PCIE: 0.0}
            for task in active:
                segment = task.current
                if segment.resource in _CAPACITY_SHARED:
                    demand[segment.resource] += segment.demand
            scale = {
                resource: 1.0 if total <= 1.0 else 1.0 / total
                for resource, total in demand.items()
            }
            rates = [
                scale[task.current.resource]
                if task.current.resource in _CAPACITY_SHARED
                else 1.0
                for task in active
            ]
            step = min(task.remaining / rate for task, rate in zip(active, rates))
            clock += step
            for resource, total in demand.items():
                if total > 0:
                    busy[resource] += step * min(total, 1.0)
            if any(task.current.resource == HOST for task in active):
                busy[HOST] += step

            still_active: List[_Task] = []
            finished_sessions: List[str] = []
            for task, rate in zip(active, rates):
                task.remaining -= step * rate
                if task.remaining > _EPS:
                    still_active.append(task)
                    continue
                task.advance_segment()
                if not task.done:
                    still_active.append(task)
                    continue
                completed.append(
                    ScheduledQuery(task.session, task.index, task.arrival, clock, task.busy)
                )
                finished_sessions.append(task.session)
            active = still_active
            for session in finished_sessions:
                _activate(session, clock)

        completed.sort(key=lambda query: (query.session, query.index))
        return ScheduleResult(
            queries=completed,
            makespan=clock,
            serialized_seconds=serialized,
            busy_seconds=busy,
        )
