"""Asyncio session server: many sessions, one shared simulated device.

:class:`SessionServer` fronts one shared :class:`~repro.engine.Database`
with per-session handles and three serving-layer guarantees the embedded
facade does not give:

* **Admission control** -- at most ``max_in_flight`` queries execute
  concurrently; up to ``max_queue_depth`` more wait their turn; anything
  beyond that is rejected immediately with
  :class:`~repro.errors.AdmissionError` (fail fast beats unbounded queues
  under overload).
* **Timeouts with clean cancellation** -- a query that exceeds its
  deadline raises :class:`~repro.errors.QueryTimeoutError`; the worker
  observes the cancellation flag at its next operator boundary and stops
  without leaving partial entries in the shared kernel cache or device
  residency.
* **Explicit cross-session sharing** -- all sessions share the database's
  :class:`~repro.core.jit.pipeline.KernelCache` (one session compiles, the
  rest hit) and a :class:`~repro.gpusim.residency.DeviceResidency` tracker
  (a column version crosses PCIe once, not once per session), and readers
  run under snapshot isolation against ``append`` writers (see
  :meth:`repro.engine.Database.append`).

Each completed query's :class:`ExecutionReport` is decomposed into
resource segments and submitted to a shared
:class:`~repro.gpusim.scheduler.DeviceScheduler`, which interleaves
runnable kernels from concurrent queries onto the simulated SMs -- the
simulated serving timeline (queries/sec, p50/p99 latency) comes from
:meth:`SessionServer.simulate_schedule`, not from summing per-query times.

The data plane runs on a thread pool: queries execute bit-exactly exactly
as they would on the embedded facade, and results are independent of how
the event loop interleaves them.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.engine.session import Database, QueryResult
from repro.errors import (
    AdmissionError,
    QueryCancelledError,
    QueryTimeoutError,
    ServingError,
)
from repro.gpusim.residency import DeviceResidency
from repro.gpusim.scheduler import DeviceScheduler, ScheduleResult

#: Sentinel distinguishing "no timeout argument" from "timeout=None".
_UNSET = object()


@dataclass(frozen=True)
class ServerConfig:
    """Admission and execution limits of one server."""

    #: Queries executing concurrently on the worker pool.
    max_in_flight: int = 8
    #: Additional queries allowed to wait for a worker before the server
    #: starts rejecting submissions outright.
    max_queue_depth: int = 32
    #: Wall-clock deadline applied when a query passes no explicit timeout;
    #: ``None`` means no deadline.
    default_timeout: Optional[float] = None
    #: Worker threads; defaults to ``max_in_flight``.
    worker_threads: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        if self.default_timeout is not None and self.default_timeout <= 0:
            raise ValueError("default_timeout must be positive")

    @property
    def admission_limit(self) -> int:
        """Accepted-but-unfinished queries the server tolerates."""
        return self.max_in_flight + self.max_queue_depth


@dataclass
class ServerStats:
    """Serving counters (wall-clock side, not simulated time)."""

    completed: int = 0
    rejected: int = 0
    timed_out: int = 0
    cancelled: int = 0
    failed: int = 0


@dataclass
class ServingResult:
    """One served query: rows/report plus serving-side wall timings."""

    session: str
    sql: str
    result: QueryResult
    #: Wall seconds spent waiting for admission (queue time).
    queued_seconds: float
    #: Wall seconds from submission to completion.
    wall_seconds: float

    @property
    def rows(self):
        return self.result.rows

    @property
    def report(self):
        return self.result.report


class Session:
    """Per-session handle: an ordered stream of queries over the server.

    A session executes one query at a time (the classic connection model);
    concurrency comes from many sessions.  The per-session lock is also
    what makes the scheduler's closed-loop assumption -- query N+1 of a
    session arrives when query N finishes -- true by construction.
    """

    def __init__(self, server: "SessionServer", name: str) -> None:
        self._server = server
        self.name = name
        # Created lazily inside the running loop: on Python 3.9 asyncio
        # primitives bind their event loop at construction time.
        self._lock: Optional[asyncio.Lock] = None

    def _serialized(self) -> asyncio.Lock:
        lock = self._lock
        if lock is None:
            lock = self._lock = asyncio.Lock()
        return lock

    async def execute(self, sql: str, timeout=_UNSET) -> ServingResult:
        async with self._serialized():
            return await self._server._execute(self.name, sql, timeout)

    async def append(self, table: str, rows: Sequence[Sequence]):
        """Append rows through this session (serialized like its queries)."""
        async with self._serialized():
            return await self._server.append(table, rows)


class SessionServer:
    """Serve concurrent sessions over one shared database/simulated device."""

    def __init__(
        self,
        database: Database,
        config: Optional[ServerConfig] = None,
        scheduler: Optional[DeviceScheduler] = None,
    ) -> None:
        self.database = database
        self.config = config if config is not None else ServerConfig()
        self.scheduler = scheduler if scheduler is not None else DeviceScheduler()
        self.stats = ServerStats()
        if database.residency is None:
            # Sharing is explicit: serving turns residency tracking on so
            # sessions stop re-paying PCIe for columns already on device.
            database.residency = DeviceResidency(database.device)
        workers = self.config.worker_threads or self.config.max_in_flight
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="serving"
        )
        # Lazy for the same 3.9 loop-binding reason as Session._lock.
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._admitted = 0
        self._sessions: Dict[str, Session] = {}
        self._closed = False

    # -------------------------------------------------------------- sessions

    def session(self, name: str) -> Session:
        """Open (or fetch) the named session."""
        if self._closed:
            raise ServingError("server is closed")
        if name not in self._sessions:
            self._sessions[name] = Session(self, name)
        return self._sessions[name]

    # --------------------------------------------------------------- queries

    async def _execute(self, session: str, sql: str, timeout=_UNSET) -> ServingResult:
        if self._closed:
            raise ServingError("server is closed")
        if timeout is _UNSET:
            timeout = self.config.default_timeout
        if self._admitted >= self.config.admission_limit:
            self.stats.rejected += 1
            raise AdmissionError(
                f"server at capacity: {self._admitted} queries admitted "
                f"(limit {self.config.admission_limit}); rejecting {sql!r}"
            )
        semaphore = self._semaphore
        if semaphore is None:
            semaphore = self._semaphore = asyncio.Semaphore(self.config.max_in_flight)
        submitted = time.perf_counter()
        self._admitted += 1
        try:
            async with semaphore:
                started = time.perf_counter()
                result = await self._run_query(sql, timeout)
        finally:
            self._admitted -= 1
        finished = time.perf_counter()
        self.stats.completed += 1
        # Per-session submission order is the session's own execution
        # order (the Session lock serializes it), which is all the
        # closed-loop schedule simulation depends on.
        self.scheduler.submit_report(session, result.report)
        return ServingResult(
            session=session,
            sql=sql,
            result=result,
            queued_seconds=started - submitted,
            wall_seconds=finished - submitted,
        )

    async def _run_query(self, sql: str, timeout: Optional[float]) -> QueryResult:
        """Run one query on the worker pool, cancelling it on timeout."""
        cancel = threading.Event()
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(
            self._executor,
            lambda: self.database.execute(sql, cancel_check=cancel.is_set),
        )
        try:
            return await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            cancel.set()
            # The worker observes the flag at its next operator boundary;
            # wait for it so no stale thread keeps running, and swallow
            # whichever way the race resolved (QueryCancelledError, or the
            # query finished just as the deadline hit -- the result is
            # dropped either way).
            try:
                await future
            except QueryCancelledError:
                self.stats.cancelled += 1
            except Exception:
                pass
            self.stats.timed_out += 1
            raise QueryTimeoutError(
                f"query exceeded {timeout}s and was cancelled: {sql!r}"
            ) from None
        except Exception:
            self.stats.failed += 1
            raise

    async def append(self, table: str, rows: Sequence[Sequence]):
        """Append rows to a shared table (snapshot-isolated vs readers)."""
        if self._closed:
            raise ServingError("server is closed")
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, lambda: self.database.append(table, rows)
        )

    # ------------------------------------------------------------- reporting

    def simulate_schedule(self) -> ScheduleResult:
        """Interleave every served query on the simulated device."""
        return self.scheduler.simulate()

    @property
    def in_flight(self) -> int:
        """Queries admitted and not yet finished (executing + queued)."""
        return self._admitted

    async def close(self) -> None:
        """Reject new work and release the worker pool."""
        self._closed = True
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "SessionServer":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
