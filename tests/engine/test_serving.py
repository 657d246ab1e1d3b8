"""Tests for the concurrent serving layer.

Covers the ISSUE's concurrency contract: concurrent sessions return
bit-identical results to serial execution, admission control rejects past
the configured limit, a timed-out query is cancelled cleanly without
poisoning the shared kernel cache, and readers keep a consistent snapshot
while an append lands mid-query.
"""

import asyncio
import threading

import pytest

from repro.bench.experiments import ext_serving
from repro.core.decimal.context import DecimalSpec
from repro.core.jit.pipeline import KernelCache
from repro.engine import Database
from repro.engine.serving import ServerConfig, SessionServer
from repro.errors import (
    AdmissionError,
    QueryCancelledError,
    QueryTimeoutError,
    ServingError,
)
from repro.gpusim.residency import DeviceResidency
from repro.storage import tpch

SQL = "SELECT v + 1 AS w FROM t"


def make_database(cls=Database, rows=(("1.00",), ("2.00",), ("3.00",))):
    database = cls(simulate_rows=50_000)
    database.create_table("t", {"v": "DECIMAL(10, 2)"}, rows=rows)
    return database


class GatedDatabase(Database):
    """A database whose queries block until the test opens the gate.

    The wait polls ``cancel_check`` like the engine's operator boundaries
    do, so the serving layer's timeout/cancellation path is exercised
    deterministically (no sleeps racing real query runtimes).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()

    def execute(self, sql, **kwargs):
        cancel_check = kwargs.get("cancel_check")
        while not self.gate.wait(timeout=0.005):
            if cancel_check is not None and cancel_check():
                raise QueryCancelledError(f"cancelled while gated: {sql!r}")
        return super().execute(sql, **kwargs)


class TestServerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(max_in_flight=0)
        with pytest.raises(ValueError):
            ServerConfig(max_queue_depth=-1)
        with pytest.raises(ValueError):
            ServerConfig(default_timeout=0.0)

    def test_admission_limit(self):
        assert ServerConfig(max_in_flight=2, max_queue_depth=3).admission_limit == 5


class TestBitExactness:
    def test_concurrent_sessions_match_serial(self):
        relation = tpch.lineitem_for_len(2, rows=120, seed=11)
        serial = ext_serving.reference_rows(relation, simulate_rows=100_000)

        database = Database(simulate_rows=100_000)
        database.register(relation)
        results, schedule = ext_serving.serve_workload(
            database, session_count=4, queries_per_session=3
        )

        assert len(results) == 12
        for served in results:
            assert served.rows == serial[served.sql], served.sql
        assert len(schedule.queries) == 12
        # Each session's closed loop is preserved in the schedule.
        for query in schedule.queries:
            assert query.finish >= query.arrival

    def test_shared_kernel_cache_compiles_each_kernel_once(self):
        database = make_database()

        async def main():
            async with SessionServer(database) as server:
                await asyncio.gather(
                    *[server.session(f"s{i}").execute(SQL) for i in range(4)]
                )

        asyncio.run(main())
        # Four sessions, one distinct kernel: one miss, the rest hits.
        assert len(database.kernel_cache) == 1
        assert database.kernel_cache.misses == 1


class TestAdmissionControl:
    def test_rejects_past_limit(self):
        database = make_database(GatedDatabase)
        config = ServerConfig(max_in_flight=1, max_queue_depth=1)

        async def main():
            async with SessionServer(database, config) as server:
                tasks = [
                    asyncio.ensure_future(server.session(f"s{i}").execute(SQL))
                    for i in range(3)
                ]
                # One query holds the worker (gate closed), one queues on
                # the semaphore; the third submission must bounce.
                while server.stats.rejected == 0:
                    await asyncio.sleep(0.001)
                assert server.in_flight == config.admission_limit
                database.gate.set()
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                return outcomes, server.stats

        outcomes, stats = asyncio.run(main())
        rejected = [o for o in outcomes if isinstance(o, AdmissionError)]
        served = [o for o in outcomes if not isinstance(o, Exception)]
        assert len(rejected) == 1
        assert len(served) == 2
        assert stats.rejected == 1
        assert stats.completed == 2
        for result in served:
            assert result.queued_seconds >= 0
            assert result.wall_seconds >= result.queued_seconds

    def test_closed_server_rejects_everything(self):
        database = make_database()

        async def main():
            server = SessionServer(database)
            session = server.session("s0")
            await server.close()
            with pytest.raises(ServingError):
                server.session("late")
            with pytest.raises(ServingError):
                await session.execute(SQL)

        asyncio.run(main())


class TestTimeoutAndCancellation:
    def test_timeout_cancels_and_cache_survives(self):
        database = make_database(GatedDatabase)

        async def main():
            async with SessionServer(database) as server:
                session = server.session("s0")
                with pytest.raises(QueryTimeoutError):
                    await session.execute(SQL, timeout=0.02)
                assert server.stats.timed_out == 1
                # The worker observed the flag (QueryCancelledError path).
                assert server.stats.cancelled == 1
                assert server.in_flight == 0
                # The shared cache was not poisoned: the same query now
                # runs to completion and compiles cleanly.
                database.gate.set()
                served = await session.execute(SQL)
                return served

        served = asyncio.run(main())
        reference = make_database().execute(SQL)
        assert served.rows == reference.rows
        assert len(database.kernel_cache) == 1

    def test_default_timeout_applies(self):
        database = make_database(GatedDatabase)
        config = ServerConfig(default_timeout=0.02)

        async def main():
            async with SessionServer(database, config) as server:
                with pytest.raises(QueryTimeoutError):
                    await server.session("s0").execute(SQL)
                # timeout=None opts out of the default deadline.
                database.gate.set()
                return await server.session("s0").execute(SQL, timeout=None)

        served = asyncio.run(main())
        assert served.rows == make_database().execute(SQL).rows

    def test_engine_level_cancel_check(self):
        database = make_database()
        with pytest.raises(QueryCancelledError):
            database.execute(SQL, cancel_check=lambda: True)
        # Cancelled before the first operator: nothing half-compiled.
        assert len(database.kernel_cache) == 0
        assert database.execute(SQL).rows == make_database().execute(SQL).rows

    def test_cancel_mid_query_leaves_cache_whole(self):
        database = make_database()
        calls = {"count": 0}

        def cancel_after_first_operator():
            calls["count"] += 1
            return calls["count"] > 1

        with pytest.raises(QueryCancelledError):
            database.execute(SQL, cancel_check=cancel_after_first_operator)
        # Whatever was compiled before the cancel is a whole entry the
        # next execution reuses bit-exactly.
        size_after_cancel = len(database.kernel_cache)
        result = database.execute(SQL)
        assert result.rows == make_database().execute(SQL).rows
        assert len(database.kernel_cache) >= size_after_cancel


class TestSnapshotIsolation:
    def test_append_basics(self):
        database = make_database()
        before = database.catalog.get("t")
        merged = database.append("t", [("9.50",)])
        assert merged.rows == 4
        # The old relation object is untouched (readers may still hold it)
        # and the merged table is built from fresh column versions.
        assert before.rows == 3
        assert database.catalog.get("t") is merged
        for old, new in zip(before.columns, merged.columns):
            assert old.version != new.version

    def test_reader_snapshot_unaffected_by_concurrent_append(self):
        database = make_database()
        state = {"appended": False}

        def append_mid_query():
            # Runs at an operator boundary of the in-flight query: the
            # append lands while the reader is executing.
            if not state["appended"]:
                state["appended"] = True
                database.append("t", [("99.00",)])
            return False

        in_flight = database.execute(SQL, cancel_check=append_mid_query)
        assert state["appended"]
        assert len(in_flight.rows) == 3  # the snapshot, not the new row
        assert len(database.execute(SQL).rows) == 4  # later queries see it

    def test_server_append_visible_to_later_queries(self):
        database = make_database()

        async def main():
            async with SessionServer(database) as server:
                writer = server.session("writer")
                reader = server.session("reader")
                before = await reader.execute(SQL)
                await writer.append("t", [("7.25",)])
                after = await reader.execute(SQL)
                return before, after

        before, after = asyncio.run(main())
        assert len(before.rows) == 3
        assert len(after.rows) == 4

    def test_append_invalidates_residency_by_version(self):
        database = make_database()
        database.residency = DeviceResidency(database.device)
        first = database.execute(SQL)
        second = database.execute(SQL)
        # The first query ships the column (residency miss); the second
        # finds it resident and pays only the result transfer back.
        assert database.residency.misses == 1
        assert database.residency.hits == 1
        assert second.report.pcie_bytes < first.report.pcie_bytes
        database.append("t", [("4.00",)])
        third = database.execute(SQL)
        # Append built a fresh column version -> the transfer is re-paid.
        assert database.residency.misses == 2
        assert third.report.pcie_bytes > second.report.pcie_bytes


class TestKernelCacheThreadSafety:
    def test_concurrent_compiles_yield_one_entry(self):
        cache = KernelCache()
        spec = DecimalSpec(10, 2)
        schema = {"a": spec, "b": spec}
        workers = 8
        barrier = threading.Barrier(workers)
        failures = []

        def compile_one():
            try:
                barrier.wait()
                compiled, _ = cache.compile("a + b * 2", schema)
                assert compiled.kernel is not None
            except Exception as error:  # pragma: no cover - failure path
                failures.append(error)

        threads = [threading.Thread(target=compile_one) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert len(cache) == 1
        assert cache.misses == 1
        assert cache.hits == workers - 1
