"""The session plan cache: a repeated read reuses its plan, and only then.

``Database.execute`` keeps each planned text (``Database.plan_cache``)
and reuses it while every planning input is unchanged and the catalog
reads as planning read it: a join-free plan under an explicit
``simulate_rows`` while its table keeps its column names and types, any
other plan while every column it read keeps its version.  A reuse skips
parsing, rewriting and planning, looks each kernel up again in the
session ``KernelCache``, and must return exactly the rows and the report
that planning afresh would give.  Execution never runs the plan
analyzer; EXPLAIN does.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.analysis import plan as analysis_plan
from repro.core.decimal.context import DecimalSpec
from repro.core.jit import pipeline
from repro.core.jit.pipeline import JitOptions
from repro.engine import Database
from repro.engine import session
from repro.engine.plan import planner
from repro.engine.plan.cost import OptimizerConfig, TableStats
from repro.engine.plan.logical import LogicalFilter
from repro.engine.plan.physical import _KernelOp
from repro.engine.plan.rules import RewriteRule
from repro.errors import ExecutionError, QueryCancelledError, TypeInferenceError
from repro.storage import Column, Relation

JOIN_SQL = (
    "SELECT f_key, SUM(f_amount * d_weight) AS s, COUNT(*) AS n FROM fact "
    "JOIN dim ON f_key = d_key WHERE f_amount < 9.00 GROUP BY f_key ORDER BY f_key"
)
SUM_SQL = "SELECT SUM(f_amount * f_rate) AS s, MAX(f_amount + 1) AS m FROM fact"

#: Report fields the compile decides; every other field is charged alike
#: whether or not the kernels were cached.
COMPILE_FIELDS = ("compile_seconds", "kernels_compiled", "kernels_cached")


def make_db(simulate_rows=1_000_000, **options) -> Database:
    db = Database(simulate_rows=simulate_rows, **options)
    db.create_table(
        "fact",
        {"f_key": "INT", "f_amount": "DECIMAL(12, 2)", "f_rate": "DECIMAL(6, 4)"},
        rows=[(k % 4, f"{k}.25", f"0.{k:04d}") for k in range(12)],
    )
    db.create_table(
        "dim",
        {"d_key": "INT", "d_weight": "DECIMAL(8, 2)"},
        rows=[(k, f"{k}.50") for k in range(4)],
    )
    return db


def simulated(report):
    """Every report field but the measured wall clock."""
    return dataclasses.replace(
        report,
        data_plane_seconds=0.0,
        kernel_executions=[
            dataclasses.replace(launch, data_plane_seconds=0.0)
            for launch in report.kernel_executions
        ],
    )


def without_compile(report):
    return dataclasses.replace(simulated(report), **{name: 0 for name in COMPILE_FIELDS})


@pytest.fixture
def calls(monkeypatch):
    """Counts of each front-end layer's calls."""
    counts = {"parse": 0, "plan": 0, "analyze": 0, "table_stats": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(session, "parse_query", counting("parse", session.parse_query))
    monkeypatch.setattr(session, "plan_query", counting("plan", session.plan_query))
    monkeypatch.setattr(
        analysis_plan, "analyze_plan", counting("analyze", analysis_plan.analyze_plan)
    )
    from_relation = TableStats.from_relation.__func__
    monkeypatch.setattr(
        TableStats,
        "from_relation",
        classmethod(counting("table_stats", from_relation)),
    )
    return counts


class TestReuse:
    @pytest.mark.parametrize("sql", [JOIN_SQL, SUM_SQL])
    def test_repeat_skips_the_front_end(self, calls, sql):
        db = make_db()
        cold = db.execute(sql)
        planned = dict(calls)
        assert planned["parse"] == planned["plan"] == 1 and planned["analyze"] == 0
        warm = db.execute(sql)
        assert calls == planned
        assert db.plan_cache.hits == 1 and db.plan_cache.misses == 1
        for explains in (1, 2):
            db.explain(sql)
            assert calls["analyze"] == explains

        # The same two executions, the second planned afresh.
        fresh = make_db()
        fresh_cold = fresh.execute(sql)
        fresh.plan_cache.clear()
        fresh_warm = fresh.execute(sql)
        assert cold.rows == fresh_cold.rows and warm.rows == fresh_warm.rows
        assert cold.column_names == warm.column_names == fresh_warm.column_names
        assert simulated(cold.report) == simulated(fresh_cold.report)
        assert simulated(warm.report) == simulated(fresh_warm.report)
        assert warm.report.kernels_compiled == 0 and warm.report.kernels_cached > 0

    def test_kernel_lookups_count_as_planning_did(self):
        db = make_db()
        db.execute(JOIN_SQL)
        hits = db.kernel_cache.hits
        db.execute(JOIN_SQL)
        assert db.kernel_cache.hits == hits + 1
        assert db.kernel_cache.misses == 1

    def test_cleared_kernel_cache_charges_the_cold_compile(self):
        db = make_db()
        cold = db.execute(SUM_SQL)
        db.kernel_cache.clear()
        again = db.execute(SUM_SQL)
        assert db.plan_cache.hits == 1
        assert again.rows == cold.rows
        assert simulated(again.report) == simulated(cold.report)
        assert again.report.kernels_compiled == 2 and again.report.compile_seconds > 0

    def test_reuse_never_edits_the_cached_plan(self, monkeypatch):
        plans = []
        original = session.plan_query

        def recording(*args, **kwargs):
            plans.append(original(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(session, "plan_query", recording)
        db = make_db()
        db.execute(SUM_SQL)
        (plan,) = plans
        (op,) = [op for op in plan if isinstance(op, _KernelOp)]
        planned = list(op.kernels)
        assert [was_cached for _, was_cached in planned] == [False, False]
        db.execute(SUM_SQL)
        db.kernel_cache.clear()
        recompiled = db.execute(SUM_SQL)
        assert recompiled.report.kernels_compiled == 2
        assert len(plans) == 1
        assert len(op.kernels) == len(planned)
        assert all(now is then for now, then in zip(op.kernels, planned))

    def test_rules_never_edit_the_cached_query(self, monkeypatch):
        class PoppingRule(RewriteRule):
            """A seeded rule bug that edits a node's conjunct list in place."""

            name = "filter-pushdown"

            def apply(self, nodes, stats=None):
                for node in nodes:
                    if isinstance(node, LogicalFilter) and len(node.predicates) > 1:
                        node.predicates.pop()
                        return nodes, "popped a conjunct in place"
                return None

        monkeypatch.setattr(planner, "default_rules", lambda **kwargs: [PoppingRule()])
        # Unset, simulate_rows follows the row count: the entry is checked
        # against column versions, so an empty append plans it again.
        db = make_db(simulate_rows=None)
        sql = "SELECT f_amount FROM fact WHERE f_key > 1 AND f_amount < 9.00"
        first = db.execute(sql)
        db.append("fact", [])
        second = db.execute(sql)  # re-planned from the cached query
        assert db.plan_cache.misses == 2
        assert len(first.query.where) == len(second.query.where) == 2

    def test_explain_neither_reads_nor_fills_the_cache(self):
        db = make_db()
        db.explain(SUM_SQL)
        assert len(db.plan_cache) == 0
        first = db.execute(SUM_SQL)
        assert first.report.kernels_compiled == 2 and first.report.compile_seconds > 0
        db.explain(SUM_SQL)
        db.execute(SUM_SQL)
        assert db.plan_cache.hits == 1 and db.plan_cache.misses == 1


def fresh_copy(db: Database) -> Database:
    """A new database over copies of ``db``'s current rows: no plan,
    kernel or column cache of ``db`` reaches it."""
    fresh = Database(simulate_rows=db.simulate_rows)
    for name in db.catalog.names():
        columns = db.catalog.get(name).columns
        fresh.register(
            Relation(name, [Column(c.name, c.column_type, c.data.copy()) for c in columns])
        )
    return fresh


def unscaled(row):
    return tuple(value.unscaled for value in row)


def append_row(db):
    db.append("fact", [(1, "100.00", "0.5000")])


def append_nothing(db):
    db.append("fact", [])


def register_replace(db):
    db.create_table(
        "fact",
        {"f_key": "INT", "f_amount": "DECIMAL(12, 2)", "f_rate": "DECIMAL(6, 4)"},
        rows=[(0, "1.00", "0.1000")],
        replace=True,
    )


def drop_then_create(db):
    db.drop("fact")
    db.create_table(
        "fact",
        {"f_key": "INT", "f_amount": "DECIMAL(12, 2)", "f_rate": "DECIMAL(6, 4)"},
        rows=[(0, "2.00", "0.1000"), (1, "3.00", "0.2000")],
    )


def invalidate_column(db):
    column = db.catalog.get("fact").column("f_amount")
    column.data[:] = 0
    column.invalidate()


class TestInvalidation:
    """A data change keeps a join-free plan under an explicit
    ``simulate_rows``; a schema change, or any change to a table a join
    plan or a plan with ``simulate_rows`` unset read, plans again, and
    so does a change to a planning input."""

    SQL = "SELECT SUM(f_amount * 2) AS s, COUNT(*) AS n FROM fact WHERE f_key >= 0"

    def replanned(self, db, change, sql=None, **execute):
        """Run, apply ``change``, run again: the second run must re-plan.

        Returns the second run's result.
        """
        sql = sql or self.SQL
        db.execute(sql)
        misses = db.plan_cache.misses
        change(db)
        result = db.execute(sql, **execute)
        assert db.plan_cache.misses == misses + 1
        return result

    def data_change(self, calls, change, expected):
        """``change`` keeps ``fact``'s column names and types; ``expected``
        is :attr:`SQL`'s answer after it, as unscaled integers.

        The join-free text reuses its plan and answers as a fresh database
        does; the join text, and the join-free one with ``simulate_rows``
        unset, plan again.
        """
        db = make_db()
        db.execute(self.SQL)
        planned = dict(calls)
        hits, misses = db.plan_cache.hits, db.plan_cache.misses
        change(db)
        reused = db.execute(self.SQL)
        assert (db.plan_cache.hits, db.plan_cache.misses) == (hits + 1, misses)
        assert calls == planned
        assert unscaled(reused.rows[0]) == expected

        # The same read planned afresh, its kernels cached as the reuse's are.
        fresh = fresh_copy(db)
        fresh.execute(self.SQL)
        fresh.plan_cache.clear()
        afresh = fresh.execute(self.SQL)
        assert reused.rows == afresh.rows
        assert reused.column_names == afresh.column_names
        assert simulated(reused.report) == simulated(afresh.report)

        db = make_db()
        joined = self.replanned(db, change, sql=JOIN_SQL)
        fresh_join = fresh_copy(db).execute(JOIN_SQL)
        assert joined.rows == fresh_join.rows
        assert without_compile(joined.report) == without_compile(fresh_join.report)

        db = make_db(simulate_rows=None)
        counted = self.replanned(db, change)
        assert unscaled(counted.rows[0]) == expected
        assert counted.report.simulated_rows == db.catalog.get("fact").rows

    def test_append(self, calls):
        self.data_change(
            calls, append_row, (2 * (sum(k * 100 + 25 for k in range(12)) + 10_000), 13)
        )

    def test_empty_append(self, calls):
        self.data_change(calls, append_nothing, (2 * sum(k * 100 + 25 for k in range(12)), 12))

    def test_register_replace(self, calls):
        self.data_change(calls, register_replace, (200, 1))

    def test_drop_then_create(self, calls):
        self.data_change(calls, drop_then_create, (1000, 2))

    def test_column_invalidate(self, calls):
        self.data_change(calls, invalidate_column, (0, 12))

    def test_reused_plan_pins_no_table_data(self):
        db = make_db()
        db.execute(self.SQL)
        planned_on = weakref.ref(db.catalog.get("fact").column("f_amount"))
        db.append("fact", [(1, "100.00", "0.5000")])
        db.execute(self.SQL)
        assert db.plan_cache.hits == 1 and len(db.plan_cache) == 1
        gc.collect()
        assert planned_on() is None

    def test_relation_add(self):
        db = make_db()

        def add(db):
            db.catalog.get("fact").add(
                Column.decimal_from_unscaled("f_extra", list(range(12)), DecimalSpec(4, 0))
            )

        self.replanned(db, add)
        assert db.execute("SELECT SUM(f_extra * 2) FROM fact").rows[0][0].unscaled == 132

    def test_register_with_another_type(self):
        db = make_db()

        def retype(db):
            db.create_table(
                "fact",
                {"f_key": "INT", "f_amount": "DECIMAL(14, 3)", "f_rate": "DECIMAL(6, 4)"},
                rows=[(0, "1.125", "0.1000")],
                replace=True,
            )

        result = self.replanned(db, retype)
        assert unscaled(result.rows[0]) == (2250, 1)
        assert str(result.query.select_items[0].expression) == "SUM(f_amount * 2)"

    @pytest.mark.parametrize(
        "execute",
        [
            {"optimizer": OptimizerConfig.off()},
            {"simulate_rows": 5_000},
            {"include_scan": False},
        ],
    )
    def test_per_call_planning_input(self, execute):
        db = make_db()
        result = self.replanned(db, lambda db: None, **execute)
        fresh = make_db().execute(self.SQL, **execute)
        assert result.rows == fresh.rows
        assert without_compile(result.report) == without_compile(fresh.report)

    def test_jit_options(self):
        db = make_db()

        def change(db):
            db.jit_options = JitOptions(constant_folding=False)

        result = self.replanned(db, change)
        assert result.report.kernels_compiled == 1

    def test_unset_simulate_rows_follows_the_row_count(self):
        db = Database()
        db.create_table("t", {"a": "DECIMAL(10, 2)"}, rows=[("1.00",), ("2.00",)])
        first = db.execute("SELECT SUM(a) FROM t")
        db.append("t", [("3.00",)])
        second = db.execute("SELECT SUM(a) FROM t")
        assert first.report.simulated_rows == 2 and second.report.simulated_rows == 3
        assert db.plan_cache.misses == 2


class TestFailureCachesNothing:
    def test_cancelled_before_planning(self):
        db = make_db()
        with pytest.raises(QueryCancelledError):
            db.execute(SUM_SQL, cancel_check=lambda: True)
        assert len(db.plan_cache) == 0 and db.plan_cache.misses == 0
        assert len(db.kernel_cache) == 0
        db.execute(SUM_SQL)
        with pytest.raises(QueryCancelledError):
            db.execute(SUM_SQL, cancel_check=lambda: True)
        assert db.plan_cache.hits == 0 and db.plan_cache.misses == 1

    def test_compile_error(self):
        db = make_db()
        for _ in range(2):
            with pytest.raises(TypeInferenceError):
                db.execute("SELECT SUM(f_key * 2) FROM fact")
        assert len(db.plan_cache) == 0


class TestBounds:
    def test_plan_cache_evicts_the_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(session, "PLAN_CACHE_ENTRIES", 2)
        db = make_db()
        first, second, third = (
            f"SELECT SUM(f_amount + {k}) AS s FROM fact" for k in (1, 2, 3)
        )
        db.execute(first)
        db.execute(second)
        db.execute(first)  # refreshes ``first``
        db.execute(third)  # evicts ``second``
        assert len(db.plan_cache) == 2
        assert (db.plan_cache.hits, db.plan_cache.misses) == (1, 3)
        db.execute(first)
        assert (db.plan_cache.hits, db.plan_cache.misses) == (2, 3)
        db.execute(second)
        assert (db.plan_cache.hits, db.plan_cache.misses) == (2, 4)

    def test_kernel_eviction_recharges_only_the_compile(self, monkeypatch):
        db = make_db()
        cold = db.execute(SUM_SQL)
        warm = db.execute(SUM_SQL)
        assert cold.report.kernels_compiled == 2 and warm.report.kernels_compiled == 0
        monkeypatch.setattr(pipeline, "KERNEL_CACHE_ENTRIES", 2)
        db.execute("SELECT SUM(f_amount * 3) AS x, MIN(f_rate - 1) AS y FROM fact")
        assert len(db.kernel_cache) == 2  # SUM_SQL's two kernels are gone
        evicted = db.execute(SUM_SQL)
        assert db.plan_cache.hits == 2
        assert evicted.rows == warm.rows
        assert without_compile(evicted.report) == without_compile(warm.report)
        assert evicted.report.compile_seconds == cold.report.compile_seconds
        assert evicted.report.kernels_compiled == cold.report.kernels_compiled


class TestSimulateRows:
    """A negative simulated row count would charge negative time."""

    def test_negative_at_construction(self):
        with pytest.raises(ExecutionError):
            Database(simulate_rows=-1)

    def test_negative_per_call(self):
        db = Database()
        db.create_table(
            "t",
            {"a": "DECIMAL(10, 2)", "b": "DECIMAL(10, 2)"},
            [("1.50", "2.00"), ("3.00", "4.00")],
        )
        with pytest.raises(ExecutionError):
            db.execute("SELECT SUM(a * b) FROM t", simulate_rows=-10_000_000)
        with pytest.raises(ExecutionError):
            db.explain("SELECT SUM(a * b) FROM t", simulate_rows=-10_000_000)
        assert len(db.plan_cache) == 0
