"""End-to-end tests for the Database facade against big-integer oracles."""

import re

import pytest

from repro.core.decimal import inference
from repro.core.decimal.context import DecimalSpec
from repro.core.jit import pipeline
from repro.engine import Database
from repro.engine.ddl import build_relation
from repro.engine.executor import run_plan
from repro.engine.plan.cost import PlanStats, TableStats
from repro.engine.plan.physical import QueryContext
from repro.engine.plan.planner import plan_query
from repro.engine.sql.parser import parse_query
from repro.errors import CatalogError, ExecutionError, PlanningError
from repro.storage import Column, Relation
from repro.storage.datagen import decimal_column


def make_db(rows=500, simulate=1_000_000):
    spec_a = DecimalSpec(12, 2)
    spec_b = DecimalSpec(10, 3)
    relation = Relation(
        "r",
        [
            decimal_column("a", spec_a, rows, seed=10),
            decimal_column("b", spec_b, rows, seed=11),
            Column.chars("g", ["X" if i % 3 else "Y" for i in range(rows)], 1),
            Column.integers("k", list(range(rows))),
        ],
    )
    db = Database(simulate_rows=simulate)
    db.register(relation)
    return db, relation


class TestProjection:
    def test_expression(self):
        db, relation = make_db()
        result = db.execute("SELECT a + b FROM r")
        a = relation.column("a").unscaled()
        b = relation.column("b").unscaled()
        expected = [x * 10 + y for x, y in zip(a, b)]  # align scale 2 -> 3
        assert [v.unscaled for (v,) in result.rows] == expected

    def test_multiple_expressions(self):
        db, relation = make_db()
        result = db.execute("SELECT a + a, a * 2 FROM r")
        a = relation.column("a").unscaled()
        assert [x.unscaled for x, _ in result.rows] == [2 * v for v in a]
        assert [y.unscaled for _, y in result.rows] == [2 * v for v in a]

    def test_constant_only_workload(self):
        db, relation = make_db()
        result = db.execute("SELECT a + 0 FROM r")
        assert [v.unscaled for (v,) in result.rows] == relation.column("a").unscaled()


class TestAggregation:
    def test_sum(self):
        db, relation = make_db()
        result = db.execute("SELECT SUM(a) FROM r")
        assert result.scalar.unscaled == sum(relation.column("a").unscaled())

    def test_min_max_count(self):
        db, relation = make_db()
        result = db.execute("SELECT MIN(a), MAX(a), COUNT(*) FROM r")
        a = relation.column("a").unscaled()
        row = result.rows[0]
        assert row[0].unscaled == min(a)
        assert row[1].unscaled == max(a)
        assert row[2].unscaled == len(a)

    def test_avg_matches_rules(self):
        db, relation = make_db()
        result = db.execute("SELECT AVG(a) FROM r")
        a = relation.column("a").unscaled()
        sim = 1_000_000
        prescale = inference.div_prescale(inference.count_spec(sim))
        expected = sum(a) * 10**prescale // len(a)
        assert result.scalar.unscaled == expected

    def test_sum_of_expression(self):
        db, relation = make_db()
        result = db.execute("SELECT SUM(a * 2 + b) FROM r")
        a = relation.column("a").unscaled()
        b = relation.column("b").unscaled()
        expected = sum(2 * x * 10 + y for x, y in zip(a, b))
        assert result.scalar.unscaled == expected

    def test_mixed_bare_and_aggregate_rejected_without_group(self):
        db, _ = make_db()
        with pytest.raises(PlanningError):
            db.execute("SELECT a, SUM(b) FROM r")


class TestGroupBy:
    def test_grouped_sum(self):
        db, relation = make_db()
        result = db.execute("SELECT g, SUM(a), COUNT(*) FROM r GROUP BY g ORDER BY g")
        a = relation.column("a").unscaled()
        groups = {"X": 0, "Y": 0}
        counts = {"X": 0, "Y": 0}
        for i, value in enumerate(a):
            key = "X" if i % 3 else "Y"
            groups[key] += value
            counts[key] += 1
        assert [row[0] for row in result.rows] == ["X", "Y"]
        assert [row[1].unscaled for row in result.rows] == [groups["X"], groups["Y"]]
        assert [row[2].unscaled for row in result.rows] == [counts["X"], counts["Y"]]

    def test_group_by_decimal_column(self):
        spec = DecimalSpec(4, 1)
        relation = Relation(
            "t",
            [
                Column.decimal_from_unscaled("k", [10, 20, 10, 20, 10], spec),
                Column.decimal_from_unscaled("v", [1, 2, 3, 4, 5], DecimalSpec(6, 0)),
            ],
        )
        db = Database()
        db.register(relation)
        result = db.execute("SELECT k, SUM(v) FROM t GROUP BY k ORDER BY k")
        assert [(row[0].unscaled, row[1].unscaled) for row in result.rows] == [
            (10, 9),
            (20, 6),
        ]

    @pytest.mark.parametrize("item", ["a", "a + 1", "k"])
    def test_select_item_neither_aggregate_nor_key_rejected(self, item):
        db, _ = make_db()
        with pytest.raises(PlanningError, match=re.escape(f"'{item}'")):
            db.execute(f"SELECT {item}, SUM(b) FROM r GROUP BY g")

    def test_group_key_and_its_alias_still_selectable(self):
        db, _ = make_db()
        plain = db.execute("SELECT g, SUM(b) FROM r GROUP BY g ORDER BY g")
        aliased = db.execute("SELECT g AS flag, SUM(b) FROM r GROUP BY g ORDER BY g")
        assert [row[0] for row in plain.rows] == ["X", "Y"]
        assert aliased.rows == plain.rows


class TestWhere:
    def test_decimal_predicate(self):
        db, relation = make_db()
        result = db.execute("SELECT SUM(a) FROM r WHERE a > 0")
        expected = sum(v for v in relation.column("a").unscaled() if v > 0)
        assert result.scalar.unscaled == expected

    def test_int_predicate(self):
        db, relation = make_db()
        result = db.execute("SELECT SUM(a) FROM r WHERE k < 100")
        expected = sum(relation.column("a").unscaled()[:100])
        assert result.scalar.unscaled == expected

    def test_char_predicate(self):
        db, relation = make_db()
        result = db.execute("SELECT COUNT(*) FROM r WHERE g = 'Y'")
        expected = sum(1 for i in range(relation.rows) if i % 3 == 0)
        assert result.scalar.unscaled == expected

    def test_conjunction(self):
        db, relation = make_db()
        result = db.execute("SELECT COUNT(*) FROM r WHERE k >= 10 AND k < 20")
        assert result.scalar.unscaled == 10

    def test_selectivity_scales_simulated_rows(self):
        db, _ = make_db(rows=100, simulate=10_000_000)
        full = db.execute("SELECT SUM(a) FROM r")
        half = db.execute("SELECT SUM(a) FROM r WHERE k < 50")
        assert half.report.aggregate_seconds < full.report.aggregate_seconds


class TestOrderBy:
    def test_sorted_output(self):
        db, relation = make_db(rows=50)
        result = db.execute("SELECT k, a FROM r ORDER BY k DESC")
        keys = [row[0] for row in result.rows]
        assert keys == sorted(keys, reverse=True)


class TestReports:
    def test_components_present(self):
        db, _ = make_db(simulate=10_000_000)
        report = db.execute("SELECT a + b FROM r").report
        assert report.scan_seconds > 0
        assert report.pcie_seconds > 0
        assert report.compile_seconds > 0
        assert report.kernel_seconds > 0
        assert report.pipeline_seconds > 0
        assert report.total_seconds == pytest.approx(
            report.scan_seconds
            + report.pcie_seconds
            + report.compile_seconds
            + report.kernel_seconds
            + report.filter_seconds
            + report.aggregate_seconds
            + report.sort_seconds
            + report.pipeline_seconds
        )

    def test_kernel_cache_across_queries(self):
        db, _ = make_db()
        first = db.execute("SELECT a + b FROM r")
        second = db.execute("SELECT a + b FROM r")
        assert first.report.kernels_compiled == 1
        assert second.report.kernels_compiled == 0
        assert second.report.kernels_cached == 1
        assert second.report.compile_seconds == 0

    def test_exclusion_flags(self):
        db, _ = make_db(simulate=10_000_000)
        with_scan = db.execute("SELECT a + b FROM r", include_scan=True)
        db.kernel_cache.clear()
        without = db.execute("SELECT a + b FROM r", include_scan=False)
        assert without.report.scan_seconds == 0
        assert with_scan.report.scan_seconds > 0

    def test_unknown_table(self):
        db, _ = make_db()
        with pytest.raises(CatalogError):
            db.execute("SELECT a FROM nope")


class TestCompileOnce:
    """Planning compiles each kernel once; execution and EXPLAIN reuse it."""

    SQL = "SELECT a * 7 - b AS p, b * 11 + a AS q FROM r"

    @staticmethod
    def count_compiles(monkeypatch):
        compiled = []
        original = pipeline.compile_expression

        def counting(text, *args, **kwargs):
            compiled.append(text)
            return original(text, *args, **kwargs)

        monkeypatch.setattr(pipeline, "compile_expression", counting)
        return compiled

    def test_execute_compiles_each_kernel_once(self, monkeypatch):
        compiled = self.count_compiles(monkeypatch)
        db, _ = make_db(rows=20)
        cold = db.execute(self.SQL)
        assert len(compiled) == 2
        assert cold.report.kernels_compiled == 2
        warm = db.execute(self.SQL)
        assert len(compiled) == 2
        assert warm.report.kernels_cached == 2
        assert warm.rows == cold.rows

    def test_explain_compiles_privately(self, monkeypatch):
        db, _ = make_db(rows=20)
        db.execute(self.SQL)
        cached = len(db.kernel_cache)
        compiled = self.count_compiles(monkeypatch)
        explained = db.explain(self.SQL)
        assert len(compiled) == 2
        assert len(explained.kernels) == 2
        assert len(db.kernel_cache) == cached

    def test_batch_spec_must_match_the_planned_kernel(self):
        planned_on = build_relation("t", {"a": "DECIMAL(10, 2)"}, [("1.25",), ("2.50",)])
        stats = PlanStats(main=TableStats.from_relation(planned_on), simulate_rows=1_000)
        plan = plan_query(parse_query("SELECT a * 2 AS d FROM t"), ["a"], stats=stats)
        wider = build_relation("t", {"a": "DECIMAL(12, 4)"}, [("1.2500",), ("2.5000",)])
        context = QueryContext(relation=wider, simulate_rows=1_000)
        with pytest.raises(ExecutionError, match=r"calc_expr_0: column 'a'"):
            run_plan(plan, context)
