"""Golden plan-shape tests for the rewrite rules and the cost model.

Each rule gets an EXPLAIN-level assertion on the rewritten plan shape,
plus regression tests for the cost-accounting fixes that rode along
(distinct-column filter bytes, build-side transfer reduction).
"""

import pytest

from repro.engine import Database
from repro.engine.plan.cost import CostModel, OptimizerConfig
from repro.engine.plan.physical import FilterOp, QueryContext, ScanOp
from repro.engine.sql.ast_nodes import Comparison


def make_db(simulate_rows=1_000_000):
    db = Database(simulate_rows=simulate_rows)
    db.create_table(
        "fact",
        {"f_key": "INT", "f_amount": "DECIMAL(12, 2)", "f_qty": "INT", "f_tag": "CHAR(4)"},
        rows=[(i % 10, f"{i}.25", i % 7, f"t{i % 3}") for i in range(50)],
    )
    db.create_table(
        "dim",
        {"d_key": "INT", "d_label": "CHAR(4)", "d_weight": "DECIMAL(8, 2)"},
        rows=[(i, f"d{i}", f"{i}.50") for i in range(10)],
    )
    return db


def operators(db, sql, **kwargs):
    return db.explain(sql, **kwargs).operators


class TestFilterPushdown:
    def test_left_conjunct_sinks_below_join(self):
        ops = operators(
            make_db(),
            "SELECT f_amount, d_weight FROM fact JOIN dim ON f_key = d_key "
            "WHERE f_qty > 2",
        )
        assert ops[0].startswith("Scan fact")
        assert ops[1].startswith("Filter [f_qty > 2]")
        assert "Join" in ops[2]

    def test_right_conjunct_moves_into_build_side(self):
        ops = operators(
            make_db(),
            "SELECT f_amount, d_weight FROM fact JOIN dim ON f_key = d_key "
            "WHERE d_label = 'd3'",
        )
        join_line = next(op for op in ops if "Join" in op)
        assert "build-filter [d_label = 'd3']" in join_line
        assert not any(op.startswith("Filter") for op in ops)

    def test_rewrite_trace_reports_pushdown(self):
        result = make_db().explain(
            "SELECT f_amount FROM fact JOIN dim ON f_key = d_key "
            "WHERE d_label = 'd3' AND f_qty > 2"
        )
        assert any("filter-pushdown" in line for line in result.rewrites)

    def test_disabled_optimizer_keeps_filter_above_join(self):
        ops = operators(
            make_db(),
            "SELECT f_amount, d_weight FROM fact JOIN dim ON f_key = d_key "
            "WHERE f_qty > 2",
            optimizer=OptimizerConfig.off(),
        )
        assert "Join" in ops[1]
        assert ops[2].startswith("Filter")


class TestPredicateSimplify:
    def test_redundant_bound_dropped(self):
        ops = operators(
            make_db(), "SELECT f_amount FROM fact WHERE f_qty >= 5 AND f_qty >= 3"
        )
        filter_line = next(op for op in ops if op.startswith("Filter"))
        assert "f_qty >= 5" in filter_line
        assert "f_qty >= 3" not in filter_line

    def test_duplicate_conjunct_dropped(self):
        ops = operators(
            make_db(), "SELECT f_amount FROM fact WHERE f_qty > 2 AND f_qty > 2"
        )
        filter_line = next(op for op in ops if op.startswith("Filter"))
        assert filter_line.count("f_qty > 2") == 1

    def test_point_range_becomes_equality(self):
        ops = operators(
            make_db(), "SELECT f_amount FROM fact WHERE f_qty >= 5 AND f_qty <= 5"
        )
        filter_line = next(op for op in ops if op.startswith("Filter"))
        assert "f_qty = 5" in filter_line
        assert "<=" not in filter_line and ">=" not in filter_line

    def test_decimal_bounds_compare_at_column_scale(self):
        # 2.5 and 2.50 canonicalise to the same unscaled value; the wider
        # bound must win exactly as execution would compare it.
        ops = operators(
            make_db(),
            "SELECT f_qty FROM fact WHERE f_amount >= 2.5 AND f_amount >= 2.50 "
            "AND f_amount >= 1.25",
        )
        filter_line = next(op for op in ops if op.startswith("Filter"))
        assert "1.25" not in filter_line
        assert filter_line.count(">=") == 1

    def test_contradiction_proves_empty(self):
        db = make_db()
        ops = operators(db, "SELECT f_amount FROM fact WHERE f_qty > 5 AND f_qty < 3")
        assert any("Filter [FALSE]" in op for op in ops)
        result = db.execute("SELECT f_amount FROM fact WHERE f_qty > 5 AND f_qty < 3")
        assert result.rows == []

    def test_contradictory_equalities(self):
        db = make_db()
        result = db.execute(
            "SELECT f_amount FROM fact WHERE f_tag = 't1' AND f_tag = 't2'"
        )
        assert result.rows == []


class TestProjectionPruning:
    def test_join_ship_set_drops_predicate_only_column(self):
        # d_label is only needed by the build-side predicate; it must not
        # be shipped over PCIe with the join's output columns.
        result = make_db().explain(
            "SELECT f_amount, d_weight FROM fact JOIN dim ON f_key = d_key "
            "WHERE d_label = 'd3'"
        )
        assert any(
            "projection-pruning" in line and "d_label" in line for line in result.rewrites
        )

    def test_build_key_always_survives_pruning(self):
        ops = operators(
            make_db(),
            "SELECT f_amount FROM fact JOIN dim ON f_key = d_key",
        )
        join_line = next(op for op in ops if "Join" in op)
        assert "f_key = d_key" in join_line


class TestSortKeyRetention:
    def test_carry_and_drop_appear_in_plan(self):
        ops = operators(make_db(), "SELECT f_amount FROM fact ORDER BY f_qty")
        project_line = next(op for op in ops if op.startswith("Project"))
        assert "carry [f_qty]" in project_line
        assert any(op.startswith("Drop [f_qty]") for op in ops)


class TestCostModelChoices:
    def test_tiny_build_side_takes_nested_loop(self):
        db = Database()  # simulate at the actual (tiny) row counts
        db.create_table(
            "fact", {"k": "INT", "x": "DECIMAL(10, 2)"},
            rows=[(i % 3, f"{i}.00") for i in range(60)],
        )
        db.create_table(
            "dim", {"k2": "INT", "w": "DECIMAL(8, 2)"},
            rows=[(0, "0.50"), (1, "1.50"), (2, "2.50")],
        )
        ops = operators(db, "SELECT x, w FROM fact JOIN dim ON k = k2")
        assert any(op.startswith("NestedLoopJoin") for op in ops)

    def test_large_build_side_takes_hash(self):
        ops = operators(
            make_db(), "SELECT f_amount, d_weight FROM fact JOIN dim ON f_key = d_key"
        )
        assert any("HashJoin dim" in op for op in ops)

    def test_choice_is_traced(self):
        result = make_db().explain(
            "SELECT f_amount, d_weight FROM fact JOIN dim ON f_key = d_key"
        )
        assert any(line.startswith("join dim: hash") for line in result.choices)

    def test_every_operator_is_costed(self):
        result = make_db().explain(
            "SELECT f_tag, SUM(f_amount) FROM fact WHERE f_qty > 1 "
            "GROUP BY f_tag ORDER BY f_tag LIMIT 3"
        )
        assert result.operators
        assert all("(cost=" in op for op in result.operators)

    def test_explain_formats_rewrites_section(self):
        text = make_db().explain(
            "SELECT f_amount FROM fact JOIN dim ON f_key = d_key WHERE d_label = 'd1'"
        ).format()
        assert "rewrites:" in text
        assert "choices:" in text


class TestFilterCostAccounting:
    def _filter_seconds(self, predicates):
        db = make_db()
        relation = db.catalog.get("fact")
        context = QueryContext(
            relation=relation,
            simulate_rows=1_000_000,
            cost_model=CostModel(include_scan=False),
        )
        batch = ScanOp(["f_key", "f_qty", "f_amount"]).run(None, context)
        before = context.report.filter_seconds
        FilterOp(predicates).run(batch, context)
        return context.report.filter_seconds - before

    def test_repeated_column_charged_once(self):
        # Two conjuncts over one column read the same bytes as one: the
        # old per-predicate sum double-charged the column.
        one = self._filter_seconds([Comparison("f_qty", ">", 1)])
        two = self._filter_seconds(
            [Comparison("f_qty", ">", 1), Comparison("f_qty", "<", 6)]
        )
        assert two == pytest.approx(one)

    def test_distinct_columns_still_accumulate(self):
        one = self._filter_seconds([Comparison("f_qty", ">", 1)])
        two = self._filter_seconds(
            [Comparison("f_qty", ">", 1), Comparison("f_amount", ">", 5)]
        )
        assert two > one

    def test_column_rhs_counts_toward_bytes(self):
        lhs_only = self._filter_seconds([Comparison("f_qty", ">", 1)])
        with_rhs = self._filter_seconds(
            [Comparison("f_qty", ">", 1, column_rhs="f_key")]
        )
        assert with_rhs > lhs_only


class TestTransferReduction:
    def test_build_side_pushdown_reduces_pcie_bytes(self):
        db = make_db()
        sql = (
            "SELECT f_amount, d_weight FROM fact JOIN dim ON f_key = d_key "
            "WHERE d_label = 'd3'"
        )
        on = db.execute(sql)
        off = db.execute(sql, optimizer=OptimizerConfig.off())
        assert on.rows == off.rows
        assert on.report.pcie_bytes < off.report.pcie_bytes

    def test_chunk_choice_is_cost_based(self):
        model = CostModel()
        db = make_db()
        # The chooser must at least never lose to the static default.
        from repro.core.jit.pipeline import compile_expression
        from repro.gpusim.streaming import StreamingConfig, stream_timing

        relation = db.catalog.get("fact")
        compiled = compile_expression(
            "f_amount * 2", relation.decimal_schema(), db.jit_options
        )
        streaming = StreamingConfig(enabled=True)
        chunk = model.choose_chunk_rows(compiled.kernel, 1_000_000, streaming, 0.0)
        chosen = stream_timing(compiled.kernel, 1_000_000, chunk, model.device)
        static = stream_timing(
            compiled.kernel,
            1_000_000,
            streaming.resolve_chunk_rows(compiled.kernel, model.device, 1_000_000),
            model.device,
        )
        assert chosen.pipelined_seconds <= static.pipelined_seconds
