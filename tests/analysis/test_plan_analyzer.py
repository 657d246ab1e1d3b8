"""Plan-level static analyzer: seeded bugs are caught, clean plans prove out.

The acceptance bar for each pass: a deliberately broken rewrite rule (a
pushdown that drops a conjunct) is caught by the differential audit; a
tampered physical plan trips the schema pass; and a real query's
precision proof agrees with the kernel range pass (``PREC004``).
"""

from repro.analysis.plan import analyze_plan, check_rewrites
from repro.analysis.plan import precision, rewrite_audit, schema_flow
from repro.engine import Database
from repro.engine.plan.cost import OptimizerConfig
from repro.engine.plan.logical import LogicalFilter, _referenced_columns
from repro.engine.plan.physical import FilterOp, ProjectOp, ScanOp, SortOp
from repro.engine.plan.planner import plan_query
from repro.engine.plan.rules import RewriteEvent, RewriteRule
from repro.engine.sql.parser import parse_query


def make_db() -> Database:
    db = Database(simulate_rows=1_000_000)
    db.create_table(
        "fact",
        {
            "f_key": "INT",
            "f_qty": "INT",
            "f_amount": "DECIMAL(12, 2)",
            "f_rate": "DECIMAL(6, 4)",
            "f_tag": "CHAR(2)",
        },
        rows=[(k % 4, k, f"{k}.25", f"0.{k:04d}", "aa") for k in range(12)],
    )
    db.create_table(
        "dim",
        {"d_key": "INT", "d_weight": "DECIMAL(8, 2)"},
        rows=[(k, f"{k}.50") for k in range(4)],
    )
    return db


def planned(db: Database, sql: str, optimizer=None):
    """Plan through the real session statistics; returns ``(plan, stats)``."""
    query = parse_query(sql)
    relation = db.catalog.get(query.table)
    joined = {join.table: db.catalog.get(join.table) for join in query.joins}
    return plan_query(
        query,
        relation.column_names,
        {name: rel.column_names for name, rel in joined.items()},
        stats=db._plan_stats(relation, joined, relation.rows),
        optimizer=optimizer if optimizer is not None else OptimizerConfig(),
    ), db._plan_stats(relation, joined, relation.rows)


class BrokenPushdownRule(RewriteRule):
    """A seeded rule bug: 'pushdown' that silently drops a conjunct."""

    name = "filter-pushdown"

    def __init__(self) -> None:
        self.fired = False

    def apply(self, nodes, stats=None):
        if self.fired:
            return None
        for node in nodes:
            if isinstance(node, LogicalFilter) and node.predicates:
                node.predicates.pop()
                self.fired = True
                return nodes, "pushed 1 conjunct (dropped it, actually)"
        return None


class TestSeededRuleBugs:
    SQL = "SELECT f_qty, f_amount FROM fact WHERE f_qty > 3 AND f_amount < 10.00"

    def test_conjunct_dropping_pushdown_is_caught(self, monkeypatch):
        monkeypatch.setattr(
            "repro.engine.plan.planner.default_rules",
            lambda **kwargs: [BrokenPushdownRule()],
        )
        db = make_db()
        plan, stats = planned(db, self.SQL)
        report = analyze_plan(plan, stats=stats)
        rules = {d.rule for d in report.errors}
        assert rewrite_audit.PUSHDOWN_CONJUNCTS in rules, report.format()


class TestSeededPlanTampering:
    def test_scan_losing_a_needed_column_is_plan001(self):
        db = make_db()
        plan, stats = planned(db, "SELECT f_qty FROM fact WHERE f_amount < 10.00")
        scan = next(op for op in plan if isinstance(op, ScanOp))
        scan.columns.remove("f_amount")
        scan.predicates = None  # leave only the batch-availability bug
        report = analyze_plan(plan, stats=stats)
        assert schema_flow.MISSING_COLUMN in {d.rule for d in report.errors}

    def test_projection_dropping_a_sort_key_is_plan002(self):
        db = make_db()
        plan, stats = planned(db, "SELECT f_qty FROM fact ORDER BY f_amount")
        project = next(op for op in plan if isinstance(op, ProjectOp))
        assert "f_amount" in project.carry  # sort-key retention put it there
        project.carry.remove("f_amount")
        report = analyze_plan(plan, stats=stats)
        assert schema_flow.SORT_KEY_LOST in {d.rule for d in report.errors}

    def test_unsound_zone_pushdown_is_plan004(self):
        db = make_db()
        plan, stats = planned(
            db, "SELECT f_qty FROM fact WHERE f_qty > 3 AND f_qty < 9"
        )
        scan = next(op for op in plan if isinstance(op, ScanOp))
        fltr = next(op for op in plan if isinstance(op, FilterOp))
        # Pretend the planner pushed the same conjunct twice: not a
        # sub-multiset of the filter, so pruning could drop kept rows.
        scan.predicates = [fltr.predicates[0], fltr.predicates[0]]
        report = analyze_plan(plan, stats=stats)
        assert schema_flow.UNSOUND_ZONE_PUSHDOWN in {d.rule for d in report.errors}

    def test_sort_key_nowhere_is_plan002_without_project(self):
        db = make_db()
        plan, stats = planned(db, "SELECT f_qty FROM fact ORDER BY f_qty")
        sort = next(op for op in plan if isinstance(op, SortOp))
        object.__setattr__(sort.keys[0], "column", "f_ghost")
        report = analyze_plan(plan, stats=stats)
        assert schema_flow.SORT_KEY_LOST in {d.rule for d in report.errors}


class TestRewriteAuditUnits:
    def test_reorder_without_aggregate_gate_is_rule004(self):
        snapshot = (
            ("scan", "fact", ("f_key", "f_amount")),
            ("join", "dim", "f_key", "d_key", ("d_weight",), ()),
            ("project", ("f_amount",), ("f_amount",), ()),
        )
        event = RewriteEvent("join-reorder", "moved dim first", snapshot, snapshot)
        rules = {d.rule for d in check_rewrites([event])}
        assert rewrite_audit.REORDER_GATE in rules

    def test_pruning_that_grows_a_ship_set_is_rule005(self):
        before = (("scan", "fact", ("f_key",)),)
        after = (("scan", "fact", ("f_key", "f_amount")),)
        event = RewriteEvent("projection-pruning", "pruned", before, after)
        rules = {d.rule for d in check_rewrites([event])}
        assert rewrite_audit.PRUNING_GREW in rules

    def test_events_without_snapshots_are_skipped(self):
        assert check_rewrites([RewriteEvent("filter-pushdown", "legacy")]) == []


class TestPrecisionProofs:
    def test_plan_and_kernel_proofs_agree_on_tpch_q6(self):
        from repro.storage import tpch
        from repro.workloads.tpch_queries import Q6_SQL

        db = Database(simulate_rows=10_000_000)
        db.register(tpch.lineitem(rows=16, seed=11))
        report = db.explain(Q6_SQL).plan_diagnostics
        assert report is not None and not report.has_errors
        rules = {d.rule for d in report.infos}
        assert precision.EXPR_PROOF in rules  # PREC004: proofs cross-checked
        assert precision.AGGREGATE_PROOF in rules

    def test_explain_surfaces_plan_diagnostics(self):
        from repro.storage import tpch
        from repro.workloads.tpch_queries import Q6_SQL

        db = Database(simulate_rows=10_000_000)
        db.register(tpch.lineitem(rows=16, seed=11))
        text = db.explain(Q6_SQL).format()
        assert "plan diagnostics:" in text
        assert "PREC004" in text


class TestMentionsTokenMatching:
    """A column is read when the expression tree names it, never by text match."""

    def test_prefix_of_longer_identifier_is_not_a_mention(self):
        def columns(sql):
            return [item.columns for item in parse_query(sql).select_items]

        assert columns("SELECT o_orderkey2 + 1 FROM t") == [["o_orderkey2"]]
        assert columns("SELECT o_orderkey + 1 FROM t") == [["o_orderkey"]]
        assert columns("SELECT SUM(o_orderkey) FROM t") == [["o_orderkey"]]

    def test_referenced_columns_skip_prefix_collisions(self):
        query = parse_query("SELECT o_orderkey2 FROM t")
        available = ["o_orderkey", "o_orderkey2"]
        assert _referenced_columns(query, available) == ["o_orderkey2"]
