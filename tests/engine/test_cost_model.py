"""The cost model is the engine's one pricing function.

Execution charges every simulated second through a ``CostModel`` method
with the actual bytes and rows; the planner and EXPLAIN call the same
methods with estimated ones.  So where the estimated rows are exact -- a
single table, no WHERE, exact NDVs -- EXPLAIN's total is the executed
total, and no other engine module prices anything.
"""

import ast
import inspect

import pytest

from repro.engine import Database, explain, executor
from repro.engine.plan import physical
from repro.gpusim.streaming import StreamingConfig
from repro.storage import tpch
from repro.storage.codecs import CompactCodec, OrderPreservingCodec
from repro.storage.schema import DecimalType

EXACT_QUERIES = [
    "SELECT SUM(l_extendedprice * (1 - l_discount)), SUM(l_quantity), "
    "AVG(l_discount), MAX(l_tax), COUNT(*) FROM lineitem",
    "SELECT l_returnflag, l_linestatus, SUM(l_quantity), "
    "SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)), AVG(l_extendedprice), "
    "COUNT(*) FROM lineitem GROUP BY l_returnflag, l_linestatus "
    "ORDER BY l_returnflag, l_linestatus",
    "SELECT l_returnflag, MIN(l_discount) FROM lineitem GROUP BY l_returnflag",
    "SELECT l_extendedprice * l_discount AS revenue, l_quantity FROM lineitem",
    "SELECT l_extendedprice + l_tax AS charged FROM lineitem ORDER BY charged LIMIT 3",
]


def lineitem_db(relation=None, streaming=None):
    db = Database(simulate_rows=10_000_000, streaming=streaming)
    db.register(relation if relation is not None else tpch.lineitem(rows=400, seed=11))
    return db


class TestExplainAgreesWithExecution:
    @pytest.mark.parametrize("sql", EXACT_QUERIES)
    def test_total_is_the_executed_total(self, sql):
        db = lineitem_db()
        estimated = db.explain(sql).estimated_total_ms
        executed = db.execute(sql).report.total_seconds * 1e3
        assert estimated == pytest.approx(executed, rel=1e-9, abs=0.0)

    def test_compile_is_the_executed_compile(self):
        db = lineitem_db()
        sql = EXACT_QUERIES[1]
        estimated = db.explain(sql).estimated_compile_ms
        assert estimated == pytest.approx(db.execute(sql).report.compile_seconds * 1e3)


class TestStreamedKernelTiming:
    """EXPLAIN prices a streamed kernel's transfer at the bytes the scan
    ships under the column's codec, not at the spec's compact width."""

    SQL = "SELECT SUM(l_extendedprice * (1 - l_discount)) FROM lineitem"

    @pytest.mark.parametrize("codec", [None, CompactCodec(), OrderPreservingCodec()])
    def test_explain_timing_is_the_executed_timing(self, codec):
        relation = tpch.lineitem_for_len(32, rows=2_000, seed=7)
        if codec is not None:
            relation = relation.with_codecs(
                {
                    column.name: codec
                    for column in relation.columns
                    if isinstance(column.column_type, DecimalType)
                }
            )
        db = lineitem_db(relation, StreamingConfig(enabled=True))
        (planned,) = db.explain(self.SQL).kernels
        (executed,) = db.execute(self.SQL).report.kernel_executions
        assert planned.timing == executed.timing


class TestOnePricingModule:
    @pytest.mark.parametrize("module", [physical, executor, explain])
    def test_no_gpusim_pricing_outside_the_cost_model(self, module):
        priced = {"repro.gpusim.timing", "repro.gpusim.occupancy"}
        imported = set()
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        assert not imported & priced
        assert not {
            getattr(value, "__name__", None)
            for value in vars(module).values()
            if inspect.ismodule(value)
        } & priced


class TestJoinCrossover:
    """Nested loop wins only below about 6 estimated build rows (DESIGN.md §10)."""

    @pytest.mark.parametrize("build_rows, algorithm", [(6, "NestedLoopJoin"), (7, "HashJoin")])
    def test_build_side_either_side_of_the_crossover(self, build_rows, algorithm):
        db = Database()  # estimates at the actual row counts
        db.create_table(
            "fact",
            {"k": "INT", "x": "DECIMAL(10, 2)"},
            rows=[(i % build_rows, f"{i}.00") for i in range(600)],
        )
        db.create_table(
            "dim",
            {"k2": "INT", "w": "DECIMAL(8, 2)"},
            rows=[(i, f"{i}.50") for i in range(build_rows)],
        )
        explained = db.explain("SELECT x, w FROM fact JOIN dim ON k = k2")
        (join,) = [op for op in explained.operators if "Join dim" in op]
        assert join.startswith(algorithm)
