"""A join-free plan reads no table data: only column names and types.

Planning a query without a join must not read the main table's row
count, column widths, zone maps or column statistics: its plan is then a
function of the query, the planning inputs and the table's schema, which
is what lets ``Database.execute`` keep it across appends.  Each plan made
through statistics that refuse every data read must equal the plan made
with the real ones.  A join's order and algorithm come from statistics,
so planning one the same way must fail.
"""

import pytest

from repro.analysis.plan import analyze_plan
from repro.core.decimal.context import DecimalSpec
from repro.core.jit.codegen import render_source
from repro.core.jit.pipeline import CompiledExpression, KernelCache
from repro.engine.plan.cost import OptimizerConfig, PlanStats, TableStats
from repro.engine.plan.physical import PhysicalOp
from repro.engine.plan.planner import plan_query
from repro.engine.sql.ast_nodes import Comparison, OrderKey, SelectItem
from repro.engine.sql.parser import parse_query
from repro.workloads import tpch_queries

from tests.engine.test_explain_golden import tpch_olap_database
from tests.engine.test_plan_cache import JOIN_SQL, make_db
from tests.gpusim.test_kernel_profile import SERVE_RW_READS, serve_rw_database

SIMULATE_ROWS = 10_000_000

#: ``(workload, name) -> SQL``: serve_rw's four read shapes, a HAVING
#: query and an ordered, limited projection over its table, and TPC-H Q1
#: and Q6 over tpch_olap's.
CASES = {
    **{
        ("serve_rw", name): sql
        for name, sql in zip(("Q1", "Q6", "projection", "grouped"), SERVE_RW_READS)
    },
    ("serve_rw", "having"): (
        "SELECT l_returnflag, SUM(l_extendedprice) AS total, COUNT(*) AS n FROM lineitem "
        "GROUP BY l_returnflag HAVING total > 100 ORDER BY l_returnflag"
    ),
    ("serve_rw", "order-limit"): (
        "SELECT l_extendedprice * l_tax AS t, l_quantity FROM lineitem "
        "WHERE l_discount < 0.05 ORDER BY l_quantity DESC LIMIT 5"
    ),
    ("tpch_olap", "Q1"): tpch_queries.Q1_SQL,
    ("tpch_olap", "Q6"): tpch_queries.Q6_SQL,
}
OPTIMIZERS = [OptimizerConfig(), OptimizerConfig.off()]


class DataRead(Exception):
    """Planning read table data."""


def _refuse(what):
    def read(self):
        raise DataRead(f"planning read the table's {what}")

    return property(read)


class SchemaOnly(TableStats):
    """A table's statistics that hold its column types and refuse every
    data read: rows, widths, zone maps and column statistics."""

    def __init__(self, column_types):
        self.column_types = column_types

    rows = _refuse("row count")
    column_bytes = _refuse("column widths")
    zones = _refuse("zone maps")
    columns = _refuse("columns")

    def column_stats(self, name):
        raise DataRead(f"planning read the statistics of {name!r}")


def render(value):
    """A plan's structure: operator types and fields, predicates, items,
    kernel names and specs; nothing that an identity could change."""
    if isinstance(value, PhysicalOp):
        return (type(value).__name__, {k: render(v) for k, v in sorted(vars(value).items())})
    if isinstance(value, (list, tuple)):
        return [render(v) for v in value]
    if isinstance(value, dict):
        return {k: render(v) for k, v in value.items()}
    if isinstance(value, SelectItem):
        return ("item", value.name, value.text)
    if isinstance(value, CompiledExpression):
        kernel = value.kernel
        return (
            "kernel",
            kernel.name,
            str(kernel.result_spec),
            sorted((name, str(spec)) for name, spec in kernel.input_columns.items()),
            value.tree.to_sql(),
            render_source(kernel),
        )
    if isinstance(value, (Comparison, OrderKey, DecimalSpec)):
        return str(value)
    return repr(value)


def plan(database, sql, optimizer, main):
    query = parse_query(sql)
    relation = database.catalog.get(query.table)
    joined = {join.table: database.catalog.get(join.table) for join in query.joins}
    stats = PlanStats(
        main=main(relation),
        joined={name: TableStats.from_relation(rel) for name, rel in joined.items()},
        simulate_rows=SIMULATE_ROWS,
    )
    planned = plan_query(
        query,
        relation.column_names,
        {name: rel.column_names for name, rel in joined.items()},
        stats=stats,
        optimizer=optimizer,
        kernel_cache=KernelCache(),
    )
    report = analyze_plan(planned, stats=stats, label=query.table)
    return (
        render(list(planned)),
        [event.format() for event in planned.events],
        list(planned.choices),
        [diagnostic.format() for diagnostic in report.diagnostics],
    )


def schema_only(relation):
    return SchemaOnly(TableStats.from_relation(relation).column_types)


@pytest.fixture(scope="module")
def databases():
    return {"serve_rw": serve_rw_database(), "tpch_olap": tpch_olap_database()}


@pytest.mark.parametrize("optimizer", OPTIMIZERS, ids=["optimizer-on", "optimizer-off"])
@pytest.mark.parametrize("case", sorted(CASES), ids="/".join)
def test_join_free_planning_reads_no_data(databases, case, optimizer):
    database, sql = databases[case[0]], CASES[case]
    blind = plan(database, sql, optimizer, schema_only)
    seeing = plan(database, sql, optimizer, TableStats.from_relation)
    assert blind == seeing
    assert blind[3]  # the analyzer's proofs are part of what must match


@pytest.mark.parametrize("optimizer", OPTIMIZERS, ids=["optimizer-on", "optimizer-off"])
def test_planning_a_join_reads_statistics(optimizer):
    with pytest.raises(DataRead):
        plan(make_db(), JOIN_SQL, optimizer, schema_only)

