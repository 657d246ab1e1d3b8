"""Checks of the benchmark's own oracle, query generator and metric catalog.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import metrics  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from oracle import Dec  # noqa: E402
from repro.engine import Database  # noqa: E402
from repro.storage import tpch  # noqa: E402
from repro.workloads import tpch_queries  # noqa: E402


@pytest.fixture(scope="module")
def tpch_db():
    relations = [
        tpch.lineitem_with_orderkeys(rows=3_000, seed=5, order_count=600),
        tpch.orders(rows=600, seed=7),
        tpch.customer(rows=80, seed=8),
        tpch.nation(),
    ]
    database = Database(simulate_rows=1_000_000)
    for relation in relations:
        database.register(relation)
    tables = {relation.name: oracle.Table.from_relation(relation) for relation in relations}
    return database, tables


def _answer(spec, tables):
    if isinstance(spec, oracle.TableQuery):
        return spec.evaluate(tables["lineitem"])
    return spec(tables)


@pytest.mark.parametrize("position", range(len(workloads.TpchOlap.QUERIES)))
def test_oracle_agrees_with_engine_on_tpch(tpch_db, position):
    database, tables = tpch_db
    _, sql, spec = workloads.TpchOlap.QUERIES[position]
    rows = oracle.canonical_rows(database.execute(sql).rows)
    assert rows, "query returned nothing; the check would be vacuous"
    assert oracle.compare(_answer(spec, tables), rows) is None


def _replace_last(rows, row, value):
    return [r[:-1] + (value,) if i == row else r for i, r in enumerate(rows)]


@pytest.mark.parametrize(
    "sql, spec",
    [(tpch_queries.Q1_SQL, oracle.Q1), (tpch_queries.Q3_SQL, oracle.q3)],
    ids=["Q1", "Q3"],
)
def test_oracle_catches_a_corrupted_row(tpch_db, sql, spec):
    database, tables = tpch_db
    expected = _answer(spec, tables)
    rows = oracle.canonical_rows(database.execute(sql).rows)
    assert oracle.compare(expected, rows) is None
    value = rows[1][-1]
    # One unit in the last place of one value.
    off_by_one = Dec(value.unscaled + 1, value.scale)
    assert oracle.compare(expected, _replace_last(rows, 1, off_by_one)) is not None
    # The same number at another scale.
    rescaled = Dec(value.unscaled * 10, value.scale + 1)
    assert oracle.compare(expected, _replace_last(rows, 1, rescaled)) is not None
    # A missing row.
    assert oracle.compare(expected, rows[:-1]) is not None


def test_oracle_checks_order_only_when_the_query_fixes_it(tpch_db):
    database, tables = tpch_db
    rows = oracle.canonical_rows(database.execute(tpch_queries.Q1_SQL).rows)
    expected = oracle.Q1.evaluate(tables["lineitem"])
    assert oracle.compare(expected, rows[::-1], ordered=True) is not None
    assert oracle.compare(expected, rows[::-1], ordered=False) is None


def test_ranked_answers_reject_rows_out_of_order(tpch_db):
    database, tables = tpch_db
    rows = oracle.canonical_rows(database.execute(tpch_queries.Q5_SQL).rows)
    expected = oracle.q5(tables)
    assert oracle.compare(expected, rows) is None
    assert oracle.compare(expected, rows[::-1]) is not None


def test_division_truncates_and_rescales():
    table = oracle.Table(["x"], {"x": 2})
    table.rows = [(-100,), (200,)]  # -1.00, 2.00
    query = oracle.TableQuery(
        "t",
        (oracle.Item("q", "SUM", ("/", oracle.col("x"), oracle.lit("3"))),
         oracle.Item("a", "AVG", oracle.col("x"))),
    )
    # -1/3 -> -0.333333 and 2/3 -> 0.666666 (scale 2 + 4, truncated);
    # AVG = 1.00 / 2 at scale 6.
    assert query.evaluate(table) == [(Dec(333333, 6), Dec(500000, 6))]


def test_snapshots_of_a_growing_table_match_full_evaluations():
    table = oracle.Table(["g", "x"], {"x": 2})
    table.rows = [("A", 5), ("B", 7), ("A", -3), ("B", 11), ("A", 2)]
    query = oracle.TableQuery(
        "t",
        (oracle.Item("s", "SUM", oracle.col("x")), oracle.Item("m", "MIN", oracle.col("x"))),
        group_by=("g",),
        order_by_keys=True,
    )
    snapshots = query.answers(table, [2, 5, 3])
    for prefix, answer in zip([2, 5, 3], snapshots):
        head = oracle.Table(["g", "x"], {"x": 2})
        head.rows = table.rows[:prefix]
        assert answer == query.evaluate(head)


def test_adhoc_queries_match_the_engine():
    relation = tpch.lineitem_for_len(32, rows=200, seed=3)
    database = Database(simulate_rows=1_000_000)
    database.register(relation)
    table = oracle.Table.from_relation(relation)
    shape, values = random.Random(0), random.Random(3)
    for _ in range(40):
        query = workloads.adhoc_query(shape, values)
        rows = oracle.canonical_rows(database.execute(query.sql()).rows)
        assert oracle.compare(query.evaluate(table), rows, query.ordered) is None, query.sql()


def test_generator_keeps_one_constant_per_chain():
    c, k = oracle.col, workloads.CONSTANT
    assert not workloads._acceptable(("*", ("*", c("l_tax"), ("*", k, c("l_tax"))), k))
    assert workloads._acceptable(("*", ("+", c("l_tax"), k), k))
    assert workloads._acceptable(("/", ("*", c("l_tax"), k), k))
    assert not workloads._acceptable(("+", c("l_tax"), c("l_discount")))


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
