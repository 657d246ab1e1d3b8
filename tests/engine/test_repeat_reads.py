"""Reads derive nothing twice.

Join and group key codes and join build sides are kept with the column
version that owns the rows, so a repeated read computes none of them; a
join node keeps its build-side predicate mask for the column versions it
read, so a repeated read evaluates none, and its probe map and filtered
build side likewise; a filter, join or sort hands on
views of its input, and a bare projection renames its input, so a
repeated read expands no column either.  Within one read, a grouped
aggregate gathers each input column once, straight into group order, and
the result values hold no limb words until something reads them.
"""

import dataclasses
from collections import Counter
from unittest import mock

from repro.core.decimal import words
from repro.core.decimal.value import DecimalValue
from repro.core.decimal.vectorized import DecimalVector
from repro.engine import Database
from repro.engine.plan import physical, reference
from repro.engine.plan.physical import ExecutionReport
from repro.engine.sql.ast_nodes import Comparison
from repro.storage import tpch
from repro.storage.relation import Relation
from repro.storage.schema import DecimalType
from repro.workloads import tpch_queries

QUERIES = (tpch_queries.Q1_SQL, tpch_queries.Q3_SQL, tpch_queries.Q5_SQL, tpch_queries.Q10_SQL)


def tpch_database():
    database = Database(simulate_rows=10_000_000)
    for relation in (
        tpch.lineitem_with_orderkeys(rows=2_000, seed=1, order_count=400),
        tpch.orders(rows=400, seed=3, lineitem_orders=400),
        tpch.customer(rows=60, seed=4),
        tpch.nation(),
    ):
        database.register(relation)
    return database


def first_row(relation):
    """Row 0 of ``relation`` as host literals, ready for ``Database.append``."""
    row = []
    for column in relation.columns:
        if isinstance(column.column_type, DecimalType):
            row.append(str(DecimalValue.from_unscaled(column.unscaled()[0], column.column_type.spec)))
        elif column.data.dtype.kind == "S":
            row.append(column.data[0].decode().rstrip())
        else:
            row.append(int(column.data[0]))
    return tuple(row)


def derivations(database, queries):
    """Run ``queries``; count the key codings and build-side sorts per
    ``(table, column)`` whose rows they derive from."""
    owners = {
        id(column): (relation.name, column.name)
        for relation in (database.catalog.get(name) for name in database.catalog.names())
        for column in relation.columns
    }
    counts = Counter()
    rank_keys, build_side = physical._rank_keys, physical._build_side

    def counted(kind, derive):
        def run(column):
            counts[(kind,) + owners.get(id(column), ("?", column.name))] += 1
            return derive(column)

        return run

    with mock.patch.object(physical, "_rank_keys", counted("codes", rank_keys)), mock.patch.object(
        physical, "_build_side", counted("build", build_side)
    ):
        results = [database.execute(sql).rows for sql in queries]
    return counts, results


class TestKeysDerivedOncePerVersion:
    def test_second_run_derives_nothing_and_an_append_rederives_lineitem_once(self):
        database = tpch_database()
        first, rows = derivations(database, QUERIES)
        assert first and all(count == 1 for count in first.values())
        assert ("build", "lineitem", "l_orderkey") in first

        again, rows_again = derivations(database, QUERIES)
        assert again == Counter()
        assert rows_again == rows

        lineitem = database.catalog.get("lineitem")
        database.append("lineitem", [first_row(lineitem)])
        after, _ = derivations(database, QUERIES)
        expected = Counter({key: 1 for key in first if key[1] == "lineitem"})
        assert after == expected


def build_side_masks(database, queries):
    """Run ``queries``; count the build-side predicate evaluations per
    joined table (a filter's evaluation reads a batch, not a relation)."""
    counts = Counter()
    conjunction_mask = physical._conjunction_mask

    def counted(predicates, column, rows):
        owner = getattr(column, "__self__", None)
        if isinstance(owner, Relation):
            counts[owner.name] += 1
        return conjunction_mask(predicates, column, rows)

    with mock.patch.object(physical, "_conjunction_mask", counted):
        results = [database.execute(sql) for sql in queries]
    return counts, results


#: Simulated charges but the compile, which only a kernel cache miss pays.
SIMULATED = [
    field.name
    for field in dataclasses.fields(ExecutionReport)
    if field.name.endswith(("_seconds", "_bytes"))
    and field.name not in ("data_plane_seconds", "compile_seconds")
]


def answers(results):
    """Rows and every simulated charge (PCIe bytes included) of each result."""
    return [
        (result.rows, {name: getattr(result.report, name) for name in SIMULATED})
        for result in results
    ]


class TestBuildSideMaskOncePerVersion:
    JOINS = (tpch_queries.Q3_SQL, tpch_queries.Q5_SQL, tpch_queries.Q10_SQL)

    def test_second_read_evaluates_no_build_side_predicate(self):
        database = tpch_database()
        first, results = build_side_masks(database, self.JOINS)
        assert first["customer"] + first["orders"] >= 2 and first["lineitem"] == 1
        again, results_again = build_side_masks(database, self.JOINS)
        assert again == Counter()
        # The kept mask ships the same bytes, keeps the same survival
        # (which prices the join) and joins the same rows.
        assert answers(results_again) == answers(results)
        assert all(result.rows for result in results)

    def test_an_append_recomputes_the_mask(self):
        database = tpch_database()
        lineitem = database.catalog.get("lineitem")
        op = physical.HashJoinOp(None, ["l_orderkey"], [Comparison("l_returnflag", "=", "R")])
        with mock.patch.object(
            physical, "_conjunction_mask", wraps=physical._conjunction_mask
        ) as evaluate:
            keep, survival = op._right_keep(lineitem)
            assert not keep.flags.writeable
            again, survival_again = op._right_keep(lineitem)
            assert evaluate.call_count == 1
            assert again is keep and survival_again == survival

            row = list(first_row(lineitem))
            row[lineitem.column_names.index("l_returnflag")] = "R"
            appended = database.append("lineitem", [tuple(row)])
            grown, grown_survival = op._right_keep(appended)
            assert evaluate.call_count == 2
        assert grown.tolist() == keep.tolist() + [True]
        assert grown_survival == (int(keep.sum()) + 1) / appended.rows

    def test_reads_after_an_append_match_a_cold_database(self):
        database = tpch_database()
        build_side_masks(database, self.JOINS)
        database.append("lineitem", [first_row(database.catalog.get("lineitem"))])
        _, warm = build_side_masks(database, self.JOINS)

        cold = Database(simulate_rows=10_000_000)
        for name in database.catalog.names():
            cold.register(database.catalog.get(name))
        _, fresh = build_side_masks(cold, self.JOINS)
        assert answers(warm) == answers(fresh)


class TestJoinArraysOncePerNode:
    JOINS = (tpch_queries.Q3_SQL, tpch_queries.Q5_SQL, tpch_queries.Q10_SQL)

    def test_second_read_builds_no_probe_map_or_build_runs(self):
        database = tpch_database()
        counts = Counter()
        probe_map, build_runs = physical._probe_map, physical._build_runs

        def counted_probe_map(left, right):
            counts["probe map"] += 1
            return probe_map(left, right)

        def counted_build_runs(right, keep):
            counts["filtered build side" if keep is not None else "build side"] += 1
            return build_runs(right, keep)

        with mock.patch.object(physical, "_probe_map", counted_probe_map), mock.patch.object(
            physical, "_build_runs", counted_build_runs
        ):
            first = [database.execute(sql) for sql in self.JOINS]
            assert counts["probe map"] >= 3 and counts["filtered build side"] >= 2
            counts.clear()
            again = [database.execute(sql) for sql in self.JOINS]
        assert counts == Counter()
        assert answers(again) == answers(first)
        assert all(result.rows for result in first)


class TestBareProjectionsShareTheirInput:
    SQL = "SELECT l_quantity, l_extendedprice FROM lineitem WHERE l_quantity < 10"

    def test_second_read_unpacks_nothing(self):
        database = Database(simulate_rows=10_000_000)
        database.register(tpch.lineitem_with_orderkeys(rows=20_000, seed=1, order_count=4_000))
        first = database.execute(self.SQL)
        assert first.rows
        with mock.patch.object(
            DecimalVector, "from_compact", wraps=DecimalVector.from_compact
        ) as unpack:
            second = database.execute(self.SQL)
        assert unpack.call_count == 0
        assert second.rows == first.rows


class TestGroupInputsGatheredOnce:
    @staticmethod
    def run_grouped(sql, group_aggregate):
        """``sql`` with ``group_aggregate`` as the grouped operator; returns
        the result, the operator's input row count and the row count of
        every ``DecimalVector.take`` inside the operator."""
        database = Database(simulate_rows=10_000_000)
        database.register(tpch.lineitem_for_len(8, rows=300, seed=7))
        take = DecimalVector.take
        sizes, batch_rows = [], []

        def counted_take(vector, indices):
            sizes.append(len(indices))
            return take(vector, indices)

        def run(op, batch, context):
            batch_rows.append(batch.rows)
            with mock.patch.object(DecimalVector, "take", counted_take):
                return group_aggregate(op, batch, context)

        with mock.patch.object(physical.GroupAggregateOp, "run", run):
            result = database.execute(sql)
        (rows,) = batch_rows
        return result, rows, sizes

    def assert_matches_the_row_loop(self, sql, result, rows):
        oracle, oracle_rows, _ = self.run_grouped(sql, reference.group_aggregate)
        assert oracle_rows == rows
        assert result.rows == oracle.rows
        # The oracle charges everything but the key sort.
        simulated = [
            field.name
            for field in dataclasses.fields(ExecutionReport)
            if field.name.endswith(("_seconds", "_bytes"))
            and field.name not in ("data_plane_seconds", "sort_seconds")
        ]
        assert {name: getattr(result.report, name) for name in simulated} == {
            name: getattr(oracle.report, name) for name in simulated
        }
        assert [entry.timing for entry in result.report.kernel_executions] == [
            entry.timing for entry in oracle.report.kernel_executions
        ]

    def test_q1_gathers_each_input_once_with_unchanged_rows_and_charges(self):
        sql = tpch_queries.Q1_SQL
        result, rows, sizes = self.run_grouped(sql, physical.GroupAggregateOp.run)
        # Four columns (l_quantity, l_extendedprice, l_discount, l_tax),
        # each gathered from its root once, straight into group order
        # through the filter's selection composed with the group order;
        # the kernels run on group-ordered rows, so no result is gathered.
        # The filtered rows used to move into group order once more per
        # distinct aggregate input: 4 + 5.
        assert sizes == [rows] * 4
        self.assert_matches_the_row_loop(sql, result, rows)

    def test_a_repeated_kernel_runs_per_aggregate_and_is_gathered_once(self):
        sql = (
            "SELECT l_returnflag, SUM(l_extendedprice * l_discount) AS s, MIN(l_tax) AS t, "
            "MAX(l_extendedprice * l_discount) AS m, AVG(l_extendedprice * l_discount) AS a "
            "FROM lineitem GROUP BY l_returnflag"
        )
        result, rows, sizes = self.run_grouped(sql, physical.GroupAggregateOp.run)
        assert len(result.report.kernel_executions) == 3
        # No filter selected the rows, so the kernel runs on the batch
        # and its result moves into group order once for all three
        # aggregates; l_tax moves once.
        assert sizes == [rows] * 2
        self.assert_matches_the_row_loop(sql, result, rows)


class TestResultValuesBuildNoWords:
    SQL = (
        "SELECT l_extendedprice * (1 - l_discount) AS disc_price "
        "FROM lineitem WHERE l_quantity < 3"
    )

    def test_a_projection_splits_no_value_into_limbs(self):
        database = Database(simulate_rows=10_000_000)
        database.register(tpch.lineitem_for_len(8, rows=2_000, seed=1))
        with mock.patch.object(words, "from_int", wraps=words.from_int) as split:
            result = database.execute(self.SQL)
        assert result.rows
        assert split.call_count == 0
        value = result.rows[0][0]
        with mock.patch.object(words, "from_int", wraps=words.from_int) as split:
            assert words.to_int(value.words) == abs(value.unscaled)
        assert split.call_count == 1
