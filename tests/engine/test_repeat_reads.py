"""Repeated reads derive nothing twice.

Join and group key codes and join build sides are kept with the column
version that owns the rows, so a repeated read computes none of them; a
filter, join or sort hands on views of its input, and a bare projection
renames its input, so a repeated read expands no column either.
"""

from collections import Counter
from unittest import mock

from repro.core.decimal.value import DecimalValue
from repro.core.decimal.vectorized import DecimalVector
from repro.engine import Database
from repro.engine.plan import physical
from repro.storage import tpch
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
