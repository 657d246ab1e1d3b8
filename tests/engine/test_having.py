"""Tests for HAVING and column-vs-column predicates."""

import pytest

from repro.engine import Database


@pytest.fixture()
def db():
    database = Database()
    database.create_table(
        "sales",
        {"region": "CHAR(2)", "amount": "DECIMAL(10, 2)", "cost": "DECIMAL(10, 2)"},
        rows=[
            ("EU", "10.00", "4.00"),
            ("EU", "20.00", "25.00"),
            ("US", "5.00", "1.00"),
            ("US", "1.00", "0.50"),
            ("AP", "100.00", "90.00"),
        ],
    )
    return database


class TestHaving:
    def test_filters_groups(self, db):
        result = db.execute(
            "SELECT region, SUM(amount) AS total FROM sales "
            "GROUP BY region HAVING total > 10 ORDER BY region"
        )
        assert [(r, str(t)) for r, t in result.rows] == [
            ("AP", "100.00"),
            ("EU", "30.00"),
        ]

    def test_having_on_count(self, db):
        result = db.execute(
            "SELECT region, COUNT(*) AS n FROM sales GROUP BY region HAVING n >= 2 ORDER BY region"
        )
        assert [row[0] for row in result.rows] == ["EU", "US"]

    def test_having_with_conjunction(self, db):
        result = db.execute(
            "SELECT region, SUM(amount) AS total, COUNT(*) AS n FROM sales "
            "GROUP BY region HAVING total > 10 AND n >= 2 ORDER BY region"
        )
        assert [row[0] for row in result.rows] == ["EU"]  # AP fails n, US fails total

    def test_having_eliminates_everything(self, db):
        result = db.execute(
            "SELECT region, SUM(amount) AS total FROM sales GROUP BY region HAVING total > 1000"
        )
        assert result.rows == []


class TestColumnComparisons:
    def test_decimal_columns(self, db):
        result = db.execute("SELECT SUM(amount) FROM sales WHERE amount > cost")
        # profitable rows: 10, 5, 1, 100
        assert str(result.scalar) == "116.00"

    def test_equality_between_columns(self, db):
        result = db.execute("SELECT COUNT(*) FROM sales WHERE amount = cost")
        assert result.scalar.unscaled == 0

    def test_mixed_with_literal_predicates(self, db):
        result = db.execute(
            "SELECT COUNT(*) FROM sales WHERE amount > cost AND region = 'US'"
        )
        assert result.scalar.unscaled == 2

    def test_cross_scale_decimal_comparison(self):
        database = Database()
        database.create_table(
            "t",
            {"a": "DECIMAL(6, 1)", "b": "DECIMAL(8, 3)"},
            rows=[("1.5", "1.500"), ("1.5", "1.499"), ("0.1", "0.101")],
        )
        result = database.execute("SELECT COUNT(*) FROM t WHERE a > b")
        assert result.scalar.unscaled == 1
        equal = database.execute("SELECT COUNT(*) FROM t WHERE a = b")
        assert equal.scalar.unscaled == 1


class TestHavingColumnReferences:
    """Regression: HAVING predicates must contribute to the scanned columns.

    ``_referenced_columns`` used to skip ``query.having``, so a column
    mentioned only in HAVING was dropped from the scan list.  Group keys
    masked the bug end-to-end (GROUP BY re-adds them), so pin the contract
    at both levels.
    """

    def test_having_only_column_survives_to_the_scan(self):
        from repro.engine.plan.logical import LogicalScan, build_logical_plan
        from repro.engine.sql.ast_nodes import (
            AggregateCall,
            Comparison,
            Query,
            SelectItem,
        )

        query = Query(
            select_items=[SelectItem(AggregateCall("SUM", "amount"), alias="total")],
            table="sales",
            having=[Comparison("cost", ">", 1)],
        )
        scan = build_logical_plan(query, ["region", "amount", "cost"])[0]
        assert isinstance(scan, LogicalScan)
        assert "cost" in scan.columns

    def test_having_over_non_selected_group_key(self, db):
        result = db.execute(
            "SELECT SUM(amount) AS total FROM sales "
            "GROUP BY region HAVING region = 'EU'"
        )
        assert [str(t) for (t,) in result.rows] == ["30.00"]
