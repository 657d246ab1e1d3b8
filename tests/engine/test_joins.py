"""Tests for hash-join support."""

import pytest

from repro.engine import Database
from repro.errors import CatalogError, ExecutionError, ParseError


def make_db():
    db = Database(simulate_rows=1_000_000)
    db.create_table(
        "orders",
        {"o_orderkey": "INT", "o_total": "DECIMAL(12, 2)", "o_flag": "CHAR(1)"},
        rows=[(1, "10.00", "A"), (2, "20.00", "B"), (3, "30.00", "A")],
    )
    db.create_table(
        "items",
        {"i_orderkey": "INT", "i_qty": "DECIMAL(6, 0)", "i_price": "DECIMAL(10, 2)"},
        rows=[(1, 2, "1.50"), (1, 3, "2.00"), (2, 5, "0.10"), (9, 7, "9.99")],
    )
    return db


class TestHashJoin:
    def test_inner_join_matches(self):
        db = make_db()
        result = db.execute(
            "SELECT i_orderkey, o_total FROM items JOIN orders ON i_orderkey = o_orderkey "
            "ORDER BY i_orderkey"
        )
        keys = [row[0] for row in result.rows]
        assert keys == [1, 1, 2]  # order 9 has no match, order 3 no items

    def test_join_then_expression(self):
        db = make_db()
        result = db.execute(
            "SELECT SUM(o_total * i_qty) FROM items JOIN orders ON i_orderkey = o_orderkey"
        )
        # 10*2 + 10*3 + 20*5 = 150.00
        assert str(result.scalar) == "150.00"

    def test_join_with_filter(self):
        db = make_db()
        result = db.execute(
            "SELECT SUM(i_qty) FROM items JOIN orders ON i_orderkey = o_orderkey "
            "WHERE o_flag = 'A'"
        )
        assert result.scalar.unscaled == 5  # only order 1's items

    def test_join_group_by(self):
        db = make_db()
        result = db.execute(
            "SELECT o_flag, SUM(i_qty * i_price) FROM items JOIN orders "
            "ON i_orderkey = o_orderkey GROUP BY o_flag ORDER BY o_flag"
        )
        assert [(row[0], row[1].unscaled) for row in result.rows] == [
            ("A", 900),  # 2*1.50 + 3*2.00 = 9.00 at scale 2
            ("B", 50),  # 5*0.10
        ]

    def test_duplicate_build_keys(self):
        db = Database()
        db.create_table("l", {"k": "INT", "v": "INT"}, rows=[(1, 10)])
        db.create_table("r", {"rk": "INT", "w": "INT"}, rows=[(1, 1), (1, 2), (1, 3)])
        result = db.execute("SELECT w FROM l JOIN r ON k = rk ORDER BY w")
        assert [row[0] for row in result.rows] == [1, 2, 3]

    def test_decimal_join_keys(self):
        db = Database()
        db.create_table("a", {"ka": "DECIMAL(6, 2)", "x": "INT"}, rows=[("1.50", 7)])
        db.create_table("b", {"kb": "DECIMAL(6, 2)", "y": "INT"}, rows=[("1.50", 8), ("2.00", 9)])
        result = db.execute("SELECT x, y FROM a JOIN b ON ka = kb")
        assert result.rows == [(7, 8)]

    def test_decimal_keys_join_by_value_across_scales(self):
        """1.50 = 1.5 matches; 0.15 (unscaled 15, like 1.5's) must not."""
        db = Database()
        db.create_table(
            "a", {"ka": "DECIMAL(6, 2)", "x": "INT"}, rows=[("0.15", 1), ("1.50", 2)]
        )
        db.create_table("b", {"kb": "DECIMAL(6, 1)", "y": "INT"}, rows=[("1.5", 10)])
        result = db.execute("SELECT x, y FROM a JOIN b ON ka = kb")
        assert result.rows == [(2, 10)]

    def test_decimal_key_joins_int_by_value(self):
        """1.00 = 1 matches; 0.01 (unscaled 1) must not."""
        db = Database()
        db.create_table(
            "a", {"ka": "DECIMAL(6, 2)", "x": "INT"}, rows=[("0.01", 1), ("1.00", 2)]
        )
        db.create_table("c", {"kc": "INT", "z": "INT"}, rows=[(1, 100)])
        result = db.execute("SELECT x, z FROM a JOIN c ON ka = kc")
        assert result.rows == [(2, 100)]

    def test_incomparable_key_types_rejected(self):
        db = make_db()
        with pytest.raises(ExecutionError):
            db.execute("SELECT i_qty FROM items JOIN orders ON i_orderkey = o_flag")

    def test_missing_joined_table(self):
        db = make_db()
        with pytest.raises(CatalogError):
            db.execute("SELECT i_qty FROM items JOIN nope ON i_orderkey = nk")

    def test_non_equi_join_rejected(self):
        db = make_db()
        with pytest.raises(ParseError):
            db.execute("SELECT i_qty FROM items JOIN orders ON i_orderkey < o_orderkey")

    def test_join_costs_charged(self):
        db = make_db()
        result = db.execute(
            "SELECT SUM(i_qty) FROM items JOIN orders ON i_orderkey = o_orderkey"
        )
        # The joined table's scan/transfer shows up in the report.
        assert result.report.scan_seconds > 0
        assert result.report.filter_seconds > 0  # build+probe passes

    def test_explain_shows_join(self):
        db = make_db()
        text = db.explain(
            "SELECT SUM(o_total * i_qty) FROM items JOIN orders ON i_orderkey = o_orderkey"
        ).format()
        assert "HashJoin orders [i_orderkey = o_orderkey]" in text
