"""Tests for the create_table convenience DDL."""

import pytest

from repro.core.decimal.context import DecimalSpec
from repro.engine import Database
from repro.engine.ddl import build_relation, parse_type
from repro.errors import ConversionError, SchemaError
from repro.storage.schema import CharType, DateType, DecimalType, DoubleType, IntType


class TestParseType:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("DECIMAL(10, 2)", DecimalType(DecimalSpec(10, 2))),
            ("decimal(35,5)", DecimalType(DecimalSpec(35, 5))),
            ("CHAR(8)", CharType(8)),
            ("DOUBLE", DoubleType()),
            ("INT", IntType()),
            ("BIGINT", IntType()),
            ("DATE", DateType()),
        ],
    )
    def test_strings(self, text, expected):
        assert parse_type(text) == expected

    def test_spec_object(self):
        assert parse_type(DecimalSpec(5, 1)) == DecimalType(DecimalSpec(5, 1))

    def test_rejects_junk(self):
        with pytest.raises(SchemaError):
            parse_type("VARCHAR")
        with pytest.raises(SchemaError):
            parse_type(42)


class TestBuildRelation:
    def test_literals_convert(self):
        relation = build_relation(
            "t",
            {"amount": "DECIMAL(12, 4)", "tag": "CHAR(3)", "n": "INT"},
            rows=[("1.5", "abc", 1), (-2, "de", 2), (0.25, "xyz", 3)],
        )
        assert relation.column("amount").unscaled() == [15000, -20000, 2500]
        assert relation.column("n").data.tolist() == [1, 2, 3]

    def test_empty_rows(self):
        relation = build_relation("t", {"a": "DECIMAL(4, 0)"})
        assert relation.rows == 0

    def test_arity_mismatch(self):
        with pytest.raises(SchemaError):
            build_relation("t", {"a": "INT", "b": "INT"}, rows=[(1,)])

    def test_overflowing_literal(self):
        with pytest.raises(ConversionError):
            build_relation("t", {"a": "DECIMAL(3, 2)"}, rows=[("99.99",)])

    def test_repeated_literals_convert_once_per_type(self):
        relation = build_relation(
            "t", {"a": "DECIMAL(6, 2)"}, rows=[("1.5",), (1,), ("1.5",), (1.0,), (1,)]
        )
        assert relation.column("a").unscaled() == [150, 100, 150, 100, 100]
        # ``True == 1`` and both hash alike: a seen 1 must not let True in.
        with pytest.raises(ConversionError, match="booleans"):
            build_relation("t", {"a": "DECIMAL(6, 2)"}, rows=[(1,), (True,)])
        with pytest.raises(ConversionError, match="unsupported literal type"):
            build_relation("t", {"a": "DECIMAL(6, 2)"}, rows=[(1,), ([1],)])


class TestDatabaseIntegration:
    def test_create_and_query(self):
        db = Database()
        db.create_table(
            "accounts",
            {"balance": "DECIMAL(20, 4)", "owner": "CHAR(8)"},
            rows=[("1234.5678", "alice"), (99, "bob"), ("-0.5", "carol")],
        )
        result = db.execute("SELECT SUM(balance) FROM accounts")
        assert str(result.scalar) == "1333.0678"

        grouped = db.execute(
            "SELECT owner, SUM(balance * 2) FROM accounts GROUP BY owner ORDER BY owner"
        )
        assert [row[0] for row in grouped.rows] == ["alice", "bob", "carol"]
        assert grouped.rows[2][1].unscaled == -10000  # -0.5 * 2 at scale 4

    def test_replace(self):
        db = Database()
        db.create_table("t", {"a": "INT"}, rows=[(1,)])
        db.create_table("t", {"a": "INT"}, rows=[(2,)], replace=True)
        assert db.execute("SELECT a FROM t").rows == [(2,)]
