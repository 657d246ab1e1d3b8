"""Tests for the SQL subset parser."""

from decimal import Decimal

import pytest

from repro.core.jit.expr_ast import BinaryOp, ColumnRef, FuncCall
from repro.engine.sql.ast_nodes import AggregateCall, Comparison, OrderKey
from repro.engine.sql.parser import parse_query
from repro.errors import ParseError


class TestSelect:
    def test_simple_projection(self):
        query = parse_query("SELECT c1 + c2 FROM r")
        assert query.table == "r"
        assert len(query.select_items) == 1
        assert query.select_items[0].expression == "c1 + c2"

    def test_multiple_items(self):
        query = parse_query("SELECT c1 + c2 + c3 + c4, c5 + c6 FROM R2")
        assert [i.expression for i in query.select_items] == ["c1 + c2 + c3 + c4", "c5 + c6"]

    def test_aggregates(self):
        query = parse_query("SELECT SUM(c1), AVG(c1 + c2), COUNT(*) FROM r")
        calls = [item.expression for item in query.select_items]
        assert calls[0] == AggregateCall("SUM", "c1")
        assert calls[1] == AggregateCall("AVG", "c1 + c2")
        assert calls[2] == AggregateCall("COUNT", "*")

    def test_alias(self):
        query = parse_query("SELECT SUM(a) AS total FROM r")
        assert query.select_items[0].alias == "total"
        assert query.select_items[0].name == "total"

    def test_parenthesised_expression(self):
        query = parse_query("SELECT l_extendedprice * (1 - l_discount) FROM lineitem")
        assert query.select_items[0].expression == "l_extendedprice * ( 1 - l_discount )"

    def test_modulo_expression(self):
        query = parse_query("SELECT c1 * c1 % 97 * c1 % 97 FROM R4")
        assert "%" in query.select_items[0].expression

    def test_items_carry_the_grammar_tree(self):
        query = parse_query("SELECT ROUND(a, 2) AS r, SUM(b * (1 - c)), COUNT(*) FROM t")
        rounded, summed, counted = query.select_items
        assert rounded.expression == "ROUND ( a , 2 )"
        assert rounded.tree == FuncCall("ROUND", ColumnRef("a"), 2)
        assert summed.expression == AggregateCall("SUM", "b * ( 1 - c )")
        assert isinstance(summed.tree, BinaryOp) and summed.tree is summed.expression.tree
        assert summed.columns == ["b", "c"]
        assert counted.tree is None and counted.columns == []

    def test_case_insensitive_keywords(self):
        query = parse_query("select sum(a) from r group by g order by g desc")
        assert query.group_by == ["g"]
        assert query.order_by == [OrderKey("g", ascending=False)]


class TestClauses:
    def test_where(self):
        query = parse_query("SELECT a FROM r WHERE d <= '1998-09-02' AND q > 5")
        assert query.where == [
            Comparison("d", "<=", "1998-09-02"),
            Comparison("q", ">", 5),
        ]

    def test_where_float_literal(self):
        query = parse_query("SELECT a FROM r WHERE x < 0.5")
        assert query.where[0].literal == 0.5

    def test_number_literals_are_exact_and_print_as_written(self):
        query = parse_query(
            "SELECT a FROM r WHERE x < 123456789012.345678 AND y >= 1.50 AND z > 0.0000001"
        )
        literals = [predicate.literal for predicate in query.where]
        assert literals == [
            Decimal("123456789012.345678"),
            Decimal("1.5"),
            Decimal("0.0000001"),
        ]
        assert [str(p) for p in query.where] == [
            "x < 123456789012.345678",
            "y >= 1.50",
            "z > 0.0000001",
        ]

    def test_group_by_multiple(self):
        query = parse_query("SELECT g1, g2, SUM(a) FROM r GROUP BY g1, g2")
        assert query.group_by == ["g1", "g2"]

    def test_order_by_multiple(self):
        query = parse_query("SELECT a FROM r ORDER BY x ASC, y DESC")
        assert query.order_by == [OrderKey("x", True), OrderKey("y", False)]

    def test_tpch_q1_parses(self):
        from repro.workloads.tpch_queries import Q1_SQL

        query = parse_query(Q1_SQL)
        assert query.table == "lineitem"
        assert len(query.aggregates) == 8
        assert query.group_by == ["l_returnflag", "l_linestatus"]


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "SELECT FROM r",
            "SELECT a",
            "SELECT a FROM",
            "SELECT a FROM r WHERE",
            "SELECT a FROM r GROUP",
            "FROM r SELECT a",
            "SELECT a FROM r WHERE x ! 1",
            "SELECT a + FROM r",
            "SELECT COUNT(a +) FROM r",
            "SELECT COUNT(a, b) FROM r",
            "SELECT SUM(*) FROM r",
            "SELECT a b FROM r",
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_query(bad)


class TestClauseOrdering:
    """Duplicate / out-of-order clauses must raise, not silently overwrite.

    The clause loop historically re-assigned on a repeated keyword, so
    ``WHERE a > 1 WHERE b > 2`` dropped the first predicate without a
    trace; the parser now enforces SQL clause order with one rank per
    clause.
    """

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a FROM r WHERE x > 1 WHERE y > 2",
            "SELECT g, SUM(a) FROM r GROUP BY g GROUP BY g",
            "SELECT g, SUM(a) FROM r GROUP BY g HAVING g > 1 HAVING g > 2",
            "SELECT a FROM r ORDER BY a ORDER BY a DESC",
            "SELECT a FROM r LIMIT 5 LIMIT 10",
        ],
    )
    def test_duplicate_clause_rejected(self, sql):
        with pytest.raises(ParseError, match="duplicate"):
            parse_query(sql)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT g, SUM(a) FROM r GROUP BY g WHERE x > 1",
            "SELECT g, SUM(a) FROM r GROUP BY g HAVING g > 1 WHERE x > 1",
            "SELECT a FROM r ORDER BY a WHERE x > 1",
            "SELECT a FROM r LIMIT 5 ORDER BY a",
            "SELECT a FROM r WHERE x > 1 JOIN s ON a = b",
            "SELECT g, SUM(a) FROM r HAVING g > 1 GROUP BY g",
        ],
    )
    def test_out_of_order_clause_rejected(self, sql):
        with pytest.raises(ParseError, match="must come before"):
            parse_query(sql)

    def test_repeated_joins_still_allowed(self):
        query = parse_query(
            "SELECT a FROM r JOIN s ON a = b JOIN t ON c = d WHERE x > 1"
        )
        assert [join.table for join in query.joins] == ["s", "t"]
        assert len(query.where) == 1

    def test_full_clause_sequence_still_parses(self):
        query = parse_query(
            "SELECT g, SUM(a) AS total FROM r JOIN s ON a = b "
            "WHERE x > 1 GROUP BY g HAVING g > 0 ORDER BY total DESC LIMIT 3"
        )
        assert query.group_by == ["g"]
        assert query.limit == 3
