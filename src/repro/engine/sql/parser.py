"""Parser for the SQL subset (see ``ast_nodes`` for the grammar).

The SQL parser owns the clauses; expressions belong to the JIT grammar
(:mod:`repro.core.jit.parser`), which runs once on this parser's own
token stream for each SELECT expression and aggregate argument.
"""

from __future__ import annotations

import re
from decimal import Decimal
from typing import List, Optional, Tuple

from repro.core.jit.expr_ast import Expr
from repro.core.jit.parser import Token, parse_tokens, tokenize
from repro.engine.sql.ast_nodes import (
    AGGREGATE_FUNCTIONS,
    COMPARISON_OPS,
    AggregateCall,
    Comparison,
    Join,
    OrderKey,
    Query,
    SelectItem,
)
from repro.errors import ParseError

#: Expression tokens use the JIT grammar's kinds (number, ident, op,
#: lparen, rparen, comma); ``string``, ``cmp`` and ``keyword`` are SQL's.
_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<string>'[^']*')"
    r"|(?P<number>\d+\.\d*|\.\d+|\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<cmp><>|<=|>=|[=<>])"
    r"|(?P<op>[-+*/%])"
    r"|(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)"
    r")"
)

_KEYWORDS = {
    "SELECT",
    "FROM",
    "WHERE",
    "GROUP",
    "ORDER",
    "BY",
    "AND",
    "AS",
    "ASC",
    "DESC",
    "LIMIT",
    "JOIN",
    "ON",
    "HAVING",
}


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: List[Token] = [
            token._replace(kind="keyword")
            if token.kind == "ident" and token.text.upper() in _KEYWORDS
            else token
            for token in tokenize(text, _TOKEN_RE)
        ]
        self.index = 0

    def peek(self, ahead: int = 0) -> Optional[Token]:
        index = self.index + ahead
        return self.items[index] if index < len(self.items) else None

    def advance(self) -> Token:
        token = self.peek()
        if token is None:
            raise ParseError(f"unexpected end of SQL: {self.text!r}")
        self.index += 1
        return token

    def at(self, kind: str) -> bool:
        token = self.peek()
        return token is not None and token.kind == kind

    def is_keyword(self, word: str) -> bool:
        token = self.peek()
        return bool(token and token.kind == "keyword" and token.text.upper() == word)

    def expect_keyword(self, word: str) -> None:
        if not self.is_keyword(word):
            token = self.peek()
            raise ParseError(f"expected {word}, got {token.text if token else 'end of input'!r}")
        self.advance()

    def name(self, what: str) -> str:
        token = self.advance()
        if token.kind != "ident":
            raise ParseError(f"expected {what}, got {token.text!r}")
        return token.text

    def expression(self) -> Tuple[str, Expr]:
        """Run the JIT grammar here; returns the expression's text and tree.

        The text joins the expression's tokens with single spaces, e.g.
        ``l_extendedprice * ( 1 - l_discount )``: it names the output
        column and keys the kernel cache.
        """
        start = self.index
        tree, self.index = parse_tokens(self.items, start, self.text)
        return " ".join(token.text for token in self.items[start : self.index]), tree


def parse_query(sql: str) -> Query:
    """Parse a SELECT statement into a :class:`Query`."""
    tokens = _Tokens(sql.strip().rstrip(";"))
    tokens.expect_keyword("SELECT")
    select_items = _parse_select_list(tokens)
    tokens.expect_keyword("FROM")
    table = tokens.name("table name")

    joins: List[Join] = []
    where: List[Comparison] = []
    group_by: List[str] = []
    having: List[Comparison] = []
    order_by: List[OrderKey] = []
    limit = None
    # Clause-order state machine: each clause carries a rank, and a clause
    # at or below the rank already consumed is rejected -- so a duplicate
    # (`WHERE .. WHERE ..`) or out-of-order (`GROUP BY .. WHERE ..`) clause
    # raises instead of silently overwriting the earlier parse.  JOIN
    # repeats freely at rank 0; everything above appears at most once.
    clause_rank = {"JOIN": 0, "WHERE": 1, "GROUP BY": 2, "HAVING": 3, "ORDER BY": 4, "LIMIT": 5}
    seen_rank = -1
    seen_clauses: List[str] = []

    def enter_clause(clause: str) -> None:
        nonlocal seen_rank
        rank = clause_rank[clause]
        if clause != "JOIN" and clause in seen_clauses:
            raise ParseError(f"duplicate {clause} clause")
        if rank < seen_rank:
            blocker = next(c for c in reversed(seen_clauses) if clause_rank[c] > rank)
            raise ParseError(f"{clause} clause must come before {blocker}")
        seen_rank = rank
        seen_clauses.append(clause)

    while tokens.peek() is not None:
        if tokens.is_keyword("JOIN"):
            enter_clause("JOIN")
            tokens.advance()
            joins.append(_parse_join(tokens))
        elif tokens.is_keyword("WHERE"):
            enter_clause("WHERE")
            tokens.advance()
            where = _parse_where(tokens)
        elif tokens.is_keyword("GROUP"):
            enter_clause("GROUP BY")
            tokens.advance()
            tokens.expect_keyword("BY")
            group_by = _parse_column_list(tokens)
        elif tokens.is_keyword("HAVING"):
            enter_clause("HAVING")
            tokens.advance()
            having = _parse_where(tokens)
        elif tokens.is_keyword("ORDER"):
            enter_clause("ORDER BY")
            tokens.advance()
            tokens.expect_keyword("BY")
            order_by = _parse_order_list(tokens)
        elif tokens.is_keyword("LIMIT"):
            enter_clause("LIMIT")
            tokens.advance()
            count = tokens.advance()
            if count.kind != "number" or "." in count.text:
                raise ParseError(f"LIMIT needs an integer, got {count.text!r}")
            limit = int(count.text)
        else:
            raise ParseError(f"unexpected token {tokens.peek().text!r} after FROM clause")
    return Query(
        select_items=select_items,
        table=table,
        joins=joins,
        where=where,
        group_by=group_by,
        having=having,
        order_by=order_by,
        limit=limit,
    )


def _parse_select_list(tokens: _Tokens) -> List[SelectItem]:
    items = [_parse_select_item(tokens)]
    while tokens.at("comma"):
        tokens.advance()
        items.append(_parse_select_item(tokens))
    return items


def _parse_select_item(tokens: _Tokens) -> SelectItem:
    token, following = tokens.peek(), tokens.peek(1)
    if (
        token is not None
        and token.kind == "ident"
        and token.text.upper() in AGGREGATE_FUNCTIONS
        and following is not None
        and following.kind == "lparen"
    ):
        function = token.text.upper()
        tokens.advance()
        tokens.advance()  # (
        if function == "COUNT" and [t.text for t in tokens.items[tokens.index :][:2]] == ["*", ")"]:
            tokens.advance()
            call = AggregateCall(function, "*")
        else:
            argument, tree = tokens.expression()
            call = AggregateCall(function, argument, tree)
        closing = tokens.advance()
        if closing.kind != "rparen":
            raise ParseError(f"expected ')' after {function}'s argument, got {closing.text!r}")
        return SelectItem(call, _parse_alias(tokens))
    text, tree = tokens.expression()
    return SelectItem(text, _parse_alias(tokens), tree)


def _parse_alias(tokens: _Tokens) -> Optional[str]:
    if tokens.is_keyword("AS"):
        tokens.advance()
        return tokens.name("alias name")
    return None


def _parse_join(tokens: _Tokens) -> Join:
    table = tokens.name("table name after JOIN")
    tokens.expect_keyword("ON")
    left = tokens.name("column name in ON")
    op = tokens.advance().text
    if op != "=":
        raise ParseError(f"only equi-joins are supported, got {op!r}")
    right = tokens.name("column name in ON")
    return Join(table=table, left_column=left, right_column=right)


def _parse_where(tokens: _Tokens) -> List[Comparison]:
    conjuncts = [_parse_comparison(tokens)]
    while tokens.is_keyword("AND"):
        tokens.advance()
        conjuncts.append(_parse_comparison(tokens))
    return conjuncts


def _parse_comparison(tokens: _Tokens) -> Comparison:
    column = tokens.name("column name in WHERE")
    op = tokens.advance().text
    if op not in COMPARISON_OPS:
        raise ParseError(f"expected comparison operator, got {op!r}")
    literal = tokens.advance()
    if literal.kind == "string":
        return Comparison(column, op, literal.text[1:-1])
    if literal.kind == "number":
        # Exact, as written: the column's type decides how it compares.
        return Comparison(column, op, Decimal(literal.text))
    if literal.kind == "ident":
        return Comparison(column, op, None, column_rhs=literal.text)
    raise ParseError(f"expected literal or column in comparison, got {literal.text!r}")


def _parse_column_list(tokens: _Tokens) -> List[str]:
    columns = [tokens.name("column name")]
    while tokens.at("comma"):
        tokens.advance()
        columns.append(tokens.name("column name"))
    return columns


def _parse_order_list(tokens: _Tokens) -> List[OrderKey]:
    keys = []
    while True:
        name = tokens.name("column name")
        ascending = True
        if tokens.is_keyword("ASC"):
            tokens.advance()
        elif tokens.is_keyword("DESC"):
            tokens.advance()
            ascending = False
        keys.append(OrderKey(name, ascending))
        if not tokens.at("comma"):
            return keys
        tokens.advance()
