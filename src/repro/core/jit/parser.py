"""A precedence-climbing parser for DECIMAL arithmetic expressions.

Grammar (standard arithmetic):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/' | '%') unary)*
    unary   := ('+' | '-') unary | primary
    primary := NUMBER | IDENT | '(' expr ')'

Identifiers name DECIMAL columns; numbers become exact literals.

This is the one expression grammar: :func:`parse_expression` runs it on
expression text, and the SQL parser runs it on its own token stream
(:func:`parse_tokens`) for every SELECT expression and aggregate argument.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.core.jit.expr_ast import (
    SCALAR_FUNCTIONS,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    Literal,
    UnaryOp,
)
from repro.errors import ParseError


class Token(NamedTuple):
    #: 'number' | 'ident' | 'op' | 'lparen' | 'rparen' | 'comma'; the SQL
    #: tokenizer adds kinds of its own, which no expression contains.
    kind: str
    text: str
    position: int


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*|\.\d+|\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9.]*)"
    r"|(?P<op>[-+*/%])|(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,))"
)


def tokenize(text: str, pattern: re.Pattern = _TOKEN_RE) -> List[Token]:
    """Split text into tokens, one kind per named group of ``pattern``.

    Raises ParseError on junk.  The SQL parser passes its own pattern,
    which gives expression tokens this pattern's kinds.
    """
    tokens: List[Token] = []
    position = 0
    while position < len(text):
        match = pattern.match(text, position)
        if not match or match.end() == position:
            remainder = text[position:].strip()
            if not remainder:
                break
            raise ParseError(f"unexpected character at {position}: {remainder[0]!r}")
        kind = match.lastgroup
        tokens.append(Token(kind, match.group(kind), match.start(kind)))
        position = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: Sequence[Token], text: str, start: int):
        self._tokens = tokens
        self._text = text
        self._index = start

    def _peek(self) -> Optional[Token]:
        return self._tokens[self._index] if self._index < len(self._tokens) else None

    def _advance(self) -> Token:
        token = self._peek()
        if token is None:
            raise ParseError(f"unexpected end of expression: {self._text!r}")
        self._index += 1
        return token

    def _expr(self) -> Expr:
        node = self._term()
        while True:
            token = self._peek()
            if token and token.kind == "op" and token.text in "+-":
                self._advance()
                node = BinaryOp(token.text, node, self._term())
            else:
                return node

    def _term(self) -> Expr:
        node = self._unary()
        while True:
            token = self._peek()
            if token and token.kind == "op" and token.text in "*/%":
                self._advance()
                node = BinaryOp(token.text, node, self._unary())
            else:
                return node

    def _unary(self) -> Expr:
        token = self._peek()
        if token and token.kind == "op" and token.text in "+-":
            self._advance()
            return UnaryOp(token.text, self._unary())
        return self._primary()

    def _primary(self) -> Expr:
        token = self._advance()
        if token.kind == "number":
            return Literal.from_text(token.text)
        if token.kind == "ident":
            upper = token.text.upper()
            next_token = self._peek()
            if upper in SCALAR_FUNCTIONS and next_token and next_token.kind == "lparen":
                return self._function_call(upper)
            return ColumnRef(token.text)
        if token.kind == "lparen":
            node = self._expr()
            closing = self._advance()
            if closing.kind != "rparen":
                raise ParseError(f"expected ')' at {closing.position}, got {closing.text!r}")
            return node
        raise ParseError(f"unexpected token at {token.position}: {token.text!r}")

    def _function_call(self, function: str) -> Expr:
        self._advance()  # consume '('
        argument = self._expr()
        scale_arg = 0
        token = self._peek()
        if token and token.kind == "comma":
            if function not in ("ROUND", "TRUNC", "POWER"):
                raise ParseError(f"{function} takes exactly one argument")
            self._advance()
            number = self._advance()
            if number.kind != "number" or "." in number.text:
                raise ParseError(
                    f"{function}'s second argument must be an integer scale, "
                    f"got {number.text!r}"
                )
            scale_arg = int(number.text)
        closing = self._advance()
        if closing.kind != "rparen":
            raise ParseError(f"expected ')' after {function} arguments, got {closing.text!r}")
        if function == "POWER":
            if scale_arg < 1 or scale_arg > 64:
                raise ParseError("POWER's exponent must be an integer in [1, 64]")
        return FuncCall(function, argument, scale_arg)


def parse_tokens(tokens: Sequence[Token], start: int, text: str) -> Tuple[Expr, int]:
    """Parse the expression that begins at ``tokens[start]``.

    Returns the tree and the index of the first token after it: the
    expression ends at the first token that cannot continue it (a ``,``,
    an unmatched ``)``, a SQL keyword, the end).  ``text`` is the source
    the tokens came from, for error messages.
    """
    parser = _Parser(tokens, text, start)
    return parser._expr(), parser._index


def parse_expression(text: str) -> Expr:
    """Parse arithmetic text like ``"c1 + c2 * 1.5"`` into an expression tree."""
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    expr, end = parse_tokens(tokens, 0, text)
    if end < len(tokens):
        token = tokens[end]
        raise ParseError(f"trailing input at {token.position}: {token.text!r}")
    return expr
