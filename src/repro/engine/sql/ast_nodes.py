"""SQL AST for the query subset the paper's evaluation exercises.

Queries are of the form::

    SELECT item [, item ...]
    FROM table
    [WHERE col <op> literal [AND ...]]
    [GROUP BY col [, col ...]]
    [ORDER BY col [ASC|DESC] [, ...]]

where an item is either an arithmetic expression over DECIMAL columns
(handed to the JIT engine) or an aggregate call SUM/AVG/MIN/MAX/COUNT over
such an expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from typing import List, Optional, Union

from repro.core.decimal.convert import literal_text
from repro.core.jit.expr_ast import Expr, column_names
from repro.core.jit.parser import parse_expression

AGGREGATE_FUNCTIONS = ("SUM", "AVG", "MIN", "MAX", "COUNT")

COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class AggregateCall:
    """``SUM(expr)`` etc.

    ``argument`` is the argument's text, or "*" for ``COUNT(*)``; ``tree``
    is its expression tree (None only for ``COUNT(*)``).  The SQL parser
    passes the tree it built; a hand-built call parses its text.
    """

    function: str
    argument: str
    tree: Optional[Expr] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.tree is None and self.argument != "*":
            object.__setattr__(self, "tree", parse_expression(self.argument))

    def __str__(self) -> str:
        return f"{self.function}({self.argument})"


@dataclass(frozen=True)
class SelectItem:
    """One output column: an expression or an aggregate, plus its alias.

    ``tree`` is what the item computes per row: the projected expression,
    or the aggregate's argument (None for ``COUNT(*)``).  Every layer reads
    the tree; the text names the output column and keys the kernel cache.
    Trees of a parsed query are shared (the plan cache keeps the query),
    so nothing writes to them.
    """

    expression: Union[str, AggregateCall]
    alias: Optional[str] = None
    tree: Optional[Expr] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.tree is None:
            if isinstance(self.expression, AggregateCall):
                tree = self.expression.tree
            else:
                tree = parse_expression(self.expression)
            object.__setattr__(self, "tree", tree)

    @property
    def is_aggregate(self) -> bool:
        return isinstance(self.expression, AggregateCall)

    @property
    def columns(self) -> List[str]:
        """The columns :attr:`tree` reads, in first-use order (none for ``COUNT(*)``)."""
        return [] if self.tree is None else column_names(self.tree)

    @property
    def text(self) -> str:
        """The text of :attr:`tree`: the kernel-cache key of its kernel."""
        expression = self.expression
        return expression.argument if isinstance(expression, AggregateCall) else expression

    @property
    def name(self) -> str:
        if self.alias:
            return self.alias
        return str(self.expression)


@dataclass(frozen=True)
class Comparison:
    """A WHERE/HAVING conjunct: ``column <op> literal`` or ``column <op> column``.

    A number literal is a :class:`~decimal.Decimal`, exactly as written;
    a quoted one (CHAR, DATE) is a ``str``.  When ``column_rhs`` is set
    the comparison is between two columns and ``literal`` is ignored.
    """

    column: str
    op: str
    literal: Union[Decimal, int, float, str, None] = None
    column_rhs: Optional[str] = None

    def __str__(self) -> str:
        if self.column_rhs is not None:
            return f"{self.column} {self.op} {self.column_rhs}"
        if isinstance(self.literal, str):
            return f"{self.column} {self.op} '{self.literal}'"
        return f"{self.column} {self.op} {literal_text(self.literal)}"


@dataclass(frozen=True)
class Join:
    """An inner equi-join: ``JOIN <table> ON <left_col> = <right_col>``."""

    table: str
    left_column: str
    right_column: str


@dataclass(frozen=True)
class OrderKey:
    """One ORDER BY key."""

    column: str
    ascending: bool = True


@dataclass
class Query:
    """A parsed SELECT statement."""

    select_items: List[SelectItem]
    table: str
    joins: List[Join] = field(default_factory=list)
    where: List[Comparison] = field(default_factory=list)
    group_by: List[str] = field(default_factory=list)
    having: List[Comparison] = field(default_factory=list)
    order_by: List[OrderKey] = field(default_factory=list)
    limit: Optional[int] = None

    @property
    def has_aggregates(self) -> bool:
        return any(item.is_aggregate for item in self.select_items)

    @property
    def aggregates(self) -> List[SelectItem]:
        return [item for item in self.select_items if item.is_aggregate]

    @property
    def projections(self) -> List[SelectItem]:
        return [item for item in self.select_items if not item.is_aggregate]
