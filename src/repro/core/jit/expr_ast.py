"""Expression trees for DECIMAL arithmetic.

A SQL expression over DECIMAL columns is parsed into a binary tree whose
intermediate nodes are operators and whose leaves are column references or
literals (paper section III-D1).  The optimisation passes additionally use
n-ary addition/multiplication nodes ("the binary expression tree is
converted into an n-ary tree by collapsing the addition operators at
neighboring levels") before code generation converts back to binary form.

Every node can carry an inferred :class:`DecimalSpec` (``spec``) and exposes
``effective_scale`` -- the scale the alignment scheduler sorts by: a ``*``
node sums its operands' scales and unary negation inherits its operand's
(Figure 6 caption).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from repro.core.decimal import convert
from repro.core.decimal.context import DecimalSpec
from repro.errors import ExpressionError

#: Binary operators in the order the parser knows them.
BINARY_OPS = ("+", "-", "*", "/", "%")


@dataclass
class Expr:
    """Base expression node."""

    spec: Optional[DecimalSpec] = field(default=None, init=False, compare=False)

    @property
    def effective_scale(self) -> int:
        """Scale used by the alignment scheduler (requires inference)."""
        if self.spec is None:
            raise ExpressionError("effective_scale requires type inference")
        return self.spec.scale

    def children(self) -> Tuple["Expr", ...]:
        """Child nodes, leftmost first."""
        return ()

    def to_sql(self) -> str:
        """Render back to SQL-ish text (used in messages and tests)."""
        raise NotImplementedError


@dataclass
class ColumnRef(Expr):
    """A reference to a DECIMAL column by name."""

    name: str

    def to_sql(self) -> str:
        return self.name


@dataclass
class Literal(Expr):
    """A numeric literal, held exactly as a rational until conversion.

    The constant-folding pass manipulates ``value`` exactly; the final
    conversion to a DECIMAL constant happens at compile time (section
    III-D2), never per tuple.
    """

    value: Fraction

    @classmethod
    def from_text(cls, text: str) -> "Literal":
        negative, unscaled, spec = convert.parse_literal(text)
        literal = cls(Fraction(-unscaled if negative else unscaled, 10**spec.scale))
        literal.spec = spec
        return literal

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def is_one(self) -> bool:
        return self.value == 1

    def minimal_spec(self) -> DecimalSpec:
        """The minimal DECIMAL(p, s) holding this exact rational.

        Raises if the rational has a non-terminating decimal expansion
        (cannot happen for literals parsed from decimal text, nor for the
        +, -, * folding the optimiser performs).
        """
        scale = 0
        denominator = self.value.denominator
        while denominator % 10 == 0:
            denominator //= 10
            scale += 1
        while denominator % 5 == 0:
            denominator //= 5
            scale += 1
        while denominator % 2 == 0:
            denominator //= 2
            scale += 1
        if denominator != 1:
            raise ExpressionError(f"literal {self.value} is not a decimal fraction")
        unscaled = abs(int(self.value * 10**scale))
        precision = max(len(str(unscaled)), scale, 1) if unscaled else max(scale, 1)
        return DecimalSpec(precision, scale)

    def to_sql(self) -> str:
        spec = self.minimal_spec()
        unscaled = abs(int(self.value * 10**spec.scale))
        return convert.unscaled_to_string(self.value < 0, unscaled, spec.scale)


@dataclass
class UnaryOp(Expr):
    """Unary negation (subtrahends become ``(-x)`` subtrees, section III-D1)."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in ("-", "+"):
            raise ExpressionError(f"unsupported unary operator {self.op!r}")

    @property
    def effective_scale(self) -> int:
        # Unary negation inherits its operand's scale (Figure 6).
        return self.operand.effective_scale

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def to_sql(self) -> str:
        return f"({self.op}{self.operand.to_sql()})"


@dataclass
class BinaryOp(Expr):
    """A binary arithmetic operator node."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ExpressionError(f"unsupported operator {self.op!r}")

    @property
    def effective_scale(self) -> int:
        if self.op == "*":
            return self.left.effective_scale + self.right.effective_scale
        return super().effective_scale

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


#: Scalar functions the expression language supports.  ROUND/TRUNC take an
#: optional target scale as their second argument (default 0).
SCALAR_FUNCTIONS = ("ABS", "SIGN", "ROUND", "TRUNC", "CEIL", "FLOOR", "POWER")


@dataclass
class FuncCall(Expr):
    """A scalar function over one DECIMAL argument: ``ROUND(x, 2)`` etc."""

    function: str
    argument: Expr
    scale_arg: int = 0

    def __post_init__(self) -> None:
        if self.function not in SCALAR_FUNCTIONS:
            raise ExpressionError(f"unsupported function {self.function!r}")

    def children(self) -> Tuple[Expr, ...]:
        return (self.argument,)

    def to_sql(self) -> str:
        if self.function in ("ROUND", "TRUNC", "POWER"):
            return f"{self.function}({self.argument.to_sql()}, {self.scale_arg})"
        return f"{self.function}({self.argument.to_sql()})"


@dataclass
class NaryAdd(Expr):
    """An n-ary addition used during scheduling (children are added)."""

    terms: List[Expr]

    @property
    def effective_scale(self) -> int:
        return max(term.effective_scale for term in self.terms)

    def children(self) -> Tuple[Expr, ...]:
        return tuple(self.terms)

    def to_sql(self) -> str:
        return "(" + " + ".join(term.to_sql() for term in self.terms) + ")"


@dataclass
class NaryMul(Expr):
    """An n-ary multiplication used during constant folding."""

    factors: List[Expr]

    @property
    def effective_scale(self) -> int:
        return sum(factor.effective_scale for factor in self.factors)

    def children(self) -> Tuple[Expr, ...]:
        return tuple(self.factors)

    def to_sql(self) -> str:
        return "(" + " * ".join(factor.to_sql() for factor in self.factors) + ")"


def walk(expr: Expr):
    """Yield every node of the tree, depth first, parents last."""
    for child in expr.children():
        yield from walk(child)
    yield expr


def column_names(expr: Expr) -> List[str]:
    """Distinct column names referenced, in first-use order."""
    seen: List[str] = []
    for node in walk(expr):
        if isinstance(node, ColumnRef) and node.name not in seen:
            seen.append(node.name)
    return seen

