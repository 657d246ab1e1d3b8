"""Binary <-> n-ary expression tree transforms (paper section III-D1).

The alignment scheduler and the constant optimiser both work on n-ary trees:

1. subtractions are rewritten as additions of negated subtrees
   (``a - b`` -> ``a + (-b)``);
2. addition operators at neighbouring levels collapse into one
   :class:`NaryAdd` node (and ``*`` chains into :class:`NaryMul`);
3. after scheduling, the n-ary tree converts back to a left-deep binary
   tree for code generation.
"""

from __future__ import annotations

from typing import List

from repro.core.jit.expr_ast import (
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    Literal,
    NaryAdd,
    NaryMul,
    UnaryOp,
)
from repro.errors import ExpressionError


def to_nary(expr: Expr) -> Expr:
    """Convert a binary tree to the n-ary form used by the optimiser.

    Every node of the result is new, leaves included, so the passes after
    it annotate and rewrite their own nodes, never the caller's tree.
    """
    if isinstance(expr, ColumnRef):
        return ColumnRef(expr.name)
    if isinstance(expr, Literal):
        return _literal(expr.value, expr.spec)
    if isinstance(expr, UnaryOp):
        operand = to_nary(expr.operand)
        if expr.op == "+":
            return operand  # the "+a" shortcut is free
        return _negate(operand)
    if isinstance(expr, FuncCall):
        return FuncCall(expr.function, to_nary(expr.argument), expr.scale_arg)
    if isinstance(expr, BinaryOp):
        left = to_nary(expr.left)
        right = to_nary(expr.right)
        if expr.op == "+":
            return NaryAdd(_addends(left) + _addends(right))
        if expr.op == "-":
            return NaryAdd(_addends(left) + _addends(_negate(right)))
        if expr.op == "*":
            return NaryMul(_factors(left) + _factors(right))
        return BinaryOp(expr.op, left, right)  # '/' and '%' stay binary
    if isinstance(expr, NaryAdd):
        return NaryAdd([to_nary(term) for term in expr.terms])
    if isinstance(expr, NaryMul):
        return NaryMul([to_nary(factor) for factor in expr.factors])
    raise ExpressionError(f"cannot convert {type(expr).__name__} to n-ary form")


def to_binary(expr: Expr) -> Expr:
    """Convert an n-ary tree back to a left-deep binary tree (step 5)."""
    if isinstance(expr, (ColumnRef, Literal)):
        return expr
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, to_binary(expr.operand))
    if isinstance(expr, FuncCall):
        return FuncCall(expr.function, to_binary(expr.argument), expr.scale_arg)
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, to_binary(expr.left), to_binary(expr.right))
    if isinstance(expr, NaryAdd):
        return _fold("+", [to_binary(term) for term in expr.terms])
    if isinstance(expr, NaryMul):
        return _fold("*", [to_binary(factor) for factor in expr.factors])
    raise ExpressionError(f"cannot convert {type(expr).__name__} to binary form")


def _fold(op: str, nodes: List[Expr]) -> Expr:
    if not nodes:
        raise ExpressionError(f"empty n-ary {op!r} node")
    result = nodes[0]
    for node in nodes[1:]:
        # `x + (-y)` folds back to the cheaper `x - y` binary operator.
        if op == "+" and isinstance(node, UnaryOp) and node.op == "-":
            result = BinaryOp("-", result, node.operand)
        else:
            result = BinaryOp(op, result, node)
    return result


def _negate(expr: Expr) -> Expr:
    if isinstance(expr, UnaryOp) and expr.op == "-":
        return expr.operand  # --x -> x
    if isinstance(expr, Literal):
        return _literal(-expr.value, expr.spec)
    if isinstance(expr, NaryAdd):
        return NaryAdd([_negate(term) for term in expr.terms])
    return UnaryOp("-", expr)


def _addends(expr: Expr) -> List[Expr]:
    if isinstance(expr, NaryAdd):
        return list(expr.terms)
    return [expr]


def _factors(expr: Expr) -> List[Expr]:
    if isinstance(expr, NaryMul):
        return list(expr.factors)
    return [expr]


def _literal(value, spec) -> Literal:
    literal = Literal(value)
    literal.spec = spec
    return literal
