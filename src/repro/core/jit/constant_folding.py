"""Constant construction and pre-calculation (paper section III-D2, Fig. 7).

Three compile-time optimisations over the n-ary tree:

* **pre-calculation** -- constant children of a sum/product are folded
  exactly (``1 + a + 2 + 11`` -> ``14 + a``; ``0.25 * (a+b) * 4`` ->
  ``a + b``), leaving at most one constant per n-ary level;
* **shortcuts** -- subtrees evaluable immediately disappear (``+a``,
  ``0 + a``, ``1 * a``, ``0 * a``);
* **constant construction** -- each surviving literal is converted to a
  DECIMAL constant at compile time and pre-aligned "to the minimum of the
  nodes having a greater or equal scale", so no per-tuple conversion or
  alignment is spent on it (Figure 7's ``2.23`` -> ``2.230`` example).

A folded constant keeps the scale the section III-B3 rules give the
literals it replaces (the largest addend scale, or the sum of the factor
scales): ``0.10 * a`` stays at ``a``'s scale plus 2, not plus 1.  A
narrower constant would move its term to a scale no sibling has and cost
the enclosing sum an alignment the unoptimised kernel does not perform.
For the same reason the ``1 * a`` shortcut is held back for a sum's term
when the folded one carries a scale (``c + 1.00 * a``); elsewhere
``0.25 * (a + b) * 4`` still folds to ``a + b``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from repro.core.decimal.context import DecimalSpec
from repro.core.jit.expr_ast import (
    BinaryOp,
    Expr,
    FuncCall,
    Literal,
    NaryAdd,
    NaryMul,
    UnaryOp,
)


def fold_constants(expr: Expr, in_sum: bool = False) -> Expr:
    """Fold constant subtrees bottom-up; returns the (possibly new) root.

    Requires inference to have run: folded literals take their scale from
    the specs of the nodes they replace.  ``in_sum`` marks a term (or a
    negated term) of an n-ary sum.
    """
    if isinstance(expr, NaryAdd):
        terms = [fold_constants(term, in_sum=True) for term in expr.terms]
        terms = _flatten_sums(terms)
        literals, others = _split(terms)
        constant = sum((lit.value for lit in literals), Fraction(0))
        scale = max((_scale(lit) for lit in literals), default=0)
        if not others:
            return _folded(constant, scale)
        new_terms = list(others)
        if constant != 0:
            new_terms.append(_folded(constant, scale))
        if len(new_terms) == 1:
            return new_terms[0]  # the "0 + a -> a" shortcut
        return NaryAdd(new_terms)
    if isinstance(expr, NaryMul):
        factors = [fold_constants(factor) for factor in expr.factors]
        literals, others = _split(factors)
        constant = Fraction(1)
        for literal in literals:
            constant *= literal.value
        scale = sum(_scale(lit) for lit in literals)
        if constant == 0:
            # 0 * a evaluates immediately, at the product's scale.
            return _folded(constant, expr.spec.scale if expr.spec else scale)
        if not others:
            return _folded(constant, scale)
        new_factors = list(others)
        if constant != 1 or (in_sum and scale > 0):
            new_factors.insert(0, _folded(constant, scale))
        if len(new_factors) == 1:
            return new_factors[0]  # the "1 * a -> a" shortcut
        return NaryMul(new_factors)
    if isinstance(expr, UnaryOp):
        operand = fold_constants(expr.operand, in_sum=in_sum)
        if expr.op == "+":
            return operand
        if isinstance(operand, Literal):
            return _folded(-operand.value, _scale(operand))
        if isinstance(operand, UnaryOp) and operand.op == "-":
            return operand.operand
        return UnaryOp(expr.op, operand)
    if isinstance(expr, FuncCall):
        argument = fold_constants(expr.argument)
        if isinstance(argument, Literal):
            folded = _fold_function(expr.function, argument.value, expr.scale_arg)
            if folded is not None:
                return _folded(folded, expr.spec.scale if expr.spec else 0)
        return FuncCall(expr.function, argument, expr.scale_arg)
    if isinstance(expr, BinaryOp):
        # '/' and '%' keep DECIMAL truncation semantics, so only fold them
        # when both sides are constant *and* the result is exact.
        left = fold_constants(expr.left)
        right = fold_constants(expr.right)
        if (
            expr.op == "/"
            and isinstance(left, Literal)
            and isinstance(right, Literal)
            and right.value != 0
        ):
            exact = left.value / right.value
            if _is_decimal_fraction(exact):
                return _folded(exact, expr.spec.scale if expr.spec else 0)
        return BinaryOp(expr.op, left, right)
    return expr


def _fold_function(function: str, value: Fraction, scale_arg: int):
    """Exact compile-time evaluation of a scalar function on a constant."""
    import math

    if function == "ABS":
        return abs(value)
    if function == "SIGN":
        return Fraction((value > 0) - (value < 0))
    if function == "FLOOR":
        return Fraction(math.floor(value))
    if function == "CEIL":
        return Fraction(math.ceil(value))
    if function == "TRUNC":
        base = 10**scale_arg
        scaled = value * base
        truncated = scaled.numerator // scaled.denominator
        if scaled < 0 and truncated * scaled.denominator != scaled.numerator:
            truncated += 1  # truncate toward zero
        return Fraction(truncated, base)
    if function == "ROUND":
        base = 10**scale_arg
        scaled = value * base
        sign = -1 if scaled < 0 else 1
        magnitude = abs(scaled)
        rounded = (2 * magnitude.numerator + magnitude.denominator) // (
            2 * magnitude.denominator
        )
        return Fraction(sign * rounded, base)
    return None


def align_constants(expr: Expr) -> Expr:
    """Pre-align each literal's DECIMAL spec to its future neighbours.

    Within a scheduled n-ary sum, a constant is re-declared at the minimum
    scale among sibling terms whose scale is greater than or equal to its
    own, removing the runtime alignment it would otherwise cost
    (Figure 7: ``2.23`` in DECIMAL(3,2) is stored as DECIMAL(4,3) to match
    ``d``'s scale 3).  Requires inference to have run.
    """
    if isinstance(expr, NaryAdd):
        terms = [align_constants(term) for term in expr.terms]
        scales = [term.effective_scale for term in terms]
        for index, term in enumerate(terms):
            if not isinstance(term, Literal):
                continue
            candidates = [s for j, s in enumerate(scales) if j != index and s >= scales[index]]
            if candidates:
                terms[index] = _rescale_literal(term, min(candidates))
        return _with_spec(NaryAdd(terms), expr)
    if isinstance(expr, NaryMul):
        return _with_spec(NaryMul([align_constants(factor) for factor in expr.factors]), expr)
    if isinstance(expr, UnaryOp):
        return _with_spec(UnaryOp(expr.op, align_constants(expr.operand)), expr)
    if isinstance(expr, BinaryOp):
        return _with_spec(
            BinaryOp(expr.op, align_constants(expr.left), align_constants(expr.right)), expr
        )
    if isinstance(expr, FuncCall):
        return _with_spec(
            FuncCall(expr.function, align_constants(expr.argument), expr.scale_arg), expr
        )
    return expr


def _with_spec(new: Expr, old: Expr) -> Expr:
    new.spec = old.spec
    return new


def _scale(literal: Literal) -> int:
    return (literal.spec or literal.minimal_spec()).scale


def _folded(value: Fraction, scale: int) -> Literal:
    """A literal for ``value`` at ``scale``, or wider if the value needs it."""
    return _rescale_literal(Literal(value), scale)


def _rescale_literal(literal: Literal, scale: int) -> Literal:
    base = literal.minimal_spec()
    extra = scale - base.scale
    rescaled = Literal(literal.value)
    rescaled.spec = DecimalSpec(base.precision + extra, scale) if extra > 0 else base
    return rescaled


def _split(nodes: List[Expr]) -> Tuple[List[Literal], List[Expr]]:
    literals = [node for node in nodes if isinstance(node, Literal)]
    others = [node for node in nodes if not isinstance(node, Literal)]
    return literals, others


def _flatten_sums(terms: List[Expr]) -> List[Expr]:
    """Re-collapse sums that folding may have re-exposed."""
    flat: List[Expr] = []
    for term in terms:
        if isinstance(term, NaryAdd):
            flat.extend(term.terms)
        else:
            flat.append(term)
    return flat


def _is_decimal_fraction(value: Fraction) -> bool:
    denominator = value.denominator
    for base in (2, 5):
        while denominator % base == 0:
            denominator //= base
    return denominator == 1
