"""Bottom-up precision/scale inference over expression trees.

Applies the section III-B3 rules (see ``repro.core.decimal.inference``) to
annotate every node of an expression with its result ``DecimalSpec``, given
the schema of the relation the expression runs over.  This is the step that
lets the code generator size every register array at compile time.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.decimal import inference
from repro.core.decimal.context import DecimalSpec
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
from repro.errors import TypeInferenceError

Schema = Mapping[str, DecimalSpec]


def infer(expr: Expr, schema: Schema) -> DecimalSpec:
    """Annotate ``expr`` (in place) with inferred specs; returns the root spec."""
    if isinstance(expr, ColumnRef):
        try:
            expr.spec = schema[expr.name]
        except KeyError:
            raise TypeInferenceError(f"unknown column {expr.name!r}") from None
    elif isinstance(expr, Literal):
        # Keep an already-annotated spec: constant pre-alignment (section
        # III-D2) deliberately widens a literal beyond its minimal spec, and
        # the pipeline re-infers after POWER expansion -- resetting here
        # would undo the alignment and re-emit a runtime Align.  Parsed
        # literals carry their written spec and folded ones the scale of the
        # literals they replace; only a bare ``Literal(value)`` gets the
        # minimal one.
        if expr.spec is None:
            expr.spec = expr.minimal_spec()
    elif isinstance(expr, UnaryOp):
        expr.spec = infer(expr.operand, schema)
    elif isinstance(expr, FuncCall):
        argument = infer(expr.argument, schema)
        expr.spec = inference.function_result(expr.function, argument, expr.scale_arg)
    elif isinstance(expr, BinaryOp):
        left = infer(expr.left, schema)
        right = infer(expr.right, schema)
        expr.spec = _binary_result(expr.op, left, right)
    elif isinstance(expr, NaryAdd):
        spec = infer(expr.terms[0], schema)
        for term in expr.terms[1:]:
            spec = inference.add_result(spec, infer(term, schema))
        expr.spec = spec
    elif isinstance(expr, NaryMul):
        spec = infer(expr.factors[0], schema)
        for factor in expr.factors[1:]:
            spec = inference.mul_result(spec, infer(factor, schema))
        expr.spec = spec
    else:
        raise TypeInferenceError(f"cannot infer spec for {type(expr).__name__}")
    return expr.spec


def _binary_result(op: str, left: DecimalSpec, right: DecimalSpec) -> DecimalSpec:
    if op in ("+", "-"):
        return inference.add_result(left, right)
    if op == "*":
        return inference.mul_result(left, right)
    if op == "/":
        return inference.div_result(left, right)
    if op == "%":
        return inference.mod_result(left, right)
    raise TypeInferenceError(f"unsupported operator {op!r}")
