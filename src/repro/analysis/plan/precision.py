"""Precision/scale proofs over a plan's compiled kernels (``PREC*`` rules).

The planner compiles every JIT expression of a plan once, against the
DECIMAL schema of the batch its operator reads, and records the result
on the operator.  This pass reads those kernels -- it compiles nothing --
and proves at the *plan* level that every expression result fits the
register width the JIT allocates; aggregates widen through the section
III-B3 inference rules.

The proof is deliberately redundant with the kernel range pass
(``repro.analysis.ranges``): this pass walks the optimised expression
*tree* with the same interval transfer functions the kernel pass applies
to the *IR*, and then cross-checks the two verdicts.  Agreement is
reported as a ``PREC004`` proof; disagreement is a ``PREC002`` error --
the two layers analysing the same expression must never tell different
stories, so a bug in either transfer function surfaces as a mismatch
instead of a silently wrong proof.

Rules:

* ``PREC001`` (error): a plan-level interval can exceed its node's
  allocated word container (the plan-level analogue of ``RANGE001``).
* ``PREC002`` (error): the plan-level overflow verdict disagrees with the
  kernel range pass on the same expression.
* ``PREC004`` (info): proof -- the expression result fits its container
  and the plan-level and kernel-level analyses agree.
* ``PREC005`` (info/error): aggregate widening proof over the simulated
  tuple count (error when the widened spec cannot be constructed).

An expression that cannot compile against its batch fails planning with
the compiler's own error, so it never reaches this pass.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.ranges import (
    POSSIBLE_OVERFLOW,
    _abs_interval,
    _container_limit,
    _div_interval,
    _magnitude,
    _mod_interval,
    _mul_interval,
    _rescale_interval,
    analyze_ranges,
)
from repro.core.decimal import inference
from repro.core.decimal.context import DecimalSpec
from repro.core.jit import expr_ast
from repro.core.jit.pipeline import CompiledExpression
from repro.engine.plan.physical import _KernelOp
from repro.engine.sql.ast_nodes import AggregateCall
from repro.errors import ReproError

PLAN_OVERFLOW = "PREC001"
PROOF_MISMATCH = "PREC002"
EXPR_PROOF = "PREC004"
AGGREGATE_PROOF = "PREC005"

Interval = Tuple[int, int]


def check_precision_flow(plan_ops, stats, label: str = "") -> List[Diagnostic]:
    """Run the precision pass over the planned kernels; returns its diagnostics.

    Declines (empty list) without statistics: column specs come from the
    catalog, and a plan analysed without them could prove nothing sound.
    """
    findings: List[Diagnostic] = []
    if stats is None:
        return findings

    def report(
        rule: str, severity: Severity, message: str, position: Optional[int] = None
    ) -> None:
        findings.append(
            Diagnostic(rule, severity, message, kernel=label, instruction=position)
        )

    sim_n = max(int(stats.simulate_rows), 1)
    for position, op in enumerate(plan_ops):
        if not isinstance(op, _KernelOp):
            continue
        for item, planned in zip(op.items, op.kernels):
            spec: Optional[DecimalSpec] = None
            if planned is not None:
                spec = _check_kernel(planned[0], report, position)
            call = item.expression
            if not isinstance(call, AggregateCall) or call.function == "COUNT":
                continue
            if spec is None and isinstance(item.tree, expr_ast.ColumnRef):
                # A bare DECIMAL argument, typed as the planner compiled it.
                spec = op.schema.get(item.tree.name)
            if spec is not None:
                _aggregate_spec(call.function, spec, sim_n, report, position, str(call))
    return findings


def _aggregate_spec(
    function: str,
    arg_spec: DecimalSpec,
    sim_n: int,
    report,
    position: int,
    what: str,
) -> None:
    """Widen an aggregate input spec and report the proof (``PREC005``)."""
    try:
        if function == "SUM":
            result = inference.sum_result(arg_spec, sim_n)
        elif function == "AVG":
            result = inference.avg_result(arg_spec, sim_n)
        else:  # MIN/MAX keep the input spec
            result = inference.minmax_result(arg_spec)
    except ReproError as error:
        report(
            AGGREGATE_PROOF,
            Severity.ERROR,
            f"{what}: no overflow-free spec over {sim_n} simulated rows: {error}",
            position,
        )
        return
    report(
        AGGREGATE_PROOF,
        Severity.INFO,
        f"{what}: input {arg_spec} over <= {sim_n} simulated rows widens to "
        f"{result} ({result.words} word(s)) -- overflow-free by construction",
        position,
    )


def _check_kernel(compiled: CompiledExpression, report, position: int) -> DecimalSpec:
    """Run the plan-level interval proof on one planned kernel.

    Returns the result spec execution will see (the kernel's).
    """
    kernel_name = compiled.kernel.name
    overflows: List[Tuple[str, int, DecimalSpec]] = []
    _walk_intervals(compiled.tree, overflows)
    plan_overflow = bool(overflows)
    range_findings, _ = analyze_ranges(compiled.kernel)
    kernel_overflow = any(d.rule == POSSIBLE_OVERFLOW for d in range_findings)

    for node_sql, magnitude, spec in overflows:
        report(
            PLAN_OVERFLOW,
            Severity.ERROR,
            f"{kernel_name}: {node_sql} bound {magnitude} exceeds its "
            f"{spec.words}-word container ({spec})",
            position,
        )
    if plan_overflow != kernel_overflow:
        verdict = {True: "overflow possible", False: "overflow-free"}
        report(
            PROOF_MISMATCH,
            Severity.ERROR,
            f"{kernel_name}: plan-level interval proof says "
            f"{verdict[plan_overflow]} but the kernel range pass says "
            f"{verdict[kernel_overflow]} -- the two layers must agree",
            position,
        )
    elif not plan_overflow:
        result = compiled.kernel.result_spec
        report(
            EXPR_PROOF,
            Severity.INFO,
            f"{kernel_name}: result {result} fits {result.words} word(s); "
            "plan-level and kernel-level overflow proofs agree",
            position,
        )
    return compiled.kernel.result_spec


def _walk_intervals(tree: expr_ast.Expr, overflows: List) -> Interval:
    """Interval walk over the *optimised* expression tree.

    Uses the same transfer functions as the kernel range pass
    (``repro.analysis.ranges``) so the two layers' verdicts are directly
    comparable: column leaves start at their spec bounds, ``+``/``-``
    align operands to the result scale, division pre-scales the dividend
    by ``10**(s2 + 4)``, and every node's bound is checked against its
    inferred spec's word container (clamping on overflow, exactly as the
    IR pass clamps, so downstream bounds stay meaningful).
    """

    def check(node: expr_ast.Expr, interval: Interval) -> Interval:
        spec = node.spec
        if spec is None:
            return interval
        limit = _container_limit(spec)
        if _magnitude(interval) > limit:
            overflows.append((node.to_sql(), _magnitude(interval), spec))
            return (-limit, limit)
        return interval

    def walk(node: expr_ast.Expr) -> Interval:
        if isinstance(node, expr_ast.ColumnRef):
            bound = node.spec.max_unscaled
            return (-bound, bound)
        if isinstance(node, expr_ast.Literal):
            unscaled = int(node.value * 10**node.spec.scale)
            return check(node, (unscaled, unscaled))
        if isinstance(node, expr_ast.UnaryOp):
            lo, hi = walk(node.operand)
            interval = (-hi, -lo) if node.op == "-" else (lo, hi)
            return check(node, interval)
        if isinstance(node, expr_ast.BinaryOp):
            a = walk(node.left)
            b = walk(node.right)
            if node.op in ("+", "-"):
                a = _rescale_interval(a, node.left.spec.scale, node.spec.scale)
                b = _rescale_interval(b, node.right.spec.scale, node.spec.scale)
                if node.op == "+":
                    interval = (a[0] + b[0], a[1] + b[1])
                else:
                    interval = (a[0] - b[1], a[1] - b[0])
            elif node.op == "*":
                interval = _mul_interval(a, b)
            elif node.op == "/":
                factor = 10 ** inference.div_prescale(node.right.spec)
                interval = _div_interval(a, b, factor)
            else:  # "%"
                interval = _mod_interval(a, b)
            return check(node, interval)
        if isinstance(node, expr_ast.FuncCall):
            arg = walk(node.argument)
            if node.function == "ABS":
                interval = _abs_interval(arg)
            elif node.function == "SIGN":
                interval = (-1 if arg[0] < 0 else 0, 1 if arg[1] > 0 else 0)
            elif node.function == "POWER":
                # Normally expanded before codegen; cover it defensively.
                interval = arg
                for _ in range(max(node.scale_arg - 1, 0)):
                    interval = _mul_interval(interval, arg)
            else:  # ROUND/TRUNC/CEIL/FLOOR: floor/ceil bracket every mode
                interval = _rescale_interval(
                    arg, node.argument.spec.scale, node.spec.scale
                )
            return check(node, interval)
        if isinstance(node, expr_ast.NaryAdd):
            total: Interval = (0, 0)
            for term in node.terms:
                t = _rescale_interval(
                    walk(term), term.spec.scale, node.spec.scale
                )
                total = (total[0] + t[0], total[1] + t[1])
            return check(node, total)
        if isinstance(node, expr_ast.NaryMul):
            product: Interval = (1, 1)
            for factor in node.factors:
                product = _mul_interval(product, walk(factor))
            return check(node, product)
        # Unknown node kind: claim only what its spec already guarantees.
        if node.spec is not None:
            bound = node.spec.max_unscaled
            return (-bound, bound)
        return (0, 0)

    return walk(tree)
