"""Logical -> physical planning: rewrite rules, costing, physical choice.

``plan_query`` builds the logical plan, drives the rewrite-rule engine
(:mod:`repro.engine.plan.rules`) to a fixpoint, and lowers each logical
node to a physical operator, choosing between physical alternatives
(hash vs nested-loop join) with the
:class:`~repro.engine.plan.cost.CostModel`.  :func:`estimate_plan` puts
an ISGBD-style :class:`~repro.engine.plan.cost.CostEstimate` on every
operator of a finished plan: the planner reads it for the rows entering
each join, and EXPLAIN for every line it prints.

It is also the one place that compiles: every kernel of the plan is
compiled once, through the kernel cache the caller passes, and recorded
on its operator, where the executor and EXPLAIN (with the plan analyzer
it runs) read it.  :func:`kernel_view` looks a reused plan's kernels up
again through the same cache, by the same rule, for each further
execution.

The returned :class:`PhysicalPlan` behaves like the plain operator list
older call sites expect, and additionally carries the rewrite trace and
the cost-based choices.
"""

from __future__ import annotations

import copy
import math
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.decimal import inference
from repro.core.jit.expr_ast import ColumnRef
from repro.core.jit.pipeline import JitOptions, KernelCache
from repro.core.multithread import aggregation as mt_aggregation
from repro.engine.plan.cost import (
    CostEstimate,
    CostModel,
    OptimizerConfig,
    PlanStats,
    join_output_rows,
    predicate_selectivity,
)
from repro.engine.plan.logical import (
    LogicalAggregate,
    LogicalDrop,
    LogicalFilter,
    LogicalHaving,
    LogicalJoin,
    LogicalLimit,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    build_logical_plan,
)
from repro.engine.plan.physical import (
    AggregateOp,
    DropOp,
    FilterOp,
    GroupAggregateOp,
    HashJoinOp,
    LimitOp,
    NestedLoopJoinOp,
    PhysicalOp,
    PlannedKernel,
    ProjectOp,
    ScanOp,
    SortOp,
    _JoinOp,
    _KernelOp,
)
from repro.engine.plan.rules import RewriteEvent, apply_rules, default_rules
from repro.engine.sql.ast_nodes import AggregateCall, Query
from repro.errors import PlanningError, TypeInferenceError
from repro.storage.schema import DecimalType


class PhysicalPlan:
    """The physical operator chain plus its planning trace.

    Iterates/indexes like the plain ``List[PhysicalOp]`` the executor and
    EXPLAIN historically consumed; ``events`` records the rewrite-rule
    firings and ``choices`` the cost-based physical decisions.
    """

    def __init__(
        self,
        ops: List[PhysicalOp],
        events: Optional[List[RewriteEvent]] = None,
        choices: Optional[List[str]] = None,
    ):
        self.ops = list(ops)
        self.events = list(events or [])
        self.choices = list(choices or [])

    def __iter__(self) -> Iterator[PhysicalOp]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __getitem__(self, index):
        return self.ops[index]


def plan_query(
    query: Query,
    available_columns: List[str],
    joined_columns=None,
    *,
    stats: PlanStats,
    optimizer: Optional[OptimizerConfig] = None,
    cost_model: Optional[CostModel] = None,
    kernel_cache: Optional[KernelCache] = None,
    jit_options: Optional[JitOptions] = None,
) -> PhysicalPlan:
    """Build the physical operator plan for a parsed query.

    ``optimizer`` defaults to off, which reproduces the historical
    fixed-shape translation (plus the always-on sort-key retention pass),
    and ``cost_model`` to :class:`CostModel`'s defaults.  Every kernel is
    compiled through ``kernel_cache`` (a fresh one when None) with
    ``jit_options``.

    The plan holds only what planning decided.  Estimates are
    :func:`estimate_plan`'s, read here only for the rows entering each
    join, so a join-free plan reads of ``stats`` only the main table's
    column types and ``simulate_rows``.
    """
    optimizer = optimizer if optimizer is not None else OptimizerConfig.off()
    cost_model = cost_model if cost_model is not None else CostModel()
    cache = kernel_cache if kernel_cache is not None else KernelCache()
    nodes = build_logical_plan(query, available_columns, joined_columns)
    nodes, events = apply_rules(nodes, default_rules(optimize=optimizer.enabled), stats)

    choices: List[str] = []
    ops: List[PhysicalOp] = []
    for node in nodes:
        if isinstance(node, LogicalScan):
            op: PhysicalOp = ScanOp(node.columns)
        elif isinstance(node, LogicalJoin):
            # The rows entering a join are the one estimate planning reads.
            rows = estimate_plan(ops, stats, cost_model)[-1].rows
            op = _plan_join(node, rows, stats, optimizer, cost_model, choices)
        elif isinstance(node, (LogicalFilter, LogicalHaving)):
            always_false = isinstance(node, LogicalFilter) and node.always_false
            op = FilterOp(node.predicates, always_false=always_false)
        elif isinstance(node, LogicalAggregate):
            if node.group_by:
                for item in node.aggregates:
                    if not item.is_aggregate and not (
                        isinstance(item.tree, ColumnRef) and item.tree.name in node.group_by
                    ):
                        raise PlanningError(
                            f"select item {item.text!r} is neither an aggregate "
                            "nor a GROUP BY column"
                        )
                aggregates = [item for item in node.aggregates if item.is_aggregate]
                op = GroupAggregateOp(node.group_by, aggregates)
            else:
                if not all(item.is_aggregate for item in node.aggregates):
                    raise PlanningError(
                        "mixing aggregates and bare expressions requires GROUP BY"
                    )
                op = AggregateOp(node.aggregates)
            _compile_kernels(op, _input_types(ops, stats), cache, jit_options)
        elif isinstance(node, LogicalProject):
            op = ProjectOp(node.items, carry=node.carry)
            _compile_kernels(op, _input_types(ops, stats), cache, jit_options)
        elif isinstance(node, LogicalSort):
            op = SortOp(node.keys)
        elif isinstance(node, LogicalDrop):
            op = DropOp(node.columns)
        elif isinstance(node, LogicalLimit):
            op = LimitOp(node.count)
        else:
            raise PlanningError(f"unknown logical node {type(node).__name__}")
        ops.append(op)
    _push_zone_predicates(ops)
    return PhysicalPlan(ops, events, choices)


def estimate_plan(
    ops: Sequence[PhysicalOp], stats: PlanStats, cost_model: CostModel
) -> List[CostEstimate]:
    """Each operator's ISGBD-style ``(startup, total, rows)`` estimate, in order.

    Every estimate is priced by the cost model's charge methods at the
    estimated rows entering its operator: ``simulate_rows`` at the scan,
    then each operator's estimated output.  Filters take their
    selectivity from the catalog statistics, joins their cardinality
    (:func:`_join_estimates`), aggregates their group count.  The
    planner reads the rows entering each join; EXPLAIN reads them all.
    """
    estimates: List[CostEstimate] = []
    rows = float(stats.simulate_rows)
    #: Bytes per row of the columns computed so far (kernel and aggregate
    #: results, renamed columns), which the catalog does not know.
    computed: Dict[str, float] = {}
    for op in ops:
        if isinstance(op, ScanOp):
            scanned = stats.main.bytes_for(op.columns) * rows
            seconds = cost_model.disk_scan(scanned) + cost_model.transfer(scanned)
            estimate = CostEstimate(0.0, seconds, rows)
        elif isinstance(op, _JoinOp):
            algorithm = "hash" if isinstance(op, HashJoinOp) else "nested-loop"
            estimate = _join_estimates(op, rows, stats, cost_model)[algorithm]
        elif isinstance(op, FilterOp):
            if op.always_false:
                estimate = CostEstimate(0.0, 0.0, 0.0)
            else:
                bytes_per_row = _predicate_bytes(op.predicates, stats, computed)
                selected = rows * predicate_selectivity(op.predicates, stats.main)
                estimate = CostEstimate(
                    0.0, cost_model.filter_pass(bytes_per_row, rows), selected
                )
        elif isinstance(op, (AggregateOp, GroupAggregateOp)):
            estimate = _aggregate_estimate(op, rows, stats, cost_model, computed)
        elif isinstance(op, ProjectOp):
            for item, planned in zip(op.items, op.kernels):
                computed[item.name] = (
                    _column_bytes(stats, item.tree.name, computed)
                    if planned is None
                    else planned[0].kernel.result_spec.compact_bytes
                )
            result_bytes = sum(computed[item.name] for item in op.items)
            estimate = CostEstimate(0.0, cost_model.transfer(result_bytes * rows), rows)
        elif isinstance(op, SortOp):
            seconds = cost_model.sort()
            # A sort emits nothing until the whole input is consumed.
            estimate = CostEstimate(seconds, seconds, rows)
        elif isinstance(op, DropOp):
            estimate = CostEstimate(0.0, 0.0, rows)
        elif isinstance(op, LimitOp):
            estimate = CostEstimate(0.0, 0.0, min(float(op.count), rows))
        else:
            raise PlanningError(f"unknown physical operator {type(op).__name__}")
        estimates.append(estimate)
        rows = estimate.rows
    return estimates


def _aggregate_estimate(
    op: _KernelOp,
    rows: float,
    stats: PlanStats,
    cost_model: CostModel,
    computed: Dict[str, float],
) -> CostEstimate:
    """What :class:`AggregateOp` or :class:`GroupAggregateOp` charges over
    ``rows`` estimated input rows, priced by the same cost-model methods.

    A grouped aggregate charges the key sort, a payload gather per
    aggregate, and each estimated group's reductions; an ungrouped one is
    a single group over every row.  Each aggregate's width comes from its
    input spec (the kernel's result spec, or the bare column's) and its
    result spec, which is also recorded in ``computed``.
    """
    sim_n = max(int(round(rows)), 1)
    seconds = 0.0
    groups = 1.0
    charged = sim_n
    if isinstance(op, GroupAggregateOp):
        groups = _estimate_groups(op.group_by, rows, stats)
        charged = max(int(sim_n / max(groups, 1)), 1)
        key_bytes = sum(_column_bytes(stats, name, computed) for name in op.group_by)
        seconds += cost_model.key_sort(key_bytes, rows)
    per_group = 0.0
    for item, planned in zip(op.items, op.kernels):
        call = item.expression
        if call.function == "COUNT":
            computed[item.name] = inference.count_spec(sim_n).compact_bytes
            continue
        spec = planned[0].kernel.result_spec if planned is not None else op.schema[item.tree.name]
        result = mt_aggregation.result_spec(call.function.lower(), spec, charged)
        computed[item.name] = result.compact_bytes
        if isinstance(op, GroupAggregateOp):
            seconds += cost_model.payload_gather(4 * spec.words + 1, rows)
        per_group += cost_model.reduction(result.words, charged)
    seconds += groups * per_group
    return CostEstimate(seconds, seconds, groups)


def _input_types(upstream: List[PhysicalOp], stats: PlanStats) -> Dict[str, object]:
    """Column types of the batch the operators ``upstream`` produce.

    The one rule for which schema a kernel compiles against.  Every plan
    has one kernel-bearing operator, fed by the scan and the joins (a
    filter keeps the columns): the scan's columns plus each join's ship
    columns, the left side winning on a name collision as in
    :meth:`~repro.engine.plan.physical._JoinOp._join`.
    """
    types: Dict[str, object] = {}
    for op in upstream:
        if isinstance(op, ScanOp):
            types = {name: stats.main.column_types.get(name) for name in op.columns}
        elif isinstance(op, _JoinOp):
            right = stats.table(op.join.table)
            for name in op.right_columns:
                types.setdefault(name, right.column_types.get(name) if right else None)
    return types


def _compile_kernels(
    op: _KernelOp,
    types: Dict[str, object],
    cache: KernelCache,
    jit_options: Optional[JitOptions],
) -> None:
    """Compile each of ``op``'s kernels once and record it on the operator.

    No kernel runs for COUNT, for a projected bare column of any type, or
    for an aggregated bare DECIMAL column; any other expression compiles
    against the batch's DECIMAL columns, and one that cannot fails here
    with the compiler's own error.  COUNT's argument is not computed, but
    a column it names must exist all the same.
    """
    op.schema = {
        name: column_type.spec
        for name, column_type in types.items()
        if isinstance(column_type, DecimalType)
    }
    bare_columns = set(types) if isinstance(op, ProjectOp) else set(op.schema)
    for index, item in enumerate(op.items):
        expression = item.expression
        if isinstance(expression, AggregateCall) and expression.function == "COUNT":
            for name in item.columns:
                if name not in types:
                    raise TypeInferenceError(f"unknown column {name!r}")
            continue
        if not (isinstance(item.tree, ColumnRef) and item.tree.name in bare_columns):
            op.kernels[index] = _lookup_kernel(op, index, cache, jit_options)


def _lookup_kernel(
    op: _KernelOp, index: int, cache: KernelCache, jit_options: Optional[JitOptions]
) -> PlannedKernel:
    """Item ``index``'s kernel through ``cache``: the one rule for its text and name."""
    prefix = "calc_expr" if isinstance(op, ProjectOp) else "agg_expr"
    item = op.items[index]
    return cache.compile(
        item.text, op.schema, jit_options, name=f"{prefix}_{index}", tree=item.tree
    )


def kernel_view(
    plan: PhysicalPlan, cache: KernelCache, jit_options: Optional[JitOptions]
) -> List[PhysicalOp]:
    """``plan``'s operators for one more execution of an already planned query.

    A kernel-bearing operator's ``kernels`` record whether each kernel was
    cached *when the plan was made*, which decides the compile charge.  A
    reused plan is shared (by concurrent sessions, too), so it is never
    edited: each kernel of ``plan`` is looked up again through ``cache``
    -- recompiled, and charged, if it has been evicted or cleared since --
    into a shallow copy of its operator.
    """
    ops = list(plan.ops)
    for position, op in enumerate(ops):
        if isinstance(op, _KernelOp):
            view = copy.copy(op)
            view.kernels = [
                None if planned is None else _lookup_kernel(op, index, cache, jit_options)
                for index, planned in enumerate(op.kernels)
            ]
            ops[position] = view
    return ops


def _push_zone_predicates(ops: List[PhysicalOp]) -> None:
    """Attach the adjacent filter's literal conjuncts to the leading scan.

    The scan uses them only for zone-map chunk pruning (byte accounting);
    the filter still computes the exact mask, so this is always sound.
    Conservatively limited to the scan-then-filter prefix -- a join or
    project in between could change the row space the predicates see.
    """
    if len(ops) < 2 or not isinstance(ops[0], ScanOp):
        return
    filter_op = ops[1]
    if not isinstance(filter_op, FilterOp) or filter_op.always_false:
        return
    ops[0].predicates = [
        predicate
        for predicate in filter_op.predicates
        if predicate.column_rhs is None
    ]


def _plan_join(
    node: LogicalJoin,
    rows: float,
    stats: PlanStats,
    optimizer: OptimizerConfig,
    cost_model: CostModel,
    choices: List[str],
) -> _JoinOp:
    """Lower one join over ``rows`` estimated left rows, cost-choosing the
    algorithm when the optimizer runs (hash join otherwise)."""
    candidates = _join_estimates(node, rows, stats, cost_model)
    name = "hash"
    if optimizer.enabled:
        name = min(candidates, key=lambda key: candidates[key].total_seconds)
        loser = next(key for key in candidates if key != name)
        choices.append(
            f"join {node.join.table}: {name} "
            f"({candidates[name].total_seconds:.4f}s vs {loser} "
            f"{candidates[loser].total_seconds:.4f}s, "
            f"est {candidates[name].rows:,.0f} rows out)"
        )
    op_type = HashJoinOp if name == "hash" else NestedLoopJoinOp
    return op_type(node.join, node.right_columns, node.right_predicates)


def _join_estimates(
    join, rows: float, stats: PlanStats, cost_model: CostModel
) -> Dict[str, CostEstimate]:
    """Both algorithms' estimates for ``join`` (a :class:`LogicalJoin` or
    its operator) over ``rows`` estimated left rows.

    The estimates keep the catalog's *relative* cardinalities (the right
    side scales by ``simulate_rows / main.rows``) rather than the
    execution model's uniform inflation of every relation to
    ``simulate_rows``: inflation multiplies both algorithms' linear terms
    alike but squares the nested-loop term, so estimating on inflated
    counts would never classify any build side as small.  Only the inputs
    differ from execution's: both price the join with the same
    :class:`CostModel` methods.
    """
    clause = join.join
    right = stats.table(clause.table)
    if right is None:
        raise PlanningError(f"no statistics for joined table {clause.table!r}")
    scale = stats.simulate_rows / max(stats.main.rows, 1)
    survival = predicate_selectivity(join.right_predicates, right)
    right_rows = right.rows * scale * survival
    right_bytes = right.bytes_for(join.right_columns) * right_rows
    # |L| * |R| / max(ndv(L.key), ndv(R.key)).  NDVs are catalog-scale, so
    # inflate them by the same simulate factor as the row counts: a key
    # column's distinct count grows with the relation it indexes.
    left_ndv = stats.column_ndv(clause.left_column)
    right_ndv = right.ndv(clause.right_column)
    out_rows = join_output_rows(
        rows,
        right_rows,
        left_ndv * scale if left_ndv else 0.0,
        right_ndv * scale if right_ndv else 0.0,
    )
    return cost_model.join_estimates(rows, right_rows, right_bytes, out_rows)


def _estimate_groups(group_by: List[str], rows: float, stats: PlanStats) -> float:
    """Distinct-group estimate: product of the group keys' NDVs.

    Capped by the input rows (a grouping cannot produce more groups than
    rows) and falling back to the square-root rule of thumb when any key
    has no statistics (computed columns, missing catalog entries).
    """
    fallback = max(1.0, math.sqrt(max(rows, 1.0)))
    product = 1.0
    for name in group_by:
        ndv = stats.column_ndv(name)
        if ndv is None:
            return fallback
        product *= max(ndv, 1)
    return max(1.0, min(product, max(rows, 1.0)))


def _column_bytes(stats: PlanStats, name: str, computed: Dict[str, float]) -> float:
    """Bytes/row of a column: a computed one's result width, else the
    catalog's wire width (0 for a name neither knows)."""
    if name in computed:
        return computed[name]
    for table in [stats.main, *stats.joined.values()]:
        if name in table.column_bytes:
            return table.column_bytes[name]
    return 0.0


def _predicate_bytes(predicates, stats: PlanStats, computed: Dict[str, float]) -> float:
    """Bytes/row a filter pass reads: each distinct column once."""
    columns = {p.column for p in predicates}
    columns.update(p.column_rhs for p in predicates if p.column_rhs)
    return sum(_column_bytes(stats, name, computed) for name in columns)
