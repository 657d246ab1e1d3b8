"""EXPLAIN support: inspect plans, kernels and cost estimates without
executing a query's data plane at full size.

``Database.explain(sql)`` plans the query, which JIT-compiles its
expressions, and returns an :class:`ExplainResult` carrying the operator
chain, every planned kernel (with its CUDA-like source and per-kernel
timing estimate), the plan analyzer's findings, and the end-to-end
simulated cost estimate.  Every number is priced by the
:class:`~repro.engine.plan.cost.CostModel` methods execution charges
through, so the estimate differs from an execution's
``report.total_seconds`` only where the planner's estimated rows do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis import AnalysisReport
from repro.analysis import plan as plan_analysis
from repro.engine.plan.cost import CostModel, OptimizerConfig, PlanStats
from repro.engine.plan.physical import (
    AggregateOp,
    DropOp,
    ExecutionReport,
    FilterOp,
    GroupAggregateOp,
    HashJoinOp,
    LimitOp,
    NestedLoopJoinOp,
    PhysicalOp,
    ProjectOp,
    PlannedKernel,
    ScanOp,
    SortOp,
)
from repro.engine.plan.planner import estimate_plan
from repro.gpusim import profiler as gpu_profiler
from repro.gpusim.streaming import StreamingConfig, StreamTiming
from repro.storage.relation import Relation


@dataclass
class KernelPlan:
    """One JIT-compiled kernel in the plan."""

    name: str
    expression: str
    optimised_expression: str
    result_spec: str
    alignments_before: int
    alignments_after: int
    estimated_ms: float
    source: str
    #: Chunked-streaming estimate (set when the plan streams): chunk count
    #: and the serial-vs-pipelined split for this kernel.
    timing: Optional[StreamTiming] = None
    #: Measured data-plane wall clock (set by ``explain(...,
    #: measure_data_plane=True)``): the real numpy cost of one run over the
    #: stored rows, as opposed to ``estimated_ms`` which is simulated.
    data_plane_ms: Optional[float] = None
    data_plane_rows_per_s: Optional[float] = None
    #: Static-analyzer findings for this kernel (an
    #: ``repro.analysis.AnalysisReport``), attached by the JIT pipeline.
    diagnostics: Optional["AnalysisReport"] = None


@dataclass
class ExplainResult:
    """A query's plan, kernels and cost estimate."""

    sql: str
    operators: List[str]
    kernels: List[KernelPlan]
    estimated_compile_ms: float
    estimated_total_ms: float
    simulate_rows: int
    #: Rewrite-rule trace (one formatted line per firing) and the
    #: cost-based physical choices the planner made.
    rewrites: List[str] = field(default_factory=list)
    choices: List[str] = field(default_factory=list)
    #: Plan-level static analyzer findings (``PLAN*``/``PREC*``/``RULE*``)
    #: over the explained plan.
    plan_diagnostics: Optional["AnalysisReport"] = None

    def format(self, with_source: bool = False) -> str:
        lines = [f"EXPLAIN (simulated at {self.simulate_rows:,} tuples)"]
        for index, operator in enumerate(self.operators):
            lines.append(f"  {'-> ' * min(index, 1)}{operator}")
        if self.rewrites:
            lines.append("  rewrites:")
            for rewrite in self.rewrites:
                lines.append(f"    {rewrite}")
        if self.choices:
            lines.append("  choices:")
            for choice in self.choices:
                lines.append(f"    {choice}")
        if self.plan_diagnostics is not None and self.plan_diagnostics.diagnostics:
            lines.append("  plan diagnostics:")
            for diagnostic in self.plan_diagnostics.diagnostics:
                lines.append(f"    {diagnostic.format()}")
        if self.kernels:
            lines.append("  kernels:")
            for kernel in self.kernels:
                lines.append(
                    f"    {kernel.name}: {kernel.expression} -> "
                    f"{kernel.optimised_expression} [{kernel.result_spec}] "
                    f"~{kernel.estimated_ms:.2f} ms "
                    f"(alignments {kernel.alignments_before}->{kernel.alignments_after})"
                )
                if kernel.timing is not None:
                    lines.append(
                        f"      streamed: {kernel.timing.chunks} chunks, "
                        f"serial {kernel.timing.serial_seconds * 1e3:.2f} ms -> "
                        f"pipelined {kernel.timing.pipelined_seconds * 1e3:.2f} ms "
                        f"({kernel.timing.overlap_speedup:.2f}x overlap)"
                    )
                if kernel.data_plane_ms is not None:
                    lines.append(
                        f"      data plane (measured): {kernel.data_plane_ms:.2f} ms "
                        f"({kernel.data_plane_rows_per_s:,.0f} rows/s)"
                    )
                if kernel.diagnostics is not None and kernel.diagnostics.diagnostics:
                    for diagnostic in kernel.diagnostics.diagnostics:
                        lines.append(f"      {diagnostic.format()}")
                if with_source:
                    lines.append("      " + kernel.source.replace("\n", "\n      "))
        lines.append(f"  estimated compile: {self.estimated_compile_ms:.0f} ms")
        lines.append(f"  estimated total:   {self.estimated_total_ms:.0f} ms")
        return "\n".join(lines)


def explain_query(
    chain: List[PhysicalOp],
    relation: Relation,
    stats: PlanStats,
    cost_model: CostModel,
    optimizer: OptimizerConfig,
    streaming: StreamingConfig,
    joined=None,
    measure_data_plane: bool = False,
) -> ExplainResult:
    """Build an ExplainResult from a planned query.

    ``stats`` are the statistics the query was planned with.  Each
    operator's estimate comes from
    :func:`~repro.engine.plan.planner.estimate_plan` over them, and the
    estimated total is what execution would charge at those estimated
    rows, priced by the :class:`CostModel` methods execution calls: the
    operator estimates, each kernel launch at its operator's estimated
    input rows, the compile of every kernel the plan did not find cached,
    and the pipeline overhead.  With streaming, the scan's
    transfers are deferred as execution defers them: a column's first
    kernel overlaps it, a bare aggregated column and whatever no kernel
    read ship serially.  The kernel table comes from the kernels the
    planner recorded on the operators; nothing is compiled here.  With
    ``measure_data_plane`` each kernel is additionally run once over the
    relation's real stored columns and its wall-clock
    (``KernelPlan.data_plane_ms``) recorded -- the measured counterpart of
    the simulated ``estimated_ms``.  The plan analyzer runs over ``chain``
    with ``stats``, its findings labelled with the relation's name.
    """
    cost = cost_model
    operators: List[str] = []
    kernels: List[KernelPlan] = []
    total = 0.0
    compile_seconds = 0.0
    compiled_count = 0
    #: Deferred scan transfers, as ``QueryContext.pending_transfer`` holds them.
    pending: Dict[str, float] = {}

    def add_kernel(text: str, planned: PlannedKernel, rows: float) -> float:
        nonlocal compile_seconds, compiled_count
        compiled, cached = planned
        kernel = compiled.kernel
        if not cached:
            compile_seconds += cost.compile(kernel, first=compiled_count == 0)
            compiled_count += 1
        if streaming.enabled:
            transfer_bytes = 0.0
            for column in kernel.input_columns:
                transfer_bytes += pending.pop(column, 0.0)
            timing = cost.stream(kernel, rows, streaming, transfer_bytes, optimizer.enabled)
        else:
            timing = cost.launch(kernel, rows)
        plan = KernelPlan(
            name=kernel.name,
            expression=text,
            optimised_expression=compiled.tree.to_sql(),
            result_spec=str(kernel.result_spec),
            alignments_before=compiled.alignments_before,
            alignments_after=compiled.alignments_after,
            estimated_ms=timing.pipelined_seconds * 1e3,
            source=kernel.source,
            timing=timing if streaming.enabled else None,
            diagnostics=kernel.analysis,
        )
        if measure_data_plane:
            inputs = {}
            for column in kernel.input_columns:
                source = relation
                for joined_relation in (joined or {}).values():
                    if column in joined_relation.column_names:
                        source = joined_relation
                        break
                inputs[column] = source.column(column).data
            lengths = {data.shape[0] for data in inputs.values()}
            if len(lengths) <= 1:  # join-mixed inputs can't run standalone
                measured = gpu_profiler.measure_data_plane(
                    kernel,
                    inputs,
                    lengths.pop() if lengths else relation.rows,
                    device=cost.device,
                )
                plan.data_plane_ms = measured.seconds * 1e3
                plan.data_plane_rows_per_s = measured.rows_per_second
        kernels.append(plan)
        return timing.pipelined_seconds

    simulate_rows = stats.simulate_rows
    rows = float(simulate_rows)  # estimated rows entering each operator
    for op, estimate in zip(chain, estimate_plan(chain, stats, cost)):
        line: Optional[str] = None
        seconds = estimate.total_seconds
        if isinstance(op, ScanOp):
            line = f"Scan {relation.name} [{', '.join(op.columns)}]"
            if streaming.enabled:
                # The scan only reads; its columns ship with their kernels.
                scale = simulate_rows / max(relation.rows, 1)
                wire = op.wire_bytes(relation, ExecutionReport())
                pending = {name: wire[name] * scale for name in op.columns}
                seconds = cost.disk_scan(int(sum(wire.values()) * scale))
        elif isinstance(op, FilterOp):
            if op.always_false:
                line = "Filter [FALSE]"
            else:
                predicates = " AND ".join(str(p) for p in op.predicates)
                line = f"Filter [{predicates}]"
        elif isinstance(op, ProjectOp):
            line = "Project (JIT) [" + ", ".join(str(i.expression) for i in op.items) + "]"
            if op.carry:
                line += f" carry [{', '.join(op.carry)}]"
            for item, planned in zip(op.items, op.kernels):
                if planned is not None:
                    seconds += add_kernel(item.text, planned, rows)
        elif isinstance(op, (AggregateOp, GroupAggregateOp)):
            line = "[" + ", ".join(str(i.expression) for i in op.items) + "]"
            if isinstance(op, GroupAggregateOp):
                line = f"GroupAggregate keys=[{', '.join(op.group_by)}] {line}"
            else:
                line = f"Aggregate {line}"
            for item, planned in zip(op.items, op.kernels):
                if planned is not None:
                    seconds += add_kernel(item.text, planned, rows)
                elif item.expression.function != "COUNT":
                    # A bare column feeds the reduction without a kernel.
                    seconds += cost.transfer(pending.pop(item.tree.name, 0.0))
        elif isinstance(op, SortOp):
            line = "Sort [" + ", ".join(
                f"{k.column} {'ASC' if k.ascending else 'DESC'}" for k in op.keys
            ) + "]"
        elif isinstance(op, (HashJoinOp, NestedLoopJoinOp)):
            algorithm = "HashJoin" if isinstance(op, HashJoinOp) else "NestedLoopJoin"
            line = (
                f"{algorithm} {op.join.table} "
                f"[{op.join.left_column} = {op.join.right_column}]"
            )
            if op.right_predicates:
                built = " AND ".join(str(p) for p in op.right_predicates)
                line += f" build-filter [{built}]"
        elif isinstance(op, DropOp):
            line = f"Drop [{', '.join(op.columns)}]"
        elif isinstance(op, LimitOp):
            line = f"Limit [{op.count}]"
        if line is not None:
            operators.append(f"{line} {estimate.format()}")
        total += seconds
        rows = estimate.rows
    # What no kernel read ships serially at the end of the plan.
    total += cost.transfer(sum(pending.values()))
    total += compile_seconds + cost.pipeline(len(chain), simulate_rows)
    return ExplainResult(
        sql="",
        operators=operators,
        kernels=kernels,
        estimated_compile_ms=compile_seconds * 1e3,
        estimated_total_ms=total * 1e3,
        simulate_rows=simulate_rows,
        rewrites=[event.format() for event in getattr(chain, "events", [])],
        choices=list(getattr(chain, "choices", [])),
        plan_diagnostics=plan_analysis.analyze_plan(
            chain, stats=stats, label=relation.name
        ),
    )
