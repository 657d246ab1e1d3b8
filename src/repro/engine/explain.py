"""EXPLAIN support: inspect plans, kernels and cost estimates without
executing a query's data plane at full size.

``Database.explain(sql)`` plans the query, which JIT-compiles its
expressions, and returns an :class:`ExplainResult` carrying the operator
chain, every planned kernel (with its CUDA-like source and per-kernel
timing estimate), and the end-to-end simulated cost estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis import AnalysisReport
from repro.core.jit.ir import KernelIR
from repro.engine.plan.cost import CostModel, OptimizerConfig, stream_chunk_rows
from repro.engine.plan.physical import (
    AggregateOp,
    DropOp,
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
from repro.engine.sql.ast_nodes import Query
from repro.gpusim import profiler as gpu_profiler
from repro.gpusim import timing as gpu_timing
from repro.gpusim.device import GpuDevice
from repro.gpusim.streaming import StreamingConfig, StreamTiming, stream_timing
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
    #: Plan-level static analyzer findings (``PLAN*``/``PREC*``/``RULE*``),
    #: attached by the planner.
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
    query: Query,
    chain: List[PhysicalOp],
    relation: Relation,
    simulate_rows: int,
    device: GpuDevice,
    joined=None,
    streaming: Optional[StreamingConfig] = None,
    measure_data_plane: bool = False,
    cost_model: Optional[CostModel] = None,
    optimizer: Optional[OptimizerConfig] = None,
) -> ExplainResult:
    """Build an ExplainResult from a planned query.

    The kernel table and the compile estimate come from the kernels the
    planner recorded on the operators; nothing is compiled here.  With
    ``measure_data_plane`` each kernel is additionally run once over the
    relation's real stored columns and its wall-clock
    (``KernelPlan.data_plane_ms``) recorded -- the measured counterpart of
    the simulated ``estimated_ms``.
    """
    operators: List[str] = []
    kernels: List[KernelPlan] = []
    compiled_irs: List[KernelIR] = []
    # Mirrors the executor's residency tracking: only a column's first
    # kernel use pays (and overlaps) its host-to-device transfer.
    resident: set = set()

    def add_kernel(text: str, planned: Optional[PlannedKernel]) -> None:
        if planned is None:
            return  # bare columns and COUNT need no kernel
        compiled = planned[0]
        compiled_irs.append(compiled.kernel)
        estimate = gpu_timing.kernel_time(compiled.kernel, simulate_rows, device)
        plan = KernelPlan(
            name=compiled.kernel.name,
            expression=text,
            optimised_expression=compiled.tree.to_sql(),
            result_spec=str(compiled.kernel.result_spec),
            alignments_before=compiled.alignments_before,
            alignments_after=compiled.alignments_after,
            estimated_ms=estimate.seconds * 1e3,
            source=compiled.kernel.source,
            diagnostics=compiled.kernel.analysis,
        )
        if streaming is not None and streaming.enabled:
            fresh = [
                column
                for column in compiled.kernel.input_columns
                if column not in resident
            ]
            resident.update(compiled.kernel.input_columns)
            transfer_bytes = simulate_rows * sum(
                compiled.kernel.input_columns[column].compact_bytes for column in fresh
            )
            chunk_rows = stream_chunk_rows(
                compiled.kernel,
                simulate_rows,
                streaming,
                transfer_bytes,
                device,
                cost_model,
                optimizer,
            )
            plan.timing = stream_timing(
                compiled.kernel,
                simulate_rows,
                chunk_rows,
                device,
                transfer_bytes=transfer_bytes,
            )
        if measure_data_plane:
            inputs = {}
            for column in compiled.kernel.input_columns:
                source = relation
                for joined_relation in (joined or {}).values():
                    if column in joined_relation.column_names:
                        source = joined_relation
                        break
                inputs[column] = source.column(column).data
            lengths = {data.shape[0] for data in inputs.values()}
            if len(lengths) <= 1:  # join-mixed inputs can't run standalone
                measured = gpu_profiler.measure_data_plane(
                    compiled.kernel,
                    inputs,
                    lengths.pop() if lengths else relation.rows,
                    device=device,
                )
                plan.data_plane_ms = measured.seconds * 1e3
                plan.data_plane_rows_per_s = measured.rows_per_second
        kernels.append(plan)

    for op in chain:
        line: Optional[str] = None
        if isinstance(op, ScanOp):
            line = f"Scan {relation.name} [{', '.join(op.columns)}]"
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
                add_kernel(item.text, planned)
        elif isinstance(op, (AggregateOp, GroupAggregateOp)):
            line = "[" + ", ".join(str(i.expression) for i in op.items) + "]"
            if isinstance(op, GroupAggregateOp):
                line = f"GroupAggregate keys=[{', '.join(op.group_by)}] {line}"
            else:
                line = f"Aggregate {line}"
            for item, planned in zip(op.items, op.kernels):
                add_kernel(item.text, planned)
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
            if op.estimated is not None:
                line += f" {op.estimated.format()}"
            operators.append(line)

    # Reuse the compile-time model on the actual kernel set.
    compile_seconds = gpu_timing.compile_time(compiled_irs)

    # Streamed kernels are estimated at their pipelined time (which folds
    # in the overlapped H2D transfer); serial kernels at their launch time.
    total_ms = compile_seconds * 1e3 + sum(
        k.timing.pipelined_seconds * 1e3 if k.timing is not None else k.estimated_ms
        for k in kernels
    )
    return ExplainResult(
        sql="",
        operators=operators,
        kernels=kernels,
        estimated_compile_ms=compile_seconds * 1e3,
        estimated_total_ms=total_ms,
        simulate_rows=simulate_rows,
        rewrites=[event.format() for event in getattr(chain, "events", [])],
        choices=list(getattr(chain, "choices", [])),
        plan_diagnostics=getattr(chain, "analysis", None),
    )
