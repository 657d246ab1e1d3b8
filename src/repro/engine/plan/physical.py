"""Physical operators: executable, costed plan nodes.

Each operator both *computes* (bit-exactly, over the real rows registered
with the engine) and *charges* the simulated clock (scaled to the engine's
``simulate_rows``, since every model is linear in N).  Every charge is a
:class:`~repro.engine.plan.cost.CostModel` method called with the actual
bytes and rows -- the same method the planner calls with estimates -- and
a kernel launch is charged from its ``gpusim`` entry point.  The executor
threads a :class:`Batch` through the chain.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.decimal import inference
from repro.core.decimal import vectorized as _vz
from repro.core.decimal.context import DecimalSpec
from repro.core.decimal.value import DecimalValue
from repro.core.decimal.vectorized import DecimalVector
from repro.core.jit.expr_ast import ColumnRef
from repro.core.jit.pipeline import CompiledExpression
from repro.core.multithread import aggregation as mt_aggregation
from repro.engine.plan.cost import CostModel, OptimizerConfig
from repro.engine.sql.ast_nodes import AggregateCall, Comparison, OrderKey, SelectItem
from repro.errors import ExecutionError, MultithreadError, PlanningError, StorageError
from repro.gpusim import executor as gpu_executor
from repro.gpusim.residency import DeviceResidency
from repro.gpusim.streaming import StreamingConfig, StreamTiming, execute_streamed
from repro.storage.column import Column
from repro.storage.relation import Relation
from repro.storage.schema import (
    CharType,
    DateType,
    DecimalType,
    DoubleType,
    IntType,
    literal_operand,
)


@dataclass
class KernelExecution:
    """Per-kernel launch record: the launch's charge as a chunked pipeline.

    ``timing`` is what the report was charged: the pipelined
    :func:`~repro.gpusim.streaming.stream_timing` on the streamed path, one
    chunk with no transfer stage on the serial path (where serial and
    pipelined seconds coincide).  ``timing.overlap_speedup`` is the
    per-kernel win from transfer/compute overlap.
    """

    name: str
    expression: str
    streamed: bool
    timing: StreamTiming
    #: Measured wall-clock of the kernel's *data plane* (the numpy limb
    #: arithmetic actually run in this process), as opposed to the simulated
    #: GPU seconds above which come from instruction counts.
    data_plane_seconds: float = 0.0
    #: SM occupancy fraction of this launch (from the register-pressure
    #: model).  The device scheduler uses it as the kernel's SM demand:
    #: launches from concurrent queries are co-resident while their
    #: occupancies sum to <= 1.
    occupancy: float = 1.0


@dataclass
class ExecutionReport:
    """Simulated time breakdown of one query."""

    scan_seconds: float = 0.0
    pcie_seconds: float = 0.0
    #: Simulated bytes behind the scan/PCIe charges above -- the volume the
    #: rewrite rules (build-side pushdown, projection pruning) reduce.
    scan_bytes: float = 0.0
    pcie_bytes: float = 0.0
    compile_seconds: float = 0.0
    kernel_seconds: float = 0.0
    filter_seconds: float = 0.0
    aggregate_seconds: float = 0.0
    sort_seconds: float = 0.0
    #: Operator pipeline overhead: intermediate materialisation, operator
    #: setup, result collection -- the host-side engine cost around the
    #: kernels (RateupDB heritage; calibrated on Figure 14(b)).
    pipeline_seconds: float = 0.0
    kernels_compiled: int = 0
    kernels_cached: int = 0
    simulated_rows: int = 0
    #: Zone-map chunk pruning on the scanned codec columns: chunks whose
    #: zone map proved the pushed-down filter unsatisfiable (never read or
    #: shipped) vs total chunks scanned.
    zone_chunks_skipped: int = 0
    zone_chunks_total: int = 0
    #: Measured wall-clock spent in the data plane (register expansion,
    #: numpy limb kernels, oracle conversions for aggregation).  *Not* part
    #: of :attr:`total_seconds` -- the simulated times come from the timing
    #: model; this is the real cost of producing the bit-exact results.
    data_plane_seconds: float = 0.0
    #: One record per JIT-kernel launch, in execution order, each holding
    #: the :class:`StreamTiming` it was charged.
    kernel_executions: List[KernelExecution] = field(default_factory=list)

    @property
    def streamed_kernels(self) -> List[KernelExecution]:
        return [entry for entry in self.kernel_executions if entry.streamed]

    @property
    def overlap_speedup(self) -> float:
        """Aggregate serial/pipelined ratio across the streamed kernels."""
        streamed = [entry.timing for entry in self.streamed_kernels]
        pipelined = sum(timing.pipelined_seconds for timing in streamed)
        if pipelined == 0:
            return 1.0
        return sum(timing.serial_seconds for timing in streamed) / pipelined

    @property
    def total_seconds(self) -> float:
        return (
            self.scan_seconds
            + self.pcie_seconds
            + self.compile_seconds
            + self.kernel_seconds
            + self.filter_seconds
            + self.aggregate_seconds
            + self.sort_seconds
            + self.pipeline_seconds
        )


@dataclass
class Batch:
    """Columns flowing between operators, plus the simulated row count."""

    columns: Dict[str, Column]
    rows: int
    simulated_rows: float

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise ExecutionError(f"column {name!r} not in batch") from None


@dataclass
class QueryContext:
    """Everything operators need: the cost model, caches, options."""

    relation: Relation
    simulate_rows: int
    #: Relations brought in by JOIN clauses, keyed by table name.
    joined: Dict[str, Relation] = field(default_factory=dict)
    #: Prices every charge (device, host, whether the disk scan counts).
    cost_model: CostModel = field(default_factory=CostModel)
    streaming: StreamingConfig = field(default_factory=StreamingConfig)
    #: Simulated bytes of scanned columns not yet shipped to the device.
    #: With streaming enabled, ScanOp defers its PCIe charge here; the
    #: first kernel consuming a column pipelines its transfer against
    #: compute, and :func:`repro.engine.executor.run_plan` flushes whatever
    #: no kernel consumed as a plain serial transfer.
    pending_transfer: Dict[str, float] = field(default_factory=dict)
    #: Whether the optimizer runs for this query (it picks stream chunk
    #: sizes at launch).
    optimizer: "OptimizerConfig" = field(default_factory=lambda: OptimizerConfig.off())
    #: Cross-query device residency of columns (shared by the serving
    #: layer's sessions).  ``None`` keeps the single-query behaviour:
    #: every scan ships its columns over PCIe.
    residency: Optional["DeviceResidency"] = None
    #: Cooperative cancellation flag, polled between operators by
    #: :func:`repro.engine.executor.run_plan`.  Returning True raises
    #: :class:`repro.errors.QueryCancelledError` at the next operator
    #: boundary -- never mid-kernel, so shared caches stay consistent.
    cancel_check: Optional[Callable[[], bool]] = None
    report: ExecutionReport = field(default_factory=ExecutionReport)


OutputValue = Union[DecimalValue, int, float, str]


class PhysicalOp:
    """Base class: transforms a batch and charges the report."""

    def run(self, batch: Optional[Batch], context: QueryContext) -> Batch:
        raise NotImplementedError


#: A kernel the planner compiled for one operator item: the compiled
#: expression, and whether the session cache already held it when the
#: query was planned (which decides the compile charge).
PlannedKernel = Tuple[CompiledExpression, bool]


class _KernelOp(PhysicalOp):
    """An operator whose items run the JIT kernels the planner compiled.

    ``kernels[i]`` is item ``i``'s :data:`PlannedKernel`, or None where no
    kernel runs (a bare column, or COUNT); ``schema`` maps the input
    batch's DECIMAL columns to the specs the planner compiled against.
    An operator built without the planner has no kernels, so only its
    bare columns evaluate.
    """

    def __init__(self, items: List[SelectItem]):
        self.items = items
        self.kernels: List[Optional[PlannedKernel]] = [None] * len(items)
        self.schema: Dict[str, DecimalSpec] = {}


class ScanOp(PhysicalOp):
    """Read the needed columns from storage, then ship them over PCIe.

    Columns with a storage codec are charged at their *encoded* wire size,
    and pushed-down literal predicates (attached by the planner from an
    adjacent filter) prune whole chunks through the zone-map index before
    any byte is read or shipped.  Pruning affects only the simulated byte
    accounting -- the batch always carries the full rows, and the filter
    operator computes the exact mask, so results stay bit-exact.
    """

    def __init__(
        self, columns: List[str], predicates: Optional[List[Comparison]] = None
    ):
        self.columns = columns
        #: Literal conjuncts from the immediately-following filter; used
        #: only for zone-map chunk pruning, never for row elimination.
        self.predicates = list(predicates or [])

    def run(self, batch: Optional[Batch], context: QueryContext) -> Batch:
        relation = context.relation
        cost = context.cost_model
        scale = context.simulate_rows / max(relation.rows, 1)
        wire = self.wire_bytes(relation, context.report)
        simulated_bytes = int(sum(wire.values()) * scale)
        context.report.scan_seconds += cost.disk_scan(simulated_bytes)
        if cost.include_scan:
            context.report.scan_bytes += simulated_bytes
        ship = self.columns
        if context.residency is not None:
            # Shared device: columns another query already shipped are
            # resident (keyed by version, so appends re-ship), and this
            # scan pays PCIe only for the cold ones.
            ship = [
                name
                for name in self.columns
                if context.residency.admit(
                    (relation.name, name, relation.column(name).version),
                    wire[name] * scale,
                )
            ]
        if context.streaming.enabled:
            # Defer the H2D copy: the first kernel touching each column
            # streams its transfer chunk-wise, overlapped with compute.
            for name in ship:
                context.pending_transfer[name] = (
                    context.pending_transfer.get(name, 0.0) + wire[name] * scale
                )
        else:
            ship_bytes = int(sum(wire[name] for name in ship) * scale) if ship else 0
            context.report.pcie_seconds += cost.transfer(ship_bytes)
            context.report.pcie_bytes += ship_bytes
        columns = {name: relation.column(name) for name in self.columns}
        context.report.simulated_rows = context.simulate_rows
        return Batch(columns=columns, rows=relation.rows, simulated_rows=float(context.simulate_rows))

    def wire_bytes(self, relation: Relation, report: ExecutionReport) -> Dict[str, float]:
        """Per-column bytes this scan reads and ships, before scaling.

        Codec columns count their encoded wire size minus the chunks a
        zone map skips, other columns their stored bytes scaled by the
        surviving-row fraction.  ``report`` counts the zone chunks scanned
        and skipped.  EXPLAIN prices its deferred transfers from these
        bytes too, so they match execution's.
        """
        skip = _zone_skip_mask(relation, self.predicates) if self.predicates else None
        kept_fraction = 1.0
        if skip is not None:
            kept_fraction = float(np.count_nonzero(~skip)) / max(relation.rows, 1)
        wire: Dict[str, float] = {}
        for name in self.columns:
            column = relation.column(name)
            if column.codec is not None and isinstance(column.column_type, DecimalType):
                encoding = column.encoding()
                report.zone_chunks_total += len(encoding.chunks)
                if skip is None:
                    wire[name] = float(encoding.wire_bytes)
                else:
                    kept = 0
                    for chunk in encoding.chunks:
                        if skip[chunk.zone.row_start : chunk.zone.row_stop].all():
                            report.zone_chunks_skipped += 1
                        else:
                            kept += chunk.wire_bytes
                    wire[name] = float(kept)
            else:
                wire[name] = column.bytes_stored * kept_fraction
        return wire


class FilterOp(PhysicalOp):
    """Apply WHERE conjuncts; selectivity scales the simulated row count."""

    def __init__(self, predicates: List[Comparison], always_false: bool = False):
        self.predicates = predicates
        #: Plan-time proof that the conjuncts are unsatisfiable (set by the
        #: predicate-simplify rule): no kernel runs, the batch just empties.
        self.always_false = always_false

    def run(self, batch: Optional[Batch], context: QueryContext) -> Batch:
        assert batch is not None
        if self.always_false:
            empty = np.empty(0, dtype=np.int64)
            return Batch(
                columns={name: column.take(empty) for name, column in batch.columns.items()},
                rows=0,
                simulated_rows=0.0,
            )
        mask = _conjunction_mask(self.predicates, batch.column, batch.rows)
        indices = np.nonzero(mask)[0]
        selectivity = len(indices) / max(batch.rows, 1)
        # Filter kernel: one pass over each *distinct* predicate column --
        # a column named by several conjuncts is still read only once.
        predicate_columns = {p.column for p in self.predicates}
        predicate_columns.update(p.column_rhs for p in self.predicates if p.column_rhs)
        predicate_bytes = sum(
            batch.column(name).bytes_stored / max(batch.rows, 1)
            for name in predicate_columns
        )
        context.report.filter_seconds += context.cost_model.filter_pass(
            predicate_bytes, batch.simulated_rows
        )
        return Batch(
            columns={name: column.take(indices) for name, column in batch.columns.items()},
            rows=len(indices),
            simulated_rows=batch.simulated_rows * selectivity,
        )


class _JoinOp(PhysicalOp):
    """Shared right-side handling for the inner equi-join algorithms.

    The joined relation is scanned and shipped over PCIe like any other
    input.  Build-side predicates (sunk here by the filter-pushdown rule)
    are evaluated *during* that scan -- the evaluation rides the far
    slower disk read, so it charges no extra kernel time -- and only the
    surviving rows' ship columns cross PCIe.  Filtering the build side
    before the join is equivalent to joining then filtering for an inner
    join, and the output keeps the same left-major, right-scan order, so
    results stay bit-exact.
    """

    def __init__(
        self,
        join,
        right_columns: List[str],
        right_predicates: Optional[List[Comparison]] = None,
    ):
        self.join = join
        self.right_columns = right_columns
        self.right_predicates = list(right_predicates or [])
        #: ``(versions, keep, survival)`` of the last build-side evaluation,
        #: keyed by the versions of the columns the predicates read.
        self._right_mask: Optional[Tuple[Tuple[int, ...], np.ndarray, float]] = None

    def _right_keep(self, relation: Relation) -> Tuple[Optional[np.ndarray], float]:
        """``(keep, survival)``: the read-only mask of ``relation``'s rows
        the build-side predicates pass (None without predicates) and the
        fraction it keeps.

        The mask depends only on the versions of the columns the
        predicates read, so this plan node keeps the last one it computed
        and a repeated read (the plan cache hands it the same node)
        evaluates nothing.  One mask per node: the plan cache bounds the
        memory, and distinct literals add nothing to any column.  Reader
        threads may race a fill: each computes an equal mask, and one
        assignment publishes it.
        """
        if not self.right_predicates:
            return None, 1.0
        versions = tuple(
            relation.column(name).version
            for predicate in self.right_predicates
            for name in (predicate.column, predicate.column_rhs)
            if name is not None
        )
        hit = self._right_mask
        if hit is not None and hit[0] == versions:
            return hit[1], hit[2]
        keep = _conjunction_mask(self.right_predicates, relation.column, relation.rows)
        keep.setflags(write=False)
        survival = int(np.count_nonzero(keep)) / max(relation.rows, 1)
        self._right_mask = (versions, keep, survival)
        return keep, survival

    def _prepare_right(self, context: QueryContext):
        """Scan/filter/ship the right side; returns (relation, keep, sim_rows),
        ``keep`` the mask of right rows the build-side predicates pass."""
        try:
            right_relation = context.joined[self.join.table]
        except KeyError:
            raise ExecutionError(f"joined relation {self.join.table!r} missing") from None
        right_scale = context.simulate_rows / max(right_relation.rows, 1)
        keep, survival = self._right_keep(right_relation)

        # The scan reads ship + predicate columns; PCIe carries only the
        # ship columns of rows that survived the build-side predicates.
        scan_columns = list(self.right_columns)
        for predicate in self.right_predicates:
            for name in (predicate.column, predicate.column_rhs):
                if name is not None and name not in scan_columns:
                    scan_columns.append(name)
        scanned_bytes = int(right_relation.wire_bytes_for(scan_columns) * right_scale)
        ship_bytes = int(
            right_relation.wire_bytes_for(self.right_columns) * right_scale * survival
        )
        cost = context.cost_model
        context.report.scan_seconds += cost.disk_scan(scanned_bytes)
        if cost.include_scan:
            context.report.scan_bytes += scanned_bytes
        context.report.pcie_seconds += cost.transfer(ship_bytes)
        context.report.pcie_bytes += ship_bytes

        sim_right = right_relation.rows * right_scale * survival
        return right_relation, keep, sim_right

    def _join(
        self, batch: Batch, right_relation: Relation, keep: Optional[np.ndarray]
    ) -> Batch:
        """The matched rows, left-major with each row's matches in right-scan order.

        Both join algorithms produce this one result; they differ only in
        the simulated cost their ``run`` charges.
        """
        left_take, right_take = _join_indices(
            batch.column(self.join.left_column),
            right_relation.column(self.join.right_column),
            keep,
        )
        columns = {
            name: column.take(left_take) for name, column in batch.columns.items()
        }
        for name in self.right_columns:
            if name not in columns:  # left side wins on (unexpected) name collisions
                columns[name] = right_relation.column(name).take(right_take)
        return Batch(
            columns=columns,
            rows=len(left_take),
            simulated_rows=batch.simulated_rows * (len(left_take) / max(batch.rows, 1)),
        )


class HashJoinOp(_JoinOp):
    """Inner equi-join: hash-build on the joined table, probe the batch.

    The simulated cost covers the right-side scan/transfer, one build pass
    over the right side, and one probe pass over the left batch, both at
    hash-table (random access) bandwidth.
    """

    def run(self, batch: Optional[Batch], context: QueryContext) -> Batch:
        assert batch is not None
        right_relation, keep, sim_right = self._prepare_right(context)
        context.report.filter_seconds += context.cost_model.hash_join(
            batch.simulated_rows, sim_right
        )
        return self._join(batch, right_relation, keep)


class NestedLoopJoinOp(_JoinOp):
    """Inner equi-join by exhaustive comparison.

    The cost model picks this over the hash join only when the build side
    is tiny: it saves the build pass and a kernel launch at the price of
    O(left x right) streamed key comparisons.  Only that charge differs:
    the rows come from the same matcher as the hash join's, so the two
    algorithms are interchangeable bit-exactly.
    """

    def run(self, batch: Optional[Batch], context: QueryContext) -> Batch:
        assert batch is not None
        right_relation, keep, sim_right = self._prepare_right(context)
        context.report.filter_seconds += context.cost_model.nested_loop_join(
            batch.simulated_rows, sim_right
        )
        return self._join(batch, right_relation, keep)


class ProjectOp(_KernelOp):
    """Evaluate non-aggregate expressions through the JIT engine."""

    def __init__(self, items: List[SelectItem], carry: Optional[List[str]] = None):
        super().__init__(items)
        #: Columns retained alongside the select items (ORDER BY keys that
        #: are not select items; the sort-key-retention rule fills this).
        #: They stay device-resident for the sort, so they are excluded
        #: from the result-transfer charge.
        self.carry = list(carry or [])

    def run(self, batch: Optional[Batch], context: QueryContext) -> Batch:
        assert batch is not None
        out: Dict[str, Column] = {}
        for index, item in enumerate(self.items):
            tree = item.tree
            if isinstance(tree, ColumnRef) and tree.name in batch.columns:
                # Bare column projections (any type) pass straight through.
                out[item.name] = batch.columns[tree.name].renamed(item.name)
                continue
            vector = _evaluate_expression(item, batch, context, self.kernels[index])
            out[item.name] = Column.decimal_from_vector(item.name, vector)
        result_bytes = sum(
            column.bytes_stored / max(batch.rows, 1) for column in out.values()
        ) * batch.simulated_rows
        context.report.pcie_seconds += context.cost_model.transfer(result_bytes)
        context.report.pcie_bytes += result_bytes
        for name in self.carry:
            if name not in out:
                out[name] = batch.column(name)
        return Batch(columns=out, rows=batch.rows, simulated_rows=batch.simulated_rows)


#: The segment starts of an ungrouped aggregate: one segment, from row 0.
_ONE_SEGMENT = np.zeros(1, dtype=np.int64)


class AggregateOp(_KernelOp):
    """Ungrouped aggregation via the multi-threaded multi-pass reducer.

    The whole input is one segment of the segmented reduction the grouped
    operator uses, so value, result spec and pass plan are those of
    :func:`~repro.core.multithread.aggregation.aggregate` over every row.
    """

    def run(self, batch: Optional[Batch], context: QueryContext) -> Batch:
        assert batch is not None
        out: Dict[str, Column] = {}
        sim_n = max(int(round(batch.simulated_rows)), 1)
        for index, item in enumerate(self.items):
            call = item.expression
            assert isinstance(call, AggregateCall)
            if call.function == "COUNT":
                spec = inference.count_spec(sim_n)
                out[item.name] = Column.decimal_from_unscaled(item.name, [batch.rows], spec)
                continue
            vector = _evaluate_expression(item, batch, context, self.kernels[index])
            if vector.rows == 0:
                raise MultithreadError("cannot aggregate an empty column")
            started = time.perf_counter()
            run = mt_aggregation.aggregate_segments(
                vector, _ONE_SEGMENT, op=call.function.lower(), simulate_tuples=sim_n
            )
            context.report.data_plane_seconds += time.perf_counter() - started
            context.report.aggregate_seconds += context.cost_model.reduction(
                run.spec.words, sim_n
            )
            out[item.name] = Column.decimal_from_unscaled(item.name, run.values, run.spec)
        return Batch(columns=out, rows=1, simulated_rows=1.0)


class GroupAggregateOp(_KernelOp):
    """GROUP BY + aggregates.

    Tuples are grouped by sorting on the key columns (DECIMAL keys compare
    by value, section III-A) and groups come out in ascending key order;
    each aggregate then reduces all groups at once with the segmented
    multi-pass aggregation.  The simulated cost adds the key sort, a
    per-aggregate payload gather (every value moves into its group's
    segment), and each group's multi-pass reduction.
    """

    def __init__(self, group_by: List[str], items: List[SelectItem]):
        super().__init__(items)
        self.group_by = group_by

    def run(self, batch: Optional[Batch], context: QueryContext) -> Batch:
        assert batch is not None
        rows = batch.rows
        keys = [_key_codes(batch.column(name)) for name in self.group_by]
        order, starts = _group_rows([(codes, len(values)) for codes, values in keys], rows)
        first_rows = order[starts]

        cost = context.cost_model
        sim_n = max(int(round(batch.simulated_rows)), 1)
        key_bytes = sum(
            batch.column(name).bytes_stored / max(rows, 1) for name in self.group_by
        )
        context.report.sort_seconds += cost.key_sort(key_bytes, batch.simulated_rows)

        columns: Dict[str, Column] = {}
        for name, (codes, values) in zip(self.group_by, keys):
            group_keys = values[codes[first_rows]].tolist()
            columns[name] = _column_from_keys(name, group_keys, batch.column(name))

        groups = len(starts)
        charged = max(int(sim_n / max(groups, 1)), 1)
        charges: List[float] = []
        # Each aggregate is evaluated and charged on its own, in item
        # order, but each distinct input moves into group order once.
        readers: Dict[str, List[Tuple[int, str]]] = {}
        for index, item in enumerate(self.items):
            call = item.expression
            if isinstance(call, AggregateCall) and call.function != "COUNT":
                readers.setdefault(item.text, []).append((index, call.function.lower()))
        reduced: Dict[int, mt_aggregation.SegmentedRun] = {}
        for index, item in enumerate(self.items):
            call = item.expression
            assert isinstance(call, AggregateCall)
            if call.function == "COUNT":
                counts = np.diff(np.append(starts, rows)).tolist()
                columns[item.name] = Column.decimal_from_unscaled(
                    item.name, counts, inference.count_spec(sim_n)
                )
                continue
            vector = _evaluate_expression(item, batch, context, self.kernels[index])
            # Payload gather: every (4*Lw+1)-byte value moves into its
            # group segment before the blockwise reduction.
            context.report.aggregate_seconds += cost.payload_gather(
                4 * vector.spec.words + 1, batch.simulated_rows
            )
            started = time.perf_counter()
            if index not in reduced:
                # The input's first reader reduces it for every reader, so
                # the gathered rows are freed before the next item runs.
                ordered = vector.take(order)
                for reader, function in readers[item.text]:
                    reduced[reader] = mt_aggregation.aggregate_segments(
                        ordered, starts, op=function, simulate_tuples=charged
                    )
                del ordered
            run = reduced.pop(index)
            context.report.data_plane_seconds += time.perf_counter() - started
            charges.append(cost.reduction(run.spec.words, charged))
            columns[item.name] = Column.decimal_from_unscaled(item.name, run.values, run.spec)

        # Each group's reductions are charged in group-major order, one
        # float addition at a time, so the simulated total stays bit-equal
        # to reducing the groups one by one.
        for _group in range(groups):
            for seconds in charges:
                context.report.aggregate_seconds += seconds
        return Batch(columns=columns, rows=groups, simulated_rows=float(groups))


class LimitOp(PhysicalOp):
    """LIMIT n over the (already ordered) result batch."""

    def __init__(self, count: int):
        if count < 0:
            raise PlanningError(f"LIMIT must be non-negative, got {count}")
        self.count = count

    def run(self, batch: Optional[Batch], context: QueryContext) -> Batch:
        assert batch is not None
        keep = min(self.count, batch.rows)
        return Batch(
            columns={name: column.head(keep) for name, column in batch.columns.items()},
            rows=keep,
            simulated_rows=float(keep),
        )


class SortOp(PhysicalOp):
    """ORDER BY over the (small) result batch."""

    def __init__(self, keys: List[OrderKey]):
        self.keys = keys

    def run(self, batch: Optional[Batch], context: QueryContext) -> Batch:
        assert batch is not None
        order = np.arange(batch.rows)
        for key in reversed(self.keys):
            column = batch.column(key.column)
            values = _sort_values(column)
            data = np.asarray(values)[order]
            ranks = np.argsort(data, kind="stable")
            if not key.ascending:
                # Reversing the ascending permutation would also reverse the
                # relative order of equal keys, breaking the multi-key
                # stability this loop depends on.  Instead, invert the sort
                # key itself: densely rank the values (ties share a rank,
                # which also works for non-negatable dtypes like CHAR bytes)
                # and stable-sort on the negated ranks.
                ranked = np.empty(len(ranks), dtype=np.int64)
                if len(ranks):
                    ordered = data[ranks]
                    distinct = np.ones(len(ranks), dtype=bool)
                    distinct[1:] = ordered[1:] != ordered[:-1]
                    ranked[ranks] = np.cumsum(distinct) - 1
                ranks = np.argsort(-ranked, kind="stable")
            order = order[ranks]
        context.report.sort_seconds += context.cost_model.sort()
        return Batch(
            columns={name: column.take(order) for name, column in batch.columns.items()},
            rows=batch.rows,
            simulated_rows=batch.simulated_rows,
        )


class DropOp(PhysicalOp):
    """Remove carried helper columns once their consumer (the sort) ran."""

    def __init__(self, columns: List[str]):
        self.columns = columns

    def run(self, batch: Optional[Batch], context: QueryContext) -> Batch:
        dropped = set(self.columns)
        assert batch is not None
        return Batch(
            columns={
                name: column
                for name, column in batch.columns.items()
                if name not in dropped
            },
            rows=batch.rows,
            simulated_rows=batch.simulated_rows,
        )


# ------------------------------------------------------------------ helpers


def _evaluate_expression(
    item: SelectItem, batch: Batch, context: QueryContext, planned: Optional[PlannedKernel]
) -> DecimalVector:
    """Run one item's planned kernel over the batch.

    ``planned`` is None for a bare DECIMAL column, which needs no kernel
    at all: the aggregation operators (section III-E2) consume the compact
    column directly, so no JIT compilation is charged.  Otherwise the
    compile is charged here, from whether the kernel was already cached
    when the query was planned.
    """
    if planned is None:
        tree = item.tree
        column = batch.columns.get(tree.name) if isinstance(tree, ColumnRef) else None
        if column is None or not isinstance(column.column_type, DecimalType):
            raise ExecutionError(f"no kernel was planned for {item.text!r}")
        # No kernel to overlap with: a deferred transfer ships serially.
        _flush_pending_transfer(context, [tree.name])
        started = time.perf_counter()
        vector = column.decimal_vector()
        context.report.data_plane_seconds += time.perf_counter() - started
        return vector
    compiled, cached = planned
    kernel = compiled.kernel
    # The planner compiled against the catalog's types; a batch that
    # disagrees would decode the compact bytes at the wrong width.
    for name, spec in kernel.input_columns.items():
        column_type = batch.column(name).column_type
        if column_type != DecimalType(spec):
            raise ExecutionError(
                f"kernel {kernel.name}: column {name!r} is {column_type} in the "
                f"batch but was compiled as {spec}"
            )
    cost = context.cost_model
    if cached:
        context.report.kernels_cached += 1
    else:
        # The NVRTC startup base is charged once per query, on the first
        # kernel compiled.
        context.report.compile_seconds += cost.compile(
            kernel, first=context.report.kernels_compiled == 0
        )
        context.report.kernels_compiled += 1
    started = time.perf_counter()
    inputs = {name: batch.column(name).decimal_vector() for name in kernel.input_columns}
    context.report.data_plane_seconds += time.perf_counter() - started
    sim = max(int(round(batch.simulated_rows)), 1)
    streaming = context.streaming
    if streaming.enabled:
        # Only columns whose scan-time transfer is still pending (not yet
        # on the device) feed the overlapped H2D copy.
        transfer_bytes = 0.0
        for column in kernel.input_columns:
            transfer_bytes += context.pending_transfer.pop(column, 0.0)
        context.report.pcie_bytes += transfer_bytes
        chunk_rows = cost.chunk_rows(
            kernel, sim, streaming, transfer_bytes, context.optimizer.enabled
        )
        started = time.perf_counter()
        result, timing = execute_streamed(
            kernel,
            inputs,
            batch.rows,
            simulate_tuples=sim,
            chunk_rows=chunk_rows,
            device=cost.device,
            transfer_bytes=int(transfer_bytes),
        )
        elapsed = time.perf_counter() - started
        occupancy = cost.occupancy(kernel)
    else:
        started = time.perf_counter()
        run = gpu_executor.execute(
            kernel, inputs, batch.rows, device=cost.device, simulate_tuples=sim
        )
        elapsed = time.perf_counter() - started
        result, timing = run.result, StreamTiming(1, 0.0, run.timing.seconds)
        occupancy = run.timing.occupancy.occupancy
    # The pipelined total splits into pure compute (``kernel_seconds``) and
    # the exposed, non-overlapped transfer remainder (``pcie_seconds``); a
    # serial launch has no transfer stage, so the remainder is zero.
    context.report.kernel_seconds += timing.kernel_seconds
    context.report.pcie_seconds += max(timing.pipelined_seconds - timing.kernel_seconds, 0.0)
    context.report.data_plane_seconds += elapsed
    context.report.kernel_executions.append(
        KernelExecution(
            name=kernel.name,
            expression=kernel.expression_sql,
            streamed=streaming.enabled,
            timing=timing,
            data_plane_seconds=elapsed,
            occupancy=occupancy,
        )
    )
    return result


def _flush_pending_transfer(context: QueryContext, columns) -> None:
    """Serially charge deferred transfers for columns used outside a kernel."""
    pending = sum(context.pending_transfer.pop(name, 0.0) for name in columns)
    if pending:
        context.report.pcie_seconds += context.cost_model.transfer(pending)
        context.report.pcie_bytes += pending


def _zone_skip_mask(
    relation: Relation, predicates: List[Comparison]
) -> Optional[np.ndarray]:
    """Rows living in chunks some zone map proves empty, or None.

    Only literal conjuncts over codec-carrying DECIMAL columns contribute;
    a chunk is skippable when any conjunct's zone verdict is ``False``
    (no row in the chunk can satisfy it, hence none can satisfy the
    conjunction).
    """
    skip: Optional[np.ndarray] = None
    for predicate in predicates:
        if predicate.column_rhs is not None or predicate.column not in relation:
            continue
        column = relation.column(predicate.column)
        if column.codec is None or not isinstance(column.column_type, DecimalType):
            continue
        comparison = literal_operand(predicate.op, predicate.literal, column.column_type)
        for zone in column.encoding().zones:
            verdict = (
                comparison if isinstance(comparison, bool) else zone.evaluate(*comparison)
            )
            if verdict is False:
                if skip is None:
                    skip = np.zeros(relation.rows, dtype=bool)
                skip[zone.row_start : zone.row_stop] = True
    return skip


_COMPARE = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _compare(lhs, op: str, rhs):
    """``lhs <op> rhs``, elementwise."""
    try:
        compare = _COMPARE[op]
    except KeyError:
        raise ExecutionError(f"unsupported comparison {op!r}") from None
    return compare(lhs, rhs)


def _conjunction_mask(
    predicates: List[Comparison], column: Callable[[str], Column], rows: int
) -> np.ndarray:
    """Rows passing every conjunct; ``column`` looks a column up by name.

    The one evaluator of the filter and the join build side: column-vs-
    column conjuncts compare the two columns, literal conjuncts go through
    :func:`_evaluate_predicate`.
    """
    mask = np.ones(rows, dtype=bool)
    for predicate in predicates:
        if predicate.column_rhs is not None:
            mask &= _evaluate_column_predicate(
                column(predicate.column), predicate.op, column(predicate.column_rhs)
            )
        else:
            mask &= _evaluate_predicate(column(predicate.column), predicate)
    return mask


def _evaluate_predicate_encoded(
    column: Column, predicate: Comparison
) -> Optional[np.ndarray]:
    """Evaluate ``column <op> literal`` on encoded bytes.

    :func:`_evaluate_predicate` takes this path for values past int64,
    where it beats a limb compare.  Applies only when the column carries
    an order-preserving codec and the scan already materialised its
    encoding (never pay an encode just to filter).  Chunks whose zone map
    decides the predicate outright skip per-row work; mixed chunks compare
    encoded bytes against the encoded literal, which by the
    order-preserving property equals the numeric comparison -- so the
    mask is bit-identical to the lanes' and limbs'.  Returns None when the
    encoded path does not apply.
    """
    if not isinstance(column.column_type, DecimalType):
        return None
    codec = column.codec
    if codec is None or not codec.order_preserving:
        return None
    encoding = column.cached_encoding()
    if encoding is None:
        return None
    if predicate.op not in ("=", "<>", "<", "<=", ">", ">="):
        return None
    comparison = literal_operand(predicate.op, predicate.literal, column.column_type)
    if isinstance(comparison, bool):
        return np.full(column.rows, comparison)
    op, target = comparison
    try:
        literal = codec.encode_literal(target, column.column_type.spec)
    except StorageError:
        return None
    mask = np.zeros(column.rows, dtype=bool)
    for chunk in encoding.chunks:
        verdict = chunk.zone.evaluate(op, target)
        rows = slice(chunk.zone.row_start, chunk.zone.row_stop)
        if verdict is True:
            mask[rows] = True
        elif verdict is None:
            mask[rows] = _compare(codec.compare_chunk(chunk, literal), op, 0)
    return mask


def _evaluate_predicate(column: Column, predicate: Comparison) -> np.ndarray:
    """Evaluate ``column <op> literal`` to a boolean mask.

    A DECIMAL column compares its int64 lanes when they answer and the
    literal fits int64 (one numpy compare); otherwise its encoded bytes,
    where :func:`_evaluate_predicate_encoded` applies; otherwise its limbs.
    """
    comparison = literal_operand(predicate.op, predicate.literal, column.column_type)
    if isinstance(comparison, bool):
        return np.full(column.rows, comparison)
    op, rhs = comparison
    if isinstance(column.column_type, DecimalType):
        spec = column.column_type.spec
        vector = column.decimal_vector()
        signed = vector.to_int64()
        if signed is not None and _INT64_MIN <= rhs <= _INT64_MAX:
            lhs = signed
        else:
            encoded = _evaluate_predicate_encoded(column, predicate)
            if encoded is not None:
                return encoded
            # Wide values: a limb-wise compare against the broadcast
            # literal, turned into ``order <op> 0``.
            value = DecimalValue.from_unscaled(rhs, spec)
            literal_vector = DecimalVector.broadcast(
                value.negative, value.words, spec, vector.rows
            )
            lhs, rhs = _vz.compare(vector, literal_vector), 0
    else:
        lhs = column.data
    return _compare(lhs, op, rhs)


def _evaluate_column_predicate(left: Column, op: str, right: Column) -> np.ndarray:
    """Evaluate ``left <op> right`` between two columns.

    DECIMAL columns compare exactly with scale alignment (the comparison
    operators of section III-A); other types compare on their raw values.
    """
    if isinstance(left.column_type, DecimalType) and isinstance(
        right.column_type, DecimalType
    ):
        order = _vz.compare(left.decimal_vector(), right.decimal_vector())
        return _compare(order, op, 0)
    return _compare(left.data, op, right.data)


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _key_codes(column: Column) -> Tuple[np.ndarray, np.ndarray]:
    """``(codes, values)``: order-preserving int64 key codes of ``column``'s
    rows, and the ascending distinct key value of each code.

    The codes are computed once per version of the column that owns the
    rows (:func:`_rank_keys`, kept with :meth:`Column.derive`); a view
    gathers them through its indices, so they need not be dense.
    """
    root, indices = column.lineage()
    codes, values = root.derive("key_codes", _rank_keys)
    return (codes if indices is None else codes[indices]), values


def _rank_keys(column: Column) -> Tuple[np.ndarray, np.ndarray]:
    """Dense key codes: code ``c`` is the rank of its value among the
    column's distinct values.

    DECIMALs compare by value and CHARs ignore trailing whitespace.
    INT/DATE keys, and DECIMALs whose values fit 63 bits, rank as int64
    values.  Other keys are factorized on their stored bytes first, so
    Python work (decoding, sorting) touches each distinct value once.
    """
    exact = _int64_keys(column)
    if exact is not None:
        codes, values = _dense_ids(exact)
    else:
        ids, distinct = _distinct_values(column)
        ranked = sorted(set(distinct))
        rank = {value: code for code, value in enumerate(ranked)}
        codes = np.array([rank[value] for value in distinct], dtype=np.int64)[ids]
        values = np.array(ranked, dtype=object)
    codes.setflags(write=False)
    values.setflags(write=False)
    return codes, values


def _int64_keys(column: Column) -> Optional[np.ndarray]:
    """Exact int64 unscaled values of an INT/DATE/DECIMAL key, or None."""
    column_type = column.column_type
    if isinstance(column_type, DecimalType):
        return column.decimal_vector().to_int64()
    if isinstance(column_type, (IntType, DateType)):
        return column.data.astype(np.int64)
    return None


def _distinct_values(column: Column) -> Tuple[np.ndarray, List]:
    """``(ids, distinct)``: row ``i`` holds Python value ``distinct[ids[i]]``.

    Rows with equal stored bytes share an id; CHARs come back with
    trailing whitespace stripped, so two ids may still carry one value.
    """
    data = column.data
    rows = len(data)
    width = data.dtype.itemsize * int(np.prod(data.shape[1:]))
    stored = np.ascontiguousarray(data).view(np.uint8).reshape(rows, width)
    if width <= 8:
        padded = np.zeros((rows, 8), dtype=np.uint8)
        padded[:, :width] = stored
        ids, _keys = _dense_ids(padded.view(np.uint64).ravel())
    else:
        _rows, ids = np.unique(
            stored.view(np.dtype((np.void, width))).ravel(), return_inverse=True
        )
    representative = np.zeros(int(ids.max()) + 1 if rows else 0, dtype=np.int64)
    representative[ids] = np.arange(rows)
    column_type = column.column_type
    if isinstance(column_type, DecimalType):
        return ids, column.decimal_vector().take(representative).to_unscaled()
    if isinstance(column_type, CharType):
        return ids, [value.decode().rstrip() for value in data[representative].tolist()]
    return ids, data[representative].tolist()


#: Value spans up to this multiple of the row count (plus a constant for
#: tiny inputs) are ranked by direct addressing instead of a sort.
_DIRECT_SPAN_PER_ROW = 2
_DIRECT_SPAN_MIN = 256


def _dense_ids(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(ids, distinct)``: each value's rank among the sorted ``distinct`` values.

    Narrow value ranges (every INT join and group key of the TPC-H
    schema) rank by a ``bincount`` presence table in O(rows + span);
    wider ones sort through ``np.unique``.
    """
    if len(values) == 0:
        return np.zeros(0, dtype=np.int64), values
    low = int(values.min())
    span = int(values.max()) - low + 1
    if span > _DIRECT_SPAN_PER_ROW * len(values) + _DIRECT_SPAN_MIN:
        distinct, ids = np.unique(values, return_inverse=True)
        return ids.astype(np.int64, copy=False), distinct
    offsets = (values - low).astype(np.intp)
    present = np.bincount(offsets, minlength=span) > 0
    rank = np.cumsum(present) - 1
    return rank[offsets], np.flatnonzero(present).astype(values.dtype) + low


def _stable_argsort(codes: np.ndarray, count: int) -> np.ndarray:
    """Stable argsort of codes below ``count``, in their narrowest unsigned dtype.

    Narrow dtypes are not just smaller: numpy sorts 8- and 16-bit keys by
    radix sort, in linear time.
    """
    narrow = np.min_scalar_type(max(count - 1, 0))
    return np.argsort(codes.astype(narrow), kind="stable")


def _join_indices(
    left: Column, right: Column, keep: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Row pairs with equal keys, in hash-join order, over the right rows
    ``keep`` passes (a boolean mask; None keeps every row).

    DECIMALs compare by value aligned to the wider scale (INT and DATE
    count as scale 0) and CHARs ignore trailing whitespace.  Only the two
    sides' distinct values meet: each left value is looked up in the
    right column's code space, and the probe runs on the right column's
    build side (:func:`_build_side`).
    """
    types = {type(left.column_type), type(right.column_type)}
    if len(types) > 1 and (CharType in types or {DecimalType, DoubleType} <= types):
        raise ExecutionError(
            f"key columns {left.name} ({left.column_type}), "
            f"{right.name} ({right.column_type}) are not comparable"
        )
    left_codes, left_values = _key_codes(left)
    right_codes, right_values = _key_codes(right)
    probe = _right_codes_of(left, left_values, right, right_values)[left_codes]
    lengths, starts, order = right.derive("build_side", _build_side)
    if keep is not None:
        order = order[keep[order]]
        lengths = np.bincount(right_codes[keep], minlength=len(lengths))
        starts = np.cumsum(lengths) - lengths
    return _equi_join_indices(probe, lengths, starts, order)


def _right_codes_of(
    left: Column, left_values: np.ndarray, right: Column, right_values: np.ndarray
) -> np.ndarray:
    """The right code of each of ``left_values``; ``len(right_values)``
    for a value the right column does not hold."""
    scale = max(_key_scale(left), _key_scale(right))
    lhs = _aligned(left_values, scale - _key_scale(left))
    rhs = _aligned(right_values, scale - _key_scale(right))
    absent = len(rhs)
    if lhs.dtype != object and rhs.dtype != object:
        found = np.searchsorted(rhs, lhs)
        hit = found < absent
        hit[hit] = rhs[found[hit]] == lhs[hit]
        return np.where(hit, found, absent)
    rank = {value: code for code, value in enumerate(rhs.tolist())}
    return np.array([rank.get(value, absent) for value in lhs.tolist()], dtype=np.int64)


def _key_scale(column: Column) -> int:
    """The scale a key compares at: a DECIMAL's own, 0 for INT and DATE."""
    column_type = column.column_type
    return column_type.spec.scale if isinstance(column_type, DecimalType) else 0


def _aligned(values: np.ndarray, shift: int) -> np.ndarray:
    """``values * 10**shift``: int64 when every product fits, Python ints otherwise."""
    if shift == 0:
        return values
    factor = 10**shift
    if values.dtype != object:
        bound = max(int(values.max()), -int(values.min())) if len(values) else 0
        # ``max(bound, 1)``: the factor must fit too, even over zeros or no rows.
        if max(bound, 1) * factor <= _INT64_MAX:
            return values * factor
    return np.array([value * factor for value in values.tolist()], dtype=object)


def _build_side(column: Column) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lengths, starts, order)`` of ``column`` as a join's build side
    (kept with the column per version by :meth:`Column.derive`).

    ``order`` lists the rows stably sorted by key code, so each code's
    rows form one run in scan order; code ``c``'s run starts at
    ``starts[c]`` and holds ``lengths[c]`` rows.  One code past the last
    (an empty run) stands for values the column does not hold.
    """
    codes, values = _key_codes(column)
    count = len(values) + 1
    lengths = np.bincount(codes, minlength=count)
    starts = np.cumsum(lengths) - lengths
    order = _stable_argsort(codes, count)
    for array in (lengths, starts, order):
        array.setflags(write=False)
    return lengths, starts, order


def _equi_join_indices(
    probe: np.ndarray, lengths: np.ndarray, starts: np.ndarray, order: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Row pairs matching each probe code's build run, in hash-join order.

    Per-code run offsets and lengths locate every probe row's run by
    direct addressing, and ``np.repeat`` expands the runs left-major --
    the order of a hash join probing the left rows in turn, each row's
    matches in build (right-scan) order.  Unique build keys (every run
    at most one row, as on a primary key) need no expansion.
    """
    matches = lengths[probe]
    if lengths.max(initial=0) <= 1:
        left_take = np.flatnonzero(matches)
        return left_take, order[starts[probe[left_take]]]
    ends = np.cumsum(matches)
    left_take = np.repeat(np.arange(len(probe)), matches)
    # Row k of the output is match ``k - (ends - matches)[row]`` of its run.
    first = np.repeat(starts[probe] - (ends - matches), matches)
    return left_take, order[first + np.arange(len(left_take))]


def _group_rows(
    keys: List[Tuple[np.ndarray, int]], rows: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, starts)`` for GROUP BY over ``(codes, code count)`` key columns.

    ``order`` lists row indices group by group, groups in ascending key
    order (lexicographic over the order-preserving codes) and rows within
    a group in ascending row order; group ``g`` starts at ``starts[g]``.
    """
    group = np.zeros(rows, dtype=np.int64)
    span = 1  # every composite is below ``span``
    for codes, count in keys:
        # Mixed radix keeps lexicographic order.  The composite is ranked
        # once at the end, or before a key that would take it past int64.
        if span * count > _INT64_MAX:
            group, distinct = _dense_ids(group)
            span = len(distinct)
        group = group * count + codes
        span *= count
    group, _distinct = _dense_ids(group)
    groups = int(group.max()) + 1 if rows else 0
    sizes = np.bincount(group, minlength=groups)
    return _stable_argsort(group, groups), np.cumsum(sizes) - sizes


def _column_from_keys(name: str, values: List, template: Column) -> Column:
    if isinstance(template.column_type, DecimalType):
        return Column.decimal_from_unscaled(name, values, template.column_type.spec)
    if isinstance(template.column_type, CharType):
        return Column.chars(name, [str(v) for v in values], template.column_type.width)
    if isinstance(template.column_type, DateType):
        return Column.dates(name, values)
    if isinstance(template.column_type, DoubleType):
        return Column.doubles(name, values)
    return Column.integers(name, values)


def _sort_values(column: Column) -> List:
    if isinstance(column.column_type, DecimalType):
        return column.unscaled()
    return column.data.tolist()
