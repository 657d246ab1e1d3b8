"""Cost model for the planner: per-node estimates and physical choices.

The model reuses the roofline terms of :mod:`repro.gpusim.timing` -- disk
scan, PCIe transfer, DRAM passes, kernel-launch overhead -- to put a
``(startup, total, rows)`` estimate on every plan node, ISGBD-style, and
to choose between physical alternatives:

* hash join vs nested-loop join (the build/probe random-access passes vs
  the O(left x right) streaming scan -- a tiny build side wins the loop);
* streamed vs serial kernel execution and the stream chunk size (the
  pipelined estimate of :func:`repro.gpusim.streaming.stream_timing`
  across a candidate set, with "one chunk" being the serial plan).

Estimates drive *choice and EXPLAIN output only*; execution keeps charging
its own (actual-selectivity) costs, so the report never depends on the
estimator being right.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.jit import ir
from repro.engine.sql.ast_nodes import Comparison
from repro.errors import ReproError
from repro.gpusim import timing as gpu_timing
from repro.gpusim.device import DEFAULT_DEVICE, DEFAULT_HOST, GpuDevice, HostSystem
from repro.gpusim.streaming import DEFAULT_CHUNK_ROWS, StreamingConfig, stream_timing
from repro.storage.codecs import ZoneMap
from repro.storage.relation import Relation
from repro.storage.schema import DecimalType, literal_operand


@dataclass(frozen=True)
class OptimizerConfig:
    """Which optimizer stages run for a query.

    The default is everything on; ``OptimizerConfig.off()`` reproduces the
    historical fixed-shape planner (modulo always-on correctness passes
    such as sort-key retention).
    """

    #: Run the logical rewrite rules (pushdown, merge, pruning).
    rewrite: bool = True
    #: Statistics-driven multi-join reordering (requires ``rewrite``: the
    #: reorder pass runs inside the rewrite-rule engine).
    reorder_joins: bool = True
    #: Cost-based hash vs nested-loop join choice.
    choose_join: bool = True
    #: Cost-based stream chunk sizing / serial fallback per kernel.
    choose_streaming: bool = True
    #: Raise :class:`repro.errors.PlanAnalysisError` when the plan
    #: analyzer, which runs over every planned query, reports errors
    #: (default: attach diagnostics to the plan and EXPLAIN output without
    #: failing the query).
    strict_plan_analysis: bool = False

    @classmethod
    def off(cls) -> "OptimizerConfig":
        return cls(
            rewrite=False,
            reorder_joins=False,
            choose_join=False,
            choose_streaming=False,
        )


@dataclass
class TableStats:
    """Planner-visible statistics of one relation."""

    rows: int
    #: *Wire* bytes per row, per column: the encoded size under the
    #: column's storage codec, falling back to stored bytes without one --
    #: so codec choice feeds every scan/PCIe estimate downstream.
    column_bytes: Dict[str, float]
    #: Column name -> storage type (drives exact literal canonicalisation
    #: in the predicate-merge rule).
    column_types: Dict[str, object]
    #: Zone-map index per codec-carrying DECIMAL column, for data-aware
    #: selectivity estimates (see :meth:`zone_fraction`).
    zones: Dict[str, List[ZoneMap]] = field(default_factory=dict)
    #: The relation's Column objects, for lazy per-column statistics
    #: (NDV / histograms -- see :meth:`column_stats`).  Optional so
    #: hand-built TableStats (tests, profiles) keep working; without it
    #: every statistics lookup declines and the System-R defaults apply.
    columns: Dict[str, "object"] = field(default_factory=dict)

    @classmethod
    def from_relation(cls, relation: Relation) -> "TableStats":
        rows = max(relation.rows, 1)
        zones: Dict[str, List[ZoneMap]] = {}
        for column in relation.columns:
            if column.codec is not None and isinstance(column.column_type, DecimalType):
                zones[column.name] = column.encoding().zones
        return cls(
            rows=relation.rows,
            column_bytes={
                column.name: column.wire_bytes / rows for column in relation.columns
            },
            column_types={column.name: column.column_type for column in relation.columns},
            zones=zones,
            columns={column.name: column for column in relation.columns},
        )

    def bytes_for(self, names) -> float:
        return sum(self.column_bytes.get(name, 0.0) for name in names)

    def column_stats(self, name: str):
        """Lazy, column-version-cached statistics (NDV, histogram) or None."""
        column = self.columns.get(name)
        if column is None:
            return None
        from repro.engine.plan.stats import column_stats

        return column_stats(column)

    def ndv(self, name: str) -> Optional[int]:
        """Distinct-value count of a column, or None without statistics."""
        stats = self.column_stats(name)
        return None if stats is None else stats.ndv

    def histogram_fraction(self, predicate: Comparison) -> Optional[float]:
        """Histogram estimate of a literal predicate's selectivity.

        Applies to literal comparisons over DECIMAL columns whose
        statistics carry an equi-depth histogram; the literal
        canonicalises through the column's spec exactly as
        :meth:`zone_fraction` does.  Returns None when out of scope.
        """
        if predicate.column_rhs is not None:
            return None
        column_type = self.column_types.get(predicate.column)
        if not isinstance(column_type, DecimalType):
            return None
        stats = self.column_stats(predicate.column)
        if stats is None or stats.histogram is None:
            return None
        try:
            comparison = literal_operand(predicate.op, predicate.literal, column_type)
        except ReproError:
            return None
        if isinstance(comparison, bool):
            return float(comparison)
        return stats.histogram.fraction(*comparison)

    def zone_fraction(self, predicate: Comparison) -> Optional[float]:
        """Zone-map upper bound on a literal predicate's selectivity.

        Chunks whose verdict is ``False`` contribute nothing, ``True``
        chunks contribute all their rows, undecided chunks contribute the
        operator's textbook default -- so the result is a data-aware
        refinement of :data:`DEFAULT_SELECTIVITY`, not a guess.  Returns
        None when the column has no zone index or the literal is not a
        decimal literal.
        """
        zone_list = self.zones.get(predicate.column)
        if not zone_list or predicate.column_rhs is not None:
            return None
        column_type = self.column_types.get(predicate.column)
        if not isinstance(column_type, DecimalType):
            return None
        try:
            comparison = literal_operand(predicate.op, predicate.literal, column_type)
        except ReproError:
            return None
        default = DEFAULT_SELECTIVITY.get(predicate.op, 0.5)
        matching = 0.0
        total = 0
        for zone in zone_list:
            total += zone.rows
            verdict = (
                comparison if isinstance(comparison, bool) else zone.evaluate(*comparison)
            )
            if verdict is True:
                matching += zone.rows
            elif verdict is None:
                matching += zone.rows * default
        if total == 0:
            return None
        return matching / total


@dataclass
class PlanStats:
    """Statistics for every relation a query touches."""

    main: TableStats
    joined: Dict[str, TableStats] = field(default_factory=dict)
    simulate_rows: int = 0

    def table(self, name: Optional[str]) -> Optional[TableStats]:
        if name is None:
            return self.main
        return self.joined.get(name)

    def column_type(self, column: str) -> Optional[object]:
        for stats in [self.main, *self.joined.values()]:
            if column in stats.column_types:
                return stats.column_types[column]
        return None

    def column_ndv(self, column: str) -> Optional[int]:
        """NDV of a column from whichever relation owns it, or None."""
        for stats in [self.main, *self.joined.values()]:
            if column in stats.column_types:
                return stats.ndv(column)
        return None


#: Textbook default selectivities per comparison operator (System R):
#: used only for node-cost *estimates*; execution charges actual counts.
DEFAULT_SELECTIVITY = {"=": 0.1, "<>": 0.9, "<": 1 / 3, "<=": 1 / 3, ">": 1 / 3, ">=": 1 / 3}


def predicate_selectivity(
    predicates: List[Comparison], table: Optional[TableStats] = None
) -> float:
    """Estimated surviving fraction of a conjunct list.

    With ``table`` statistics, literal conjuncts over DECIMAL columns read
    their selectivity from the column's equi-depth histogram; the zone-map
    fraction (an upper bound, since undecided chunks count at the textbook
    default) then caps the estimate.  Conjuncts without statistics keep
    the System R defaults.
    """
    fraction = 1.0
    for predicate in predicates:
        estimate = DEFAULT_SELECTIVITY.get(predicate.op, 0.5)
        if table is not None:
            histogram = table.histogram_fraction(predicate)
            if histogram is not None:
                estimate = histogram
            zone = table.zone_fraction(predicate)
            if zone is not None:
                estimate = min(estimate, zone)
        fraction *= estimate
    return fraction


def join_output_rows(
    left_rows: float,
    right_rows: float,
    left_ndv: Optional[float],
    right_ndv: Optional[float],
) -> float:
    """Textbook equi-join cardinality: ``|L| * |R| / max(ndv_L, ndv_R)``.

    Falls back to ``left_rows`` (the historical assumption: every left row
    matches exactly once, as in a foreign-key join) when either side's key
    NDV is unknown.
    """
    if not left_ndv or not right_ndv:
        return left_rows
    return left_rows * right_rows / max(left_ndv, right_ndv, 1)


@dataclass
class CostEstimate:
    """ISGBD-style per-node estimate: startup..total seconds + row count.

    ``startup`` is the cost before the first output row can exist (e.g. a
    hash join's build pass, a sort's full pass); ``total`` includes the
    node's complete work, excluding its children.
    """

    startup_seconds: float
    total_seconds: float
    rows: float

    def format(self) -> str:
        return (
            f"(cost={self.startup_seconds:.4f}..{self.total_seconds:.4f} "
            f"rows={int(self.rows):,})"
        )


class CostModel:
    """Per-node cost estimation over the simulated device/host."""

    def __init__(
        self,
        device: GpuDevice = DEFAULT_DEVICE,
        host: HostSystem = DEFAULT_HOST,
        include_scan: bool = True,
        include_transfer: bool = True,
    ):
        self.device = device
        self.host = host
        self.include_scan = include_scan
        self.include_transfer = include_transfer

    # ------------------------------------------------------------- per node

    def scan(self, bytes_moved: float, rows: float) -> CostEstimate:
        seconds = 0.0
        if self.include_scan:
            seconds += gpu_timing.disk_scan_time(int(bytes_moved), self.host)
        if self.include_transfer:
            seconds += gpu_timing.pcie_time(int(bytes_moved), self.device)
        return CostEstimate(0.0, seconds, rows)

    def filter(
        self,
        predicates: List[Comparison],
        bytes_per_row: float,
        rows: float,
        table: Optional[TableStats] = None,
    ) -> CostEstimate:
        traffic = bytes_per_row * rows
        seconds = (
            gpu_timing.dram_pass_time(traffic, self.device)
            + self.device.kernel_launch_overhead
        )
        return CostEstimate(0.0, seconds, rows * predicate_selectivity(predicates, table))

    def hash_join(
        self,
        left_rows: float,
        right_rows: float,
        right_bytes: float,
        out_rows: float,
    ) -> CostEstimate:
        """Build on the right side (startup), probe the left (total)."""
        startup = self.scan(right_bytes, right_rows).total_seconds
        startup += gpu_timing.dram_pass_time(
            right_rows * gpu_timing.JOIN_KEY_BYTES, self.device, random_access=True
        )
        probe = (
            gpu_timing.dram_pass_time(
                left_rows * gpu_timing.JOIN_KEY_BYTES, self.device, random_access=True
            )
            + self.device.kernel_launch_overhead
        )
        return CostEstimate(startup, startup + probe, out_rows)

    def nested_loop_join(
        self,
        left_rows: float,
        right_rows: float,
        right_bytes: float,
        out_rows: float,
    ) -> CostEstimate:
        startup = self.scan(right_bytes, right_rows).total_seconds
        probe = gpu_timing.nested_loop_join_time(left_rows, right_rows, self.device)
        return CostEstimate(startup, startup + probe, out_rows)

    def project(self, result_bytes_per_row: float, rows: float) -> CostEstimate:
        seconds = 0.0
        if self.include_transfer:
            seconds += gpu_timing.pcie_time(int(result_bytes_per_row * rows), self.device)
        return CostEstimate(0.0, seconds, rows)

    def sort(self, key_bytes_per_row: float, rows: float) -> CostEstimate:
        passes = gpu_timing.sort_passes(rows)
        seconds = (
            gpu_timing.dram_pass_time(passes * key_bytes_per_row * rows, self.device)
            + self.device.kernel_launch_overhead
        )
        # A sort emits nothing until the whole input is consumed.
        return CostEstimate(seconds, seconds, rows)

    def group_aggregate(
        self, key_bytes_per_row: float, value_bytes_per_row: float, rows: float, groups: float
    ) -> CostEstimate:
        key_sort = self.sort(key_bytes_per_row, rows).total_seconds
        gather = value_bytes_per_row * rows / gpu_timing.GROUP_GATHER_BANDWIDTH
        reduce_pass = gpu_timing.dram_pass_time(value_bytes_per_row * rows, self.device)
        total = key_sort + gather + reduce_pass
        return CostEstimate(total, total, groups)

    def aggregate(self, value_bytes_per_row: float, rows: float) -> CostEstimate:
        seconds = (
            gpu_timing.dram_pass_time(value_bytes_per_row * rows, self.device)
            + self.device.kernel_launch_overhead
        )
        return CostEstimate(seconds, seconds, 1.0)

    def limit(self, count: int, rows: float) -> CostEstimate:
        return CostEstimate(0.0, 0.0, min(float(count), rows))

    # ------------------------------------------------------ physical choice

    def choose_join(
        self,
        left_rows: float,
        right_rows: float,
        right_bytes: float,
        out_rows: float,
    ) -> Tuple[str, CostEstimate, Dict[str, CostEstimate]]:
        """Pick the cheaper join strategy; returns (name, winner, all)."""
        candidates = {
            "hash": self.hash_join(left_rows, right_rows, right_bytes, out_rows),
            "nested-loop": self.nested_loop_join(left_rows, right_rows, right_bytes, out_rows),
        }
        name = min(candidates, key=lambda key: candidates[key].total_seconds)
        return name, candidates[name], candidates

    def choose_chunk_rows(
        self,
        kernel: ir.KernelIR,
        simulate_rows: int,
        streaming: StreamingConfig,
        transfer_bytes: float,
    ) -> int:
        """Pick the stream chunk size minimising the pipelined estimate.

        The candidate set spans the configured size, the memory-budget
        auto size, the default, and coarser powers up to a single chunk --
        which *is* the serial plan, so "streamed vs serial" falls out of
        the same comparison.
        """
        if simulate_rows <= 0:
            # Explicit ``is None`` check, not truthiness: StreamingConfig
            # validates chunk_rows >= 1 at construction, and a falsy-or here
            # would silently re-default an (invalid) zero.
            if streaming.chunk_rows is not None:
                return streaming.chunk_rows
            return DEFAULT_CHUNK_ROWS
        candidates = {simulate_rows}  # one chunk == serial execution
        if streaming.chunk_rows is not None:
            candidates.add(streaming.chunk_rows)
        auto = StreamingConfig(enabled=True, chunk_rows=None).resolve_chunk_rows(
            kernel, self.device, simulate_rows
        )
        candidates.add(auto)
        candidates.add(DEFAULT_CHUNK_ROWS)
        candidates.update(
            max(1, simulate_rows // depth) for depth in (4, 16, 64) if simulate_rows >= depth
        )

        def pipelined(chunk_rows: int) -> float:
            return stream_timing(
                kernel,
                simulate_rows,
                chunk_rows,
                self.device,
                transfer_bytes=int(transfer_bytes),
            ).pipelined_seconds

        # Deterministic tie-break: prefer the larger chunk (fewer launches).
        return min(sorted(candidates, reverse=True), key=pipelined)


def stream_chunk_rows(
    kernel: ir.KernelIR,
    simulate_rows: int,
    streaming: StreamingConfig,
    transfer_bytes: float,
    device: GpuDevice,
    cost_model: Optional[CostModel],
    optimizer: Optional[OptimizerConfig],
) -> int:
    """Rows per stream chunk for one kernel launch.

    The one chunk-size rule: the executor and EXPLAIN both call it.  With
    ``optimizer.choose_streaming`` set and a cost model present, the cost
    model picks the size minimising the pipelined estimate; otherwise
    :meth:`StreamingConfig.resolve_chunk_rows` applies the configured (or
    memory-budget auto) size.
    """
    if cost_model is not None and optimizer is not None and optimizer.choose_streaming:
        return cost_model.choose_chunk_rows(kernel, simulate_rows, streaming, transfer_bytes)
    return streaming.resolve_chunk_rows(kernel, device, simulate_rows)
