"""The engine's one cost function: every simulated charge and every estimate.

:class:`CostModel` is the only engine code that turns bytes, rows and
kernels into simulated seconds.  Each charge is one method -- disk scan,
PCIe transfer, filter pass, hash and nested-loop join, ORDER BY sort,
group key sort, payload gather, multi-pass reduction, compile, kernel
launch and chunk choice, pipeline overhead -- built on the roofline
primitives of :mod:`repro.gpusim.timing`.  The physical operators and
:func:`~repro.engine.executor.run_plan` call these methods with the
actual bytes and rows of an execution;
:func:`~repro.engine.plan.planner.estimate_plan` calls the same methods
with estimated inputs for an ISGBD-style ``(startup, total, rows)``
estimate of every plan node, and EXPLAIN prices the planned kernels,
compile and pipeline through them too.  An estimate therefore differs
from the charge only where its inputs do (cardinalities, catalog widths).

Estimates drive two physical choices:

* hash join vs nested-loop join (one random-access build/probe pass vs
  the O(left x right) streaming scan -- a tiny build side wins the loop);
* streamed vs serial kernel execution and the stream chunk size (the
  pipelined estimate of :func:`repro.gpusim.streaming.stream_timing`
  across a candidate set, with "one chunk" being the serial plan).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.jit import ir
from repro.core.multithread import aggregation as mt_aggregation
from repro.engine.sql.ast_nodes import Comparison
from repro.errors import ReproError
from repro.gpusim import timing as gpu_timing
from repro.gpusim.device import DEFAULT_DEVICE, DEFAULT_HOST, GpuDevice, HostSystem
from repro.gpusim.streaming import (
    DEFAULT_CHUNK_ROWS,
    StreamingConfig,
    StreamTiming,
    stream_timing,
)
from repro.storage.codecs import ZoneMap
from repro.storage.column import Column
from repro.storage.relation import Relation
from repro.storage.schema import DecimalType, literal_operand


@dataclass(frozen=True)
class OptimizerConfig:
    """Whether the optimizer runs for a query.

    The default is on: the logical rewrite rules (pushdown, merge, pruning
    and statistics-driven join reordering), the cost-based hash vs
    nested-loop join choice, and the cost-based stream chunk size.
    ``OptimizerConfig.off()`` reproduces the historical fixed-shape planner
    (modulo always-on correctness passes such as sort-key retention).
    """

    enabled: bool = True

    @classmethod
    def off(cls) -> "OptimizerConfig":
        return cls(enabled=False)


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
    columns: Dict[str, Column] = field(default_factory=dict)

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


#: Thread-group width (TPI) of the multi-pass aggregation, section III-E2.
AGGREGATION_TPI = 8

#: Per-operator pipeline overhead at 10M tuples (materialisation, operator
#: setup, result collection: the host-side engine cost around the kernels,
#: RateupDB heritage, calibrated on Figure 14(b)).
OPERATOR_OVERHEAD_SECONDS = 0.050


@dataclass(frozen=True)
class CostModel:
    """Simulated seconds of every engine charge on one device and host.

    Each method prices one charge from its inputs alone, so execution
    (actual inputs) and planning or EXPLAIN (estimated inputs) share one
    formula.  Frozen: the plan cache keys on it.
    """

    device: GpuDevice = DEFAULT_DEVICE
    host: HostSystem = DEFAULT_HOST
    #: Charge the host-side disk scan (the paper's experiments exclude it).
    include_scan: bool = True

    # ---------------------------------------------------------- charges

    def disk_scan(self, bytes_read: float) -> float:
        """Host-side table scan of ``bytes_read``; nothing without ``include_scan``."""
        if not self.include_scan:
            return 0.0
        return gpu_timing.disk_scan_time(int(bytes_read), self.host)

    def transfer(self, bytes_moved: float) -> float:
        """One host<->device PCIe transfer of ``bytes_moved``."""
        return gpu_timing.pcie_time(int(bytes_moved), self.device)

    def filter_pass(self, bytes_per_row: float, rows: float) -> float:
        """A predicate kernel: one DRAM pass over the predicate columns."""
        return (
            gpu_timing.dram_pass_time(bytes_per_row * rows, self.device)
            + self.device.kernel_launch_overhead
        )

    def hash_join(self, left_rows: float, right_rows: float) -> float:
        """Hash build over the right side plus probe of the left."""
        return gpu_timing.hash_join_time(left_rows, right_rows, self.device)

    def nested_loop_join(self, left_rows: float, right_rows: float) -> float:
        """Every left row streams the whole right key array."""
        return gpu_timing.nested_loop_join_time(left_rows, right_rows, self.device)

    def sort(self) -> float:
        """ORDER BY over the (small) result batch: one launch."""
        return self.device.kernel_launch_overhead

    def key_sort(self, key_bytes_per_row: float, rows: float) -> float:
        """GROUP BY's device sort: ``sort_passes`` DRAM passes over the keys."""
        passes = gpu_timing.sort_passes(max(int(round(rows)), 1))
        return gpu_timing.dram_pass_time(passes * key_bytes_per_row * rows, self.device)

    def payload_gather(self, value_bytes_per_row: float, rows: float) -> float:
        """Moving every aggregated value into its group's segment."""
        return rows * value_bytes_per_row / gpu_timing.GROUP_GATHER_BANDWIDTH

    def reduction(self, result_words: int, tuples: int) -> float:
        """One multi-pass reduction of ``tuples`` values into a
        ``result_words``-word result (:func:`~repro.core.multithread.
        aggregation.plan_passes`)."""
        passes = mt_aggregation.plan_passes(tuples, result_words, AGGREGATION_TPI, self.device)
        return sum(p.seconds for p in passes)

    def compile(self, kernel: ir.KernelIR, first: bool) -> float:
        """JIT compile of one kernel; the query's ``first`` pays NVRTC startup."""
        return gpu_timing.compile_time([kernel], include_base=first)

    def launch(self, kernel: ir.KernelIR, rows: float) -> StreamTiming:
        """One serial launch over ``rows`` tuples (at least one), as a
        one-chunk pipeline with no transfer stage."""
        tuples = max(int(round(rows)), 1)
        seconds = gpu_timing.kernel_time(kernel, tuples, self.device).seconds
        return StreamTiming(1, 0.0, seconds)

    def stream(
        self,
        kernel: ir.KernelIR,
        rows: float,
        streaming: StreamingConfig,
        transfer_bytes: float,
        optimize: bool,
    ) -> StreamTiming:
        """A streamed launch over ``rows`` tuples whose pending input
        transfer of ``transfer_bytes`` overlaps the chunks' compute."""
        tuples = max(int(round(rows)), 1)
        chunk_rows = self.chunk_rows(kernel, tuples, streaming, transfer_bytes, optimize)
        return stream_timing(
            kernel, tuples, chunk_rows, self.device, transfer_bytes=int(transfer_bytes)
        )

    def chunk_rows(
        self,
        kernel: ir.KernelIR,
        tuples: int,
        streaming: StreamingConfig,
        transfer_bytes: float,
        optimize: bool,
    ) -> int:
        """Rows per stream chunk of one launch: the pipelined-cost argmin
        (:meth:`choose_chunk_rows`) when the optimizer runs, else the
        configured (or memory-budget auto) size."""
        if optimize:
            return self.choose_chunk_rows(kernel, tuples, streaming, transfer_bytes)
        return streaming.resolve_chunk_rows(kernel, self.device, tuples)

    def occupancy(self, kernel: ir.KernelIR) -> float:
        """SM occupancy fraction of a launch (the scheduler's SM demand)."""
        return gpu_timing.kernel_profile(kernel, self.device).occupancy.occupancy

    def pipeline(self, operators: int, simulate_rows: int) -> float:
        """Host pipeline overhead of an ``operators``-long chain."""
        return operators * OPERATOR_OVERHEAD_SECONDS * (simulate_rows / 10_000_000)

    # ------------------------------------------------------ physical choice

    def join_estimates(
        self,
        left_rows: float,
        right_rows: float,
        right_bytes: float,
        out_rows: float,
    ) -> Dict[str, CostEstimate]:
        """Both join algorithms' estimates: the build side's scan and
        transfer before any row (startup), then the join pass."""
        startup = self.disk_scan(right_bytes) + self.transfer(right_bytes)
        return {
            "hash": CostEstimate(
                startup, startup + self.hash_join(left_rows, right_rows), out_rows
            ),
            "nested-loop": CostEstimate(
                startup, startup + self.nested_loop_join(left_rows, right_rows), out_rows
            ),
        }

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
