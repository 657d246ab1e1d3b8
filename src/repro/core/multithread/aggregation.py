"""Multi-pass multi-threaded aggregation (paper section III-E2).

DECIMAL values aggregate in rounds: each pass partitions the input into
thread blocks, each block reduces its slice in shared memory (inner-thread
first, then inter-thread), and the per-block results feed the next pass
until one block can finish the job.

Block sizing follows the paper exactly: with ``Tmax`` threads per block and
``S`` bytes of shared memory, a block hosts ``Ng = Tmax / TPI`` thread
groups, each group reduces ``nt = floor(S / (Ng * (4*Lw + 1)))`` values, so
a block covers ``nT = nt * Ng`` values and a pass launches ``ceil(N / nT)``
blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.decimal import inference
from repro.core.decimal.context import WORD_BITS, DecimalSpec
from repro.core.decimal.vectorized import DecimalVector
from repro.errors import MultithreadError
from repro.gpusim.device import DEFAULT_DEVICE, GpuDevice


@dataclass(frozen=True)
class BlockPlan:
    """Per-pass launch geometry."""

    tpi: int
    groups_per_block: int  # Ng
    values_per_group: int  # nt
    values_per_block: int  # nT

    @classmethod
    def for_spec(
        cls, result_words: int, tpi: int, device: GpuDevice = DEFAULT_DEVICE
    ) -> "BlockPlan":
        t_max = device.max_threads_per_block
        groups = max(1, t_max // tpi)  # Ng = Tmax / TPI
        bytes_per_value = 4 * result_words + 1  # word array + sign byte
        per_group = device.shared_memory_per_block // (groups * bytes_per_value)
        if per_group < 1:
            # Wide values: shrink the group count until a value fits.
            groups = max(1, device.shared_memory_per_block // bytes_per_value // 2)
            per_group = max(1, device.shared_memory_per_block // (groups * bytes_per_value))
        return cls(
            tpi=tpi,
            groups_per_block=groups,
            values_per_group=per_group,
            values_per_block=per_group * groups,
        )


@dataclass(frozen=True)
class PassInfo:
    """One aggregation pass."""

    input_values: int
    blocks: int
    seconds: float


@dataclass
class AggregationRun:
    """Result + simulated timing of a multi-pass aggregation."""

    value: int  # unscaled result (COUNT for 'count')
    spec: DecimalSpec
    passes: Tuple[PassInfo, ...] = ()

    @property
    def seconds(self) -> float:
        return sum(p.seconds for p in self.passes)

    @property
    def pass_count(self) -> int:
        return len(self.passes)


#: Int64 partial sums are exact while ``rows * max|x|`` stays below this.
_INT64_LIMIT = 1 << 63

_SUPPORTED = ("sum", "min", "max", "count", "avg")
_SEGMENTED = ("sum", "min", "max", "avg")


def result_spec(op: str, input_spec: DecimalSpec, charged: int) -> DecimalSpec:
    """Result spec of aggregate ``op`` over ``charged`` (simulated) tuples.

    A function of the aggregate alone -- never of the values reduced -- so
    a query's result types do not depend on whether any row survived.
    """
    charged = max(charged, 1)
    if op == "count":
        return inference.count_spec(charged)
    if op in ("min", "max"):
        return inference.minmax_result(input_spec)
    if op == "avg":
        return inference.avg_result(input_spec, charged)
    return inference.sum_result(input_spec, charged)


def aggregate(
    values: Sequence[int],
    input_spec: DecimalSpec,
    op: str = "sum",
    tpi: int = 8,
    device: GpuDevice = DEFAULT_DEVICE,
    simulate_tuples: Optional[int] = None,
) -> AggregationRun:
    """Aggregate unscaled values, reproducing the paper's pass structure.

    ``values`` are the actual rows reduced (bit-exactly); the timing charges
    ``simulate_tuples`` rows (default ``len(values)``) so benchmarks can run
    a sample while costing the paper's relation sizes.
    """
    op = _checked(op)
    n = len(values)
    if n == 0:
        raise MultithreadError("cannot aggregate an empty column")
    charged = simulate_tuples if simulate_tuples is not None else n

    # Result values always reflect the real rows reduced; ``charged`` only
    # widens result specs and drives the timing model.
    spec = result_spec(op, input_spec, charged)
    if op == "count":
        result: int = n
    elif op in ("min", "max"):
        result = min(values) if op == "min" else max(values)
    else:  # sum / avg
        sum_spec = result_spec("sum", input_spec, charged)
        result = _blockwise_sum(values, input_spec, sum_spec, tpi, device)
        if op == "avg":
            result = _average(result, n, charged)

    run = AggregationRun(value=result, spec=spec)
    run.passes = plan_passes(charged, spec.words, tpi, device)
    return run


@dataclass
class SegmentedRun:
    """One aggregate reduced over every segment (group) of a column.

    Every segment is charged the same pass plan: the grouped operator
    spreads its simulated tuples evenly over the groups.
    """

    values: List[int]  # one unscaled result per segment
    spec: DecimalSpec
    passes: Tuple[PassInfo, ...] = ()

    @property
    def seconds(self) -> float:
        """Simulated seconds of *one* segment's reduction."""
        return sum(p.seconds for p in self.passes)


def aggregate_segments(
    vector: DecimalVector,
    starts: np.ndarray,
    op: str = "sum",
    tpi: int = 8,
    device: GpuDevice = DEFAULT_DEVICE,
    simulate_tuples: int = 1,
) -> SegmentedRun:
    """Reduce every segment of ``vector`` straight from its lanes or limb planes.

    Segment ``g`` is rows ``starts[g]`` up to the next start (the last one
    runs to the end); segments must be non-empty and are given in row
    order.  Results equal :func:`aggregate` over each segment's values,
    spec and pass plan included, but the work is O(Lw) column passes
    instead of one Python reduction per group:

    * SUM/AVG run one ``np.add.reduceat`` over the int64 lanes when
      ``rows * max|x| < 2**63``.  Otherwise they add each 32-bit limb
      column separately into uint64 -- positives and negatives apart, so
      every partial sum is a magnitude -- and resolve the inter-limb
      carries once per segment (the blocked-carry formulation of Oancea
      and Watt).  A uint64 limb sum stays exact below 2**32 rows.
    * MIN/MAX run ``np.minimum/maximum.reduceat`` on int64 when every value
      fits 63 bits, else compare the segments' Python ints.

    COUNT is not reduced here: a segment's count is its length.
    ``simulate_tuples`` is the per-segment charge; the pass plan is
    computed once for all segments.
    """
    op = _checked(op, _SEGMENTED)
    spec = result_spec(op, vector.spec, simulate_tuples)
    run = SegmentedRun(values=[], spec=spec)
    run.passes = plan_passes(max(simulate_tuples, 1), spec.words, tpi, device)
    rows = vector.rows
    starts = np.asarray(starts, dtype=np.int64)
    if len(starts) == 0:
        if rows:
            raise MultithreadError("rows outside every segment")
        return run
    counts = np.diff(np.append(starts, rows))
    if starts[0] != 0 or (counts < 1).any():
        raise MultithreadError("segments must be non-empty and start at row 0")
    if op in ("min", "max"):
        run.values = _segment_extremes(vector, starts, counts, op)
    else:
        totals = _segment_sums(vector, starts)
        if op == "avg":
            totals = [
                _average(total, n, simulate_tuples)
                for total, n in zip(totals, counts.tolist())
            ]
        run.values = totals
    return run


def _checked(op: str, supported: Sequence[str] = _SUPPORTED) -> str:
    op = op.lower()
    if op not in supported:
        raise MultithreadError(f"unsupported aggregate {op!r}")
    return op


def _average(total: int, n: int, charged: int) -> int:
    """AVG from an exact SUM: the division rule with a ``len(N)``-digit divisor."""
    prescale = inference.div_prescale(inference.count_spec(max(charged, 1)))
    magnitude = abs(total) * 10**prescale // n
    return -magnitude if total < 0 else magnitude


def _segment_sums(vector: DecimalVector, starts: np.ndarray) -> List[int]:
    """Exact signed sum of every segment.

    Int64 lanes sum directly when ``rows * max|x|`` stays below ``2**63``,
    so no partial sum can wrap; otherwise per-limb column sums.  The test
    reads the vector's carried :meth:`~DecimalVector.lane_bound`, and
    measures ``max|x|`` only when that bound is too loose to pass it.
    """
    lanes = vector.to_int64()
    if lanes is not None:
        bound = vector.lane_bound()
        if lanes.size * bound >= _INT64_LIMIT:
            bound = max(int(lanes.max()), -int(lanes.min()))
        if lanes.size * bound < _INT64_LIMIT:
            return np.add.reduceat(lanes, starts).tolist()
    words, negative = vector.words, vector.negative
    totals = np.add.reduceat(words, starts, axis=0, dtype=np.uint64)
    if not negative.any():
        return _resolve_carries(totals)
    negated = np.add.reduceat(
        np.where(negative[:, None], words, 0), starts, axis=0, dtype=np.uint64
    )
    # Limb by limb, the positive rows' sum is the total minus the negative
    # rows' sum: both are exact, so the difference cannot wrap.
    return [
        plus - minus
        for plus, minus in zip(
            _resolve_carries(totals - negated), _resolve_carries(negated)
        )
    ]


def _resolve_carries(limb_sums: np.ndarray) -> List[int]:
    """Fold ``(G, Lw)`` unnormalised limb sums into one exact int per row.

    Column ``j`` holds a sum of 32-bit limbs of weight ``2**(32*j)``, up to
    ``32 + log2(rows)`` bits wide; the object-dtype fold propagates every
    carry in one pass over the limbs.
    """
    acc = limb_sums[:, -1].astype(object)
    for limb in range(limb_sums.shape[1] - 2, -1, -1):
        acc = (acc << WORD_BITS) + limb_sums[:, limb].astype(object)
    return acc.tolist()


def _segment_extremes(
    vector: DecimalVector, starts: np.ndarray, counts: np.ndarray, op: str
) -> List[int]:
    signed = vector.to_int64()
    if signed is not None:
        reduce = np.minimum if op == "min" else np.maximum
        return reduce.reduceat(signed, starts).tolist()
    values = vector.to_unscaled()
    pick = min if op == "min" else max
    return [
        pick(values[start : start + n])
        for start, n in zip(starts.tolist(), counts.tolist())
    ]


def _blockwise_sum(
    values: Sequence[int],
    input_spec: DecimalSpec,
    result_spec: DecimalSpec,
    tpi: int,
    device: GpuDevice,
) -> int:
    """Reduce exactly as the passes would: block sums, then a sum of sums.

    Integer addition is associative, so the result equals ``sum(values)``;
    folding blockwise keeps the simulation faithful and lets tests assert
    the equivalence explicitly.
    """
    plan = BlockPlan.for_spec(result_spec.words, tpi, device)
    level: List[int] = list(values)
    while len(level) > 1:
        level = [
            sum(level[start : start + plan.values_per_block])
            for start in range(0, len(level), plan.values_per_block)
        ]
    return level[0]


@functools.lru_cache(maxsize=256)
def plan_passes(
    n: int, result_words: int, tpi: int, device: GpuDevice
) -> Tuple[PassInfo, ...]:
    """Pass geometry + simulated time for aggregating ``n`` values.

    The one reduction plan: :func:`aggregate`, :func:`aggregate_segments`
    and the engine's cost model (``CostModel.reduction``) all take it.
    Memoized, as a tuple of frozen passes every caller shares: the plan
    depends on its arguments alone, and an execution prices each
    aggregate through both the reducer and the cost model.
    """
    plan = BlockPlan.for_spec(result_words, tpi, device)
    passes: List[PassInfo] = []
    remaining = n
    bytes_per_value = 4 * result_words + 1
    while True:
        blocks = math.ceil(remaining / plan.values_per_block)
        seconds = _pass_seconds(remaining, result_words, bytes_per_value, tpi, device)
        passes.append(PassInfo(input_values=remaining, blocks=blocks, seconds=seconds))
        if blocks == 1:
            break
        remaining = blocks
    return tuple(passes)


def _pass_seconds(
    values: int, result_words: int, bytes_per_value: int, tpi: int, device: GpuDevice
) -> float:
    """Roofline time of one reduction pass.

    Each value is read once (compact-ish traffic), added once (carry chain
    of ``Lw`` words split across TPI threads), with log-depth inter-thread
    reduction overhead.
    """
    traffic = values * bytes_per_value
    memory_seconds = traffic / (device.dram_bandwidth * device.dram_efficiency)
    cycles_per_value = result_words + 2 + 2 * math.log2(max(tpi, 2))
    compute_seconds = values * cycles_per_value / device.int_throughput
    return max(memory_seconds, compute_seconds) + device.kernel_launch_overhead
