"""Chunked (streamed) kernel execution with transfer/compute overlap.

The GPU-database literature the paper builds on (GPUDB, HippogriffDB --
section V) is dominated by the PCIe transfer bottleneck; the standard
remedy is to split a column batch into chunks and overlap chunk N+1's
host-to-device copy with chunk N's kernel using CUDA streams.

Chunking is a claim about *time* only: elementwise kernels return the
same rows under any split, so ``execute_streamed`` runs the data plane in
one launch and charges it through the time model, which pipelines the
per-chunk transfer and kernel stages::

    total = first_transfer + max(transfer, kernel) * (chunks - 1) + last_kernel

compared with the serial ``transfer_total + kernel_total``.

:class:`StreamingConfig` is the engine-facing knob: the ``Database``
facade threads it through :class:`~repro.engine.plan.physical.QueryContext`
to the projection/aggregation operators, whose JIT kernels are then
charged as :class:`StreamTiming` pipelines instead of serial launches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.decimal.vectorized import DecimalVector
from repro.core.jit import ir
from repro.errors import ExecutionError
from repro.gpusim.device import DEFAULT_DEVICE, GpuDevice
from repro.gpusim.executor import execute
from repro.gpusim.timing import kernel_profile, kernel_time, pcie_time

#: Default rows per stream chunk.
DEFAULT_CHUNK_ROWS = 1_000_000

#: Auto-sizing floor: chunks smaller than this are launch-overhead bound.
MIN_AUTO_CHUNK_ROWS = 65_536

#: Auto-sizing target: enough chunks that the first transfer and last
#: kernel (the pipeline's un-overlapped ends) are a small share of total.
AUTO_PIPELINE_DEPTH = 8

#: Auto-sizing budget: the fraction of device memory one pipelined chunk
#: set (double-buffered inputs plus the result column) may occupy.
AUTO_MEMORY_FRACTION = 0.125


@dataclass(frozen=True)
class StreamingConfig:
    """Engine configuration for chunked streaming execution.

    ``chunk_rows=None`` auto-sizes chunks per kernel: each in-flight chunk
    set (double-buffered inputs plus the result column) must fit in
    :data:`AUTO_MEMORY_FRACTION` of the device's DRAM -- so wide LEN
    configurations stream in proportionally smaller chunks -- and the batch
    is split into at least :data:`AUTO_PIPELINE_DEPTH` chunks so the
    pipeline's fill and drain stages stay a small share of the total.
    """

    enabled: bool = False
    chunk_rows: Optional[int] = DEFAULT_CHUNK_ROWS

    def __post_init__(self) -> None:
        # Validate at construction: ``chunk_rows=0`` used to survive until
        # a falsy-or re-defaulted it deep in the cost model (the same bug
        # class as the ``simulate_rows=0`` fix) -- fail loudly instead.
        if self.chunk_rows is not None and self.chunk_rows < 1:
            raise ExecutionError(
                f"chunk_rows must be >= 1 (got {self.chunk_rows}); "
                "use chunk_rows=None for auto-sizing"
            )

    def resolve_chunk_rows(
        self, kernel: ir.KernelIR, device: GpuDevice, tuples: Optional[int] = None
    ) -> int:
        """Rows per chunk for one kernel (explicit, or auto-sized)."""
        if self.chunk_rows is not None:
            return self.chunk_rows
        # Double-buffered inputs (copy of chunk N+1 overlaps compute on N)
        # plus the result column written back.
        profile = kernel_profile(kernel, device)
        bytes_per_row = 2 * profile.bytes_read_per_tuple + profile.bytes_written_per_tuple
        budget = AUTO_MEMORY_FRACTION * device.memory_bytes
        rows = int(budget / max(bytes_per_row, 1))
        if tuples is not None:
            rows = min(rows, math.ceil(tuples / AUTO_PIPELINE_DEPTH))
        return max(MIN_AUTO_CHUNK_ROWS, rows)


@dataclass(frozen=True)
class StreamTiming:
    """The pipelined-vs-serial time model of one chunked execution."""

    chunks: int
    transfer_seconds_per_chunk: float
    kernel_seconds_per_chunk: float

    @property
    def kernel_seconds(self) -> float:
        """Compute summed over the chunks (no transfer)."""
        return self.kernel_seconds_per_chunk * self.chunks

    @property
    def serial_seconds(self) -> float:
        return self.chunks * (
            self.transfer_seconds_per_chunk + self.kernel_seconds_per_chunk
        )

    @property
    def pipelined_seconds(self) -> float:
        if self.chunks == 0:
            return 0.0
        transfer = self.transfer_seconds_per_chunk
        compute = self.kernel_seconds_per_chunk
        return transfer + max(transfer, compute) * (self.chunks - 1) + compute

    @property
    def overlap_speedup(self) -> float:
        if self.pipelined_seconds == 0:
            return 1.0
        return self.serial_seconds / self.pipelined_seconds


def stream_timing(
    kernel: ir.KernelIR,
    simulate_tuples: int,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    device: GpuDevice = DEFAULT_DEVICE,
    transfer_bytes: Optional[int] = None,
) -> StreamTiming:
    """Time model of a chunked execution, without running the data plane.

    ``transfer_bytes`` overrides the host-to-device payload (the engine
    passes only the bytes of columns not already resident on the device);
    the default ships every kernel input column in full.
    """
    if chunk_rows < 1:
        raise ExecutionError("chunk_rows must be positive")
    if simulate_tuples <= 0:
        return StreamTiming(0, 0.0, 0.0)
    chunks = max(1, math.ceil(simulate_tuples / chunk_rows))
    rows_per_chunk = simulate_tuples / chunks
    if transfer_bytes is None:
        bytes_per_tuple = sum(
            spec.compact_bytes for spec in kernel.input_columns.values()
        )
        transfer_bytes = int(bytes_per_tuple * simulate_tuples)
    transfer = pcie_time(int(transfer_bytes / chunks), device)
    compute = kernel_time(kernel, int(rows_per_chunk), device).seconds
    return StreamTiming(chunks, transfer, compute)


def execute_streamed(
    kernel: ir.KernelIR,
    columns: Mapping[str, Union[np.ndarray, DecimalVector]],
    tuples: int,
    simulate_tuples: int,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    device: GpuDevice = DEFAULT_DEVICE,
    transfer_bytes: Optional[int] = None,
) -> Tuple[DecimalVector, StreamTiming]:
    """Run a kernel once and charge it as a chunked, pipelined launch.

    The ``tuples`` real rows go through one :func:`execute` call; the
    returned :class:`StreamTiming` splits ``simulate_tuples`` into
    ``chunk_rows`` chunks (see :func:`stream_timing`).  An empty input
    (``tuples=0``) charges nothing: ``chunks=0`` and zero timings.
    """
    if chunk_rows < 1:
        raise ExecutionError("chunk_rows must be positive")
    if tuples == 0:
        timing = StreamTiming(0, 0.0, 0.0)
    else:
        timing = stream_timing(
            kernel, simulate_tuples, chunk_rows, device, transfer_bytes=transfer_bytes
        )
    return execute(kernel, columns, tuples, device=device).result, timing
