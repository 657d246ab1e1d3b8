"""Nsight-Compute-style kernel profiles (paper section IV-A).

The paper profiles ``a + b`` and ``a * b`` kernels and reports SM
utilisation vs warp occupancy -- the evidence that simple decimal
arithmetic is memory-bound and that the compact representation pays off.
This module renders the same two numbers for any simulated kernel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.jit import ir
from repro.gpusim.device import DEFAULT_DEVICE, GpuDevice
from repro.gpusim.streaming import DEFAULT_CHUNK_ROWS, StreamTiming, stream_timing
from repro.gpusim.timing import kernel_time


@dataclass(frozen=True)
class KernelProfile:
    """The headline Nsight numbers for one kernel."""

    kernel_name: str
    warp_occupancy_percent: float
    sm_utilization_percent: float
    memory_bound: bool
    cycles_per_tuple: float
    bytes_per_tuple: int

    def __str__(self) -> str:
        bound = "memory" if self.memory_bound else "compute"
        return (
            f"{self.kernel_name}: occupancy {self.warp_occupancy_percent:.0f}%, "
            f"SM util {self.sm_utilization_percent:.2f}%, {bound}-bound, "
            f"{self.cycles_per_tuple:.0f} cycles/tuple, {self.bytes_per_tuple} B/tuple"
        )


def profile_kernel(
    kernel: ir.KernelIR,
    tuples: int = 10_000_000,
    device: GpuDevice = DEFAULT_DEVICE,
) -> KernelProfile:
    """Profile a kernel the way Nsight Compute reports it."""
    timing = kernel_time(kernel, tuples, device)
    return KernelProfile(
        kernel_name=kernel.name,
        warp_occupancy_percent=timing.occupancy.percent,
        sm_utilization_percent=100.0 * timing.sm_utilization,
        memory_bound=timing.memory_bound,
        cycles_per_tuple=timing.cycles_per_tuple,
        bytes_per_tuple=timing.memory_profile.bytes_per_tuple,
    )


@dataclass(frozen=True)
class StreamedKernelProfile:
    """A kernel's chunked-execution profile: the Nsight 'streams' view."""

    profile: KernelProfile
    timing: StreamTiming

    def __str__(self) -> str:
        timing = self.timing
        transfer_bound = timing.transfer_seconds_per_chunk >= timing.kernel_seconds_per_chunk
        stage = "transfer" if transfer_bound else "compute"
        return (
            f"{self.profile}\n"
            f"  streamed x{timing.chunks}: serial {timing.serial_seconds * 1e3:.2f} ms -> "
            f"pipelined {timing.pipelined_seconds * 1e3:.2f} ms "
            f"({timing.overlap_speedup:.2f}x, {stage}-limited pipeline)"
        )


@dataclass(frozen=True)
class DataPlaneMeasurement:
    """Measured wall-clock of one kernel's data plane over real columns.

    Complements the simulated numbers: :class:`KernelProfile` says what the
    modelled GPU *would* take, this says what the numpy limb arithmetic in
    this process *did* take to produce the bit-exact result.
    """

    kernel_name: str
    rows: int
    seconds: float
    rows_per_second: float

    def __str__(self) -> str:
        return (
            f"{self.kernel_name}: data plane {self.seconds * 1e3:.2f} ms over "
            f"{self.rows:,} rows ({self.rows_per_second:,.0f} rows/s)"
        )


def measure_data_plane(
    kernel: ir.KernelIR,
    inputs: Dict[str, np.ndarray],
    rows: int,
    device: GpuDevice = DEFAULT_DEVICE,
    repeats: int = 1,
) -> DataPlaneMeasurement:
    """Run a kernel's data plane over real compact columns and time it.

    ``inputs`` maps the kernel's input column names to their ``(N, Lb)``
    compact byte matrices.  Best-of-``repeats`` wall clock; the simulated
    timing the executor also produces is discarded here.
    """
    from repro.gpusim import executor as gpu_executor

    best = float("inf")
    for _ in range(max(repeats, 1)):
        started = time.perf_counter()
        gpu_executor.execute(kernel, inputs, rows, device=device, simulate_tuples=max(rows, 1))
        best = min(best, time.perf_counter() - started)
    return DataPlaneMeasurement(
        kernel_name=kernel.name,
        rows=rows,
        seconds=best,
        rows_per_second=rows / best if best > 0 else float("inf"),
    )


def profile_kernel_streamed(
    kernel: ir.KernelIR,
    tuples: int = 10_000_000,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    device: GpuDevice = DEFAULT_DEVICE,
    transfer_bytes: Optional[int] = None,
) -> StreamedKernelProfile:
    """Profile a kernel's chunked execution: per-chunk stages + overlap."""
    return StreamedKernelProfile(
        profile=profile_kernel(kernel, tuples, device),
        timing=stream_timing(kernel, tuples, chunk_rows, device, transfer_bytes=transfer_bytes),
    )
