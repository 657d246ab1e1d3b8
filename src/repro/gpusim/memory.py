"""Global-memory traffic and coalescing model.

The paper's profiling (section IV-A) shows simple decimal arithmetic is
memory-bound: SM utilisation of an addition kernel is ~4% while occupancy
is 100%.  Two effects drive the memory behaviour this module models:

* **traffic** -- the compact representation moves ``Lb`` bytes per value
  instead of ``4*Lw + 1``, which is the representation design's win;
* **coalescing** -- with one thread per tuple, each thread reads a long
  contiguous byte run and a warp's accesses spread over many transactions;
  a TPI thread group reads the same words side by side, restoring
  coalescing ("the memory accesses to a value array are coalesced in a
  thread group", section IV-C1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.jit import ir
from repro.gpusim.device import GpuDevice


@dataclass(frozen=True)
class MemoryProfile:
    """Per-kernel global memory behaviour."""

    bytes_per_tuple: int
    coalescing: float  # 0..1 effective-bandwidth factor from access pattern

    def total_bytes(self, tuples: int) -> int:
        return self.bytes_per_tuple * tuples


def coalescing_factor(kernel: ir.KernelIR, device: GpuDevice) -> float:
    """Effective-bandwidth factor of the kernel's access pattern."""
    return _coalescing(kernel.traffic(), kernel.tpi)


def _coalescing(traffic: ir.Traffic, tpi: int) -> float:
    """Effective-bandwidth factor of ``traffic``'s average access width.

    A thread group of TPI threads covers ``4 * TPI`` bytes per coalesced
    transaction slice; accesses wider than that serialise.  The square root
    reflects that consecutive threads still hit neighbouring DRAM rows, so
    the penalty grows sub-linearly with width.  A kernel with no column
    access counts as 4 bytes wide.
    """
    width = 4.0
    if traffic.accesses:
        width = (traffic.bytes_read + traffic.bytes_written) / traffic.accesses
    span = 4.0 * tpi
    if width <= span:
        return 1.0
    return max((span / width) ** 0.5, 0.08)


def profile(kernel: ir.KernelIR, non_compact: bool = False) -> int:
    """Bytes per tuple the kernel moves; optionally in non-compact layout.

    ``non_compact=True`` models the discarded alternative representation
    (section III-B1): every value ships as word-aligned ``4*Lw + 1`` bytes.
    """
    total = 0
    for instruction in kernel.instructions:
        if isinstance(instruction, (ir.LoadColumn, ir.StoreResult)):
            if non_compact:
                total += 4 * instruction.spec.words + 1
            else:
                total += instruction.spec.compact_bytes
    return total


def memory_profile(kernel: ir.KernelIR, device: GpuDevice) -> MemoryProfile:
    """The kernel's compact-layout traffic + coalescing profile."""
    return traffic_profile(kernel.traffic(), kernel.tpi)


def traffic_profile(traffic: ir.Traffic, tpi: int) -> MemoryProfile:
    """The memory profile of a kernel of TPI ``tpi`` that moves ``traffic``."""
    return MemoryProfile(
        bytes_per_tuple=traffic.bytes_read + traffic.bytes_written,
        coalescing=_coalescing(traffic, tpi),
    )
