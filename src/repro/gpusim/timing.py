"""Timing model for simulated kernels and queries.

``kernel_time`` = compute + memory + launch overhead (additive, not a
roofline max; :attr:`KernelTiming.seconds` says why), where

* compute = per-tuple PTX issue cycles (section III-C expansions) divided by
  the device's integer throughput, derated when occupancy is too low to
  hide latency;
* memory = compact bytes moved divided by effective DRAM bandwidth
  (peak x efficiency x coalescing factor, derated the same way).

Only the tuple count varies between launches of one kernel on one device:
the cycles, occupancy, memory profile and both divisors are a
:class:`KernelCostProfile`, computed on the kernel's first pricing for a
device and kept on the kernel (:func:`kernel_profile`).

Query-level costs add PCIe transfers (GPU databases in the paper include
them), the JIT compilation model (~320-423 ms for TPC-H Q1, section
IV-D1), and a host-side disk scan when the experiment includes I/O.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.jit import ir
from repro.gpusim import memory, occupancy, ptx
from repro.gpusim.device import DEFAULT_DEVICE, DEFAULT_HOST, GpuDevice, HostSystem


@dataclass
class KernelTiming:
    """Timing breakdown of one kernel launch over N tuples."""

    tuples: int
    cycles_per_tuple: float
    compute_seconds: float
    memory_seconds: float
    launch_seconds: float
    occupancy: occupancy.Occupancy
    memory_profile: memory.MemoryProfile

    @property
    def seconds(self) -> float:
        """Elapsed time: memory plus compute plus launch.

        At the occupancies these kernels run at (Nsight shows ~50-100%
        occupancy but single-digit SM utilisation), loads and dependent
        arithmetic serialise rather than overlap, so the additive model
        matches the paper's measured sensitivity to instruction-count
        optimisations (Figures 10-12) better than a pure roofline max.
        """
        return self.compute_seconds + self.memory_seconds + self.launch_seconds

    @property
    def memory_bound(self) -> bool:
        return self.memory_seconds >= self.compute_seconds

    @property
    def sm_utilization(self) -> float:
        """Fraction of integer-issue slots used -- the Nsight 'SM %' figure.

        For a memory-bound kernel the ALUs idle while loads complete, so
        utilisation is the compute share of the elapsed time.
        """
        if self.seconds <= 0:
            return 0.0
        return min(1.0, self.compute_seconds / self.seconds)


#: Fixed per-tuple loop overhead: index math, bounds test, grid-stride
#: increment (the scaffolding of Listing 1's for-loop).
LOOP_OVERHEAD_CYCLES = 18.0

#: Address arithmetic per global load/store sequence.
ADDRESS_CYCLES = 6.0


#: Per-digit-per-word cost of converting a literal to DECIMAL at runtime
#: (the Figure 11 baseline): a parse/multiply-by-ten step over the full
#: ``Decimal<N>`` template array for each digit of the constant.
RUNTIME_CONST_CYCLES_PER_DIGIT_WORD = 7.0


def tuple_cycles(kernel: ir.KernelIR) -> float:
    """PTX issue cycles needed to process one tuple (all TPI threads)."""
    counts = ptx.PtxCounts()
    extra = LOOP_OVERHEAD_CYCLES
    for instruction in kernel.instructions:
        if isinstance(instruction, (ir.LoadColumn, ir.StoreResult)):
            extra += ADDRESS_CYCLES
        if isinstance(instruction, ir.LoadConst) and instruction.runtime_convert:
            # Constants occupy the kernel's template width (Listing 1), so
            # per-tuple conversion + alignment walks the full result array.
            digits = instruction.spec.precision + max(
                kernel.result_spec.scale - instruction.spec.scale, 0
            )
            extra += (
                RUNTIME_CONST_CYCLES_PER_DIGIT_WORD * digits * kernel.result_spec.words
            )
        if kernel.tpi > 1 and isinstance(instruction, (ir.DivOp, ir.ModOp)):
            counts.merge(newton_raphson_div_counts(instruction.spec.words))
        elif isinstance(instruction, ir.Align):
            # Alignments run the generic Decimal<N> multiply at the
            # kernel's template width (Listing 1 instantiates every
            # intermediate at the result's N).
            width = max(instruction.spec.words, kernel.result_spec.words)
            counts.merge(ptx.align_counts_at_width(instruction.exponent, width))
        else:
            counts.merge(ptx.expand(instruction))
    cycles = counts.cycles + extra
    if kernel.tpi > 1:
        cycles += shuffle_cycles(kernel)
    return cycles


def newton_raphson_div_counts(out_words: int) -> ptx.PtxCounts:
    """Division cost on the multi-threaded (CGBN) path, section IV-C1.

    Newton-Raphson converges in ~log2(bits) iterations of two full-width
    multiplies -- dramatically cheaper than the single-threaded binary
    search at high precision.
    """
    counts = ptx.PtxCounts()
    bits = 32 * out_words
    iterations = max(4, math.ceil(math.log2(bits)) + 2)
    mul_cost = max(1, out_words // 2) ** 2
    counts.add("mad.lo.u32", 2 * iterations * mul_cost)
    counts.add("mad.hi.u32", 2 * iterations * mul_cost)
    counts.add("addc.cc.u32", 2 * iterations * mul_cost)
    counts.add("setp", iterations)
    counts.add("bfind.u32", 2 * out_words)
    return counts


def shuffle_cycles(kernel: ir.KernelIR) -> float:
    """Inter-thread communication cost of a TPI group per tuple.

    Carries/signs cross thread boundaries on every arithmetic op
    (log2(TPI) shuffle rounds), and multiplications/divisions broadcast
    operand words across the group (section III-E1).
    """
    rounds = math.log2(kernel.tpi)
    cycles = 0.0
    for instruction in kernel.instructions:
        if isinstance(instruction, (ir.AddOp, ir.SubOp, ir.Align)):
            cycles += 2 * rounds * ptx.PTX_CYCLES["shfl.sync"]
        elif isinstance(instruction, (ir.MulOp, ir.DivOp, ir.ModOp)):
            cycles += kernel.tpi * ptx.PTX_CYCLES["shfl.sync"]
    return cycles * kernel.tpi  # cost is paid by every thread in the group


@dataclass(frozen=True)
class KernelCostProfile:
    """Everything that prices one kernel on one device except the tuple count.

    ``compute_rate`` and ``bandwidth`` are the divisors of the compute and
    memory terms: integer ops per second and effective DRAM bytes per
    second, both derated by the same latency-hiding factor of the
    occupancy.  The byte counts are compact bytes per tuple.
    """

    cycles_per_tuple: float
    occupancy: occupancy.Occupancy
    memory_profile: memory.MemoryProfile
    compute_rate: float
    bandwidth: float
    bytes_read_per_tuple: int
    bytes_written_per_tuple: int


def kernel_profile(
    kernel: ir.KernelIR, device: GpuDevice = DEFAULT_DEVICE
) -> KernelCostProfile:
    """The kernel's cost profile on ``device``, computed on first use.

    Kept in ``kernel.profiles`` keyed by device.  Reader threads may race
    the first fill: each computes an equal profile, and one assignment
    publishes it.
    """
    profile = kernel.profiles.get(device)
    if profile is None:
        occ = occupancy.compute(kernel, device)
        traffic = kernel.traffic()
        mem = memory.traffic_profile(traffic, kernel.tpi)
        latency_hiding = min(1.0, occ.occupancy / (0.5 * device.latency_hiding_knee))
        profile = KernelCostProfile(
            cycles_per_tuple=tuple_cycles(kernel),
            occupancy=occ,
            memory_profile=mem,
            compute_rate=device.int_throughput * latency_hiding,
            bandwidth=(
                device.dram_bandwidth * device.dram_efficiency * mem.coalescing * latency_hiding
            ),
            bytes_read_per_tuple=traffic.bytes_read,
            bytes_written_per_tuple=traffic.bytes_written,
        )
        kernel.profiles[device] = profile
    return profile


def kernel_time(
    kernel: ir.KernelIR, tuples: int, device: GpuDevice = DEFAULT_DEVICE
) -> KernelTiming:
    """Simulated wall time of one kernel launch over ``tuples`` tuples."""
    profile = kernel_profile(kernel, device)
    return KernelTiming(
        tuples=tuples,
        cycles_per_tuple=profile.cycles_per_tuple,
        compute_seconds=tuples * profile.cycles_per_tuple / profile.compute_rate,
        memory_seconds=profile.memory_profile.total_bytes(tuples) / profile.bandwidth,
        launch_seconds=device.kernel_launch_overhead,
        occupancy=profile.occupancy,
        memory_profile=profile.memory_profile,
    )


def pcie_time(bytes_moved: int, device: GpuDevice = DEFAULT_DEVICE) -> float:
    """Host<->device transfer time for a payload."""
    if bytes_moved <= 0:
        return 0.0
    return device.pcie_latency + bytes_moved / device.pcie_bandwidth


#: Fraction of streaming DRAM efficiency a hash build/probe sustains: the
#: accesses are random (bucket chasing), not coalesced sequential reads.
HASH_ACCESS_EFFICIENCY = 0.25

#: Bytes touched per tuple in a join's key pass: the key plus a slot
#: pointer on the hash path, the packed key array on the nested-loop path.
JOIN_KEY_BYTES = 12.0
NESTED_LOOP_KEY_BYTES = 8.0


def dram_pass_time(
    bytes_moved: float, device: GpuDevice = DEFAULT_DEVICE, random_access: bool = False
) -> float:
    """One device-side pass over ``bytes_moved`` (no launch overhead).

    ``random_access`` derates the streaming bandwidth by
    :data:`HASH_ACCESS_EFFICIENCY` (hash-table builds/probes).
    """
    bandwidth = device.dram_bandwidth * device.dram_efficiency
    if random_access:
        bandwidth *= HASH_ACCESS_EFFICIENCY
    return bytes_moved / bandwidth


def sort_passes(rows: float) -> int:
    """Key passes of the device sort over ``rows`` tuples:
    ``log2(rows) / 8`` rounded down, at least one."""
    return max(1, int(math.log2(max(rows, 2)) / 8))


#: Effective bandwidth of the grouped-aggregation data reorganisation:
#: segment gather/scatter of wide decimal payloads after the key sort is
#: far from streaming speed.  Calibrated on Figure 14(b)'s Q1 LEN sweep.
GROUP_GATHER_BANDWIDTH = 4.0e9


def hash_join_time(
    left_tuples: float, right_tuples: float, device: GpuDevice = DEFAULT_DEVICE
) -> float:
    """Build over the right side plus probe over the left, both at
    hash-table (random access) bandwidth, one launch per pass."""
    return (
        dram_pass_time((left_tuples + right_tuples) * JOIN_KEY_BYTES, device, random_access=True)
        + device.kernel_launch_overhead
    )


def nested_loop_join_time(
    left_tuples: float, right_tuples: float, device: GpuDevice = DEFAULT_DEVICE
) -> float:
    """Every probe tuple streams the whole build array: no build pass and a
    single launch, but O(left x right) sequential key traffic -- only wins
    when the build side is tiny (cf. "On GPU Implementation for
    Multi-Precision Integer Division": per-op asymmetries make plan choice
    a cost question, not a fixed shape)."""
    return (
        dram_pass_time(left_tuples * right_tuples * NESTED_LOOP_KEY_BYTES, device)
        + device.kernel_launch_overhead
    )


#: JIT compilation model: NVRTC base latency plus per-IR-op cost.  TPC-H Q1
#: compiles in ~320 ms at LEN=2 rising to ~423 ms at LEN=32 (section IV-D1);
#: the per-op term reflects "the longer code generated".
COMPILE_BASE_SECONDS = 0.260
COMPILE_PER_KERNEL_SECONDS = 0.025
COMPILE_PER_OP_SECONDS = 0.00025


def compile_time(kernels, include_base: bool = True) -> float:
    """Simulated JIT compilation wall time for a set of kernels.

    ``include_base`` charges the one-off NVRTC startup; callers compiling
    several kernels for one query charge it exactly once.
    """
    kernels = list(kernels)
    if not kernels:
        return 0.0
    ops = sum(len(kernel.instructions) * max(1, kernel.result_spec.words // 2) for kernel in kernels)
    return (
        (COMPILE_BASE_SECONDS if include_base else 0.0)
        + COMPILE_PER_KERNEL_SECONDS * len(kernels)
        + COMPILE_PER_OP_SECONDS * ops
    )


def disk_scan_time(bytes_scanned: int, host: HostSystem = DEFAULT_HOST) -> float:
    """Host-side table scan from SSD."""
    return bytes_scanned / host.ssd_bandwidth
