"""SIMT GPU simulator: device model, PTX costing, executor, profiler.

This package substitutes for the RTX A6000 the paper evaluates on.  The
data plane executes kernel IR bit-exactly with vectorised decimal
arithmetic; the control plane prices each launch with a roofline model
(PTX issue cycles vs compact-representation memory traffic), plus PCIe,
JIT-compilation and disk-scan terms for query-level timing.
"""

from repro.gpusim.device import DEFAULT_DEVICE, DEFAULT_HOST, GpuDevice, HostSystem
from repro.gpusim.executor import KernelRun, execute
from repro.gpusim.occupancy import Occupancy
from repro.gpusim.profiler import (
    KernelProfile,
    StreamedKernelProfile,
    profile_kernel,
    profile_kernel_streamed,
)
from repro.gpusim.streaming import (
    StreamingConfig,
    StreamTiming,
    execute_streamed,
    stream_timing,
)
from repro.gpusim.timing import (
    KernelTiming,
    compile_time,
    disk_scan_time,
    kernel_time,
    pcie_time,
)

__all__ = [
    "DEFAULT_DEVICE",
    "DEFAULT_HOST",
    "GpuDevice",
    "HostSystem",
    "KernelProfile",
    "KernelRun",
    "KernelTiming",
    "Occupancy",
    "StreamTiming",
    "StreamedKernelProfile",
    "StreamingConfig",
    "compile_time",
    "disk_scan_time",
    "execute",
    "execute_streamed",
    "kernel_time",
    "pcie_time",
    "profile_kernel",
    "profile_kernel_streamed",
    "stream_timing",
]
