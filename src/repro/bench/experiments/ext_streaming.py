"""Extension: chunked streaming execution with transfer/compute overlap.

Mirrors the Figure 14(b) harness: TPC-H Q1 across the LEN sweep, executed
once on the serial path (one monolithic H2D transfer, then the kernels)
and once with chunked streaming enabled, where each JIT kernel's input
transfer is split into chunks and overlapped with compute (section V's
GPUDB/HippogriffDB remedy for the PCIe bottleneck).

Reported per LEN: the end-to-end simulated times, the kernel+PCIe hot
path the streaming targets, the per-kernel overlap speedup
(``serial / pipelined`` across the streamed kernels), and the chunk
count.  Bit-exactness is asserted inline: both paths must produce
identical result rows.
"""

from __future__ import annotations

from typing import List

from repro.bench.harness import Experiment
from repro.engine import Database
from repro.gpusim.streaming import StreamingConfig
from repro.storage import tpch
from repro.workloads.tpch_queries import Q1_SQL


def run(
    rows: int = 1500,
    simulate_rows: int = 10_000_000,
    lengths=(2, 4, 8, 16, 32),
    chunk_rows: int = 1_000_000,
) -> Experiment:
    headers = [
        "LEN",
        "serial (s)",
        "streamed (s)",
        "end-to-end speedup",
        "serial kernel+pcie (ms)",
        "streamed kernel+pcie (ms)",
        "kernel overlap",
        "chunks",
    ]
    table: List[List] = []
    for length in lengths:
        relation = tpch.lineitem_for_len(length, rows=rows, seed=7)

        serial_db = Database(simulate_rows=simulate_rows)
        serial_db.register(relation)
        serial = serial_db.execute(Q1_SQL, include_scan=False)

        streamed_db = Database(
            simulate_rows=simulate_rows,
            streaming=StreamingConfig(enabled=True, chunk_rows=chunk_rows),
        )
        streamed_db.register(relation)
        streamed = streamed_db.execute(Q1_SQL, include_scan=False)

        if serial.rows != streamed.rows:
            raise AssertionError(f"streamed Q1 diverged from serial at LEN={length}")

        serial_hot = serial.report.kernel_seconds + serial.report.pcie_seconds
        streamed_hot = streamed.report.kernel_seconds + streamed.report.pcie_seconds
        chunks = max(
            (entry.timing.chunks for entry in streamed.report.streamed_kernels), default=1
        )
        table.append(
            [
                length,
                serial.report.total_seconds,
                streamed.report.total_seconds,
                serial.report.total_seconds / streamed.report.total_seconds,
                serial_hot * 1e3,
                streamed_hot * 1e3,
                streamed.report.overlap_speedup,
                chunks,
            ]
        )
    return Experiment(
        experiment_id="ext_streaming",
        title="Chunked streaming: TPC-H Q1 serial vs pipelined transfer/compute",
        headers=headers,
        rows=table,
        notes=[
            f"{rows} real rows per LEN, timing charged at {simulate_rows:,} tuples; "
            f"chunk_rows={chunk_rows:,}; scan excluded as in Figure 14(b)",
            "kernel overlap = sum(serial)/sum(pipelined) over the streamed JIT "
            "kernels; chunked results are asserted bit-exact against serial",
        ],
    )
