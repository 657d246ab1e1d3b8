"""Extension: chunked streaming execution across the Figure 14(b) LEN sweep.

Runs TPC-H Q1 on the serial path and on the chunked streaming path
(:class:`repro.gpusim.streaming.StreamingConfig`), asserting bit-exact
results, pipelined-beats-serial per-kernel timings, and overlap speedups
above 1x for the transfer-bound LEN points.
"""

import pytest

from conftest import emit
from repro.bench.experiments import ext_streaming
from repro.core.decimal.context import DecimalSpec
from repro.core.decimal.vectorized import DecimalVector
from repro.core.jit import compile_expression
from repro.engine import Database
from repro.gpusim.streaming import StreamingConfig, execute_streamed
from repro.storage import tpch
from repro.workloads.tpch_queries import Q1_SQL


@pytest.fixture(scope="module")
def experiment():
    return emit(ext_streaming.run(rows=1200))


def test_ext_streaming_overlap(benchmark, experiment):
    spec = DecimalSpec(30, 2)
    compiled = compile_expression("a + b * 2", {"a": spec, "b": spec})
    columns = {
        "a": DecimalVector.from_unscaled([i * 7 - 50 for i in range(200)], spec).to_compact(),
        "b": DecimalVector.from_unscaled([i * 3 + 1 for i in range(200)], spec).to_compact(),
    }
    benchmark(
        lambda: execute_streamed(
            compiled.kernel, columns, 200, simulate_tuples=10_000_000
        )
    )

    overlaps = experiment.column("kernel overlap")
    chunks = experiment.column("chunks")
    end_to_end = experiment.column("end-to-end speedup")
    hot_serial = experiment.column("serial kernel+pcie (ms)")
    hot_streamed = experiment.column("streamed kernel+pcie (ms)")

    # Every LEN point is chunked and no point gets slower end to end.
    assert all(c > 1 for c in chunks)
    assert all(s >= 1.0 for s in end_to_end)
    # The streamed kernels beat their serial equivalent at every LEN, and
    # by more than 1x where the pipeline is transfer-bound (the low-LEN
    # points, whose cheap kernels hide entirely under the PCIe copies).
    assert all(o > 1.0 for o in overlaps)
    assert overlaps[0] > 1.2
    # The kernel+PCIe hot path the streaming targets gets strictly faster.
    assert all(st < se for st, se in zip(hot_streamed, hot_serial))


def test_ext_streaming_bit_exact_end_to_end(benchmark):
    relation = tpch.lineitem_for_len(4, rows=900, seed=7)
    serial_db = Database(simulate_rows=10_000_000)
    serial_db.register(relation)
    streamed_db = Database(
        simulate_rows=10_000_000,
        streaming=StreamingConfig(enabled=True, chunk_rows=1_000_000),
    )
    streamed_db.register(relation)

    serial = serial_db.execute(Q1_SQL, include_scan=False)

    def run_streamed():
        streamed_db.kernel_cache.clear()
        return streamed_db.execute(Q1_SQL, include_scan=False)

    streamed = benchmark(run_streamed)
    assert streamed.rows == serial.rows
    for entry in streamed.report.streamed_kernels:
        assert entry.timing.chunks > 1
        assert entry.timing.pipelined_seconds < entry.timing.serial_seconds
