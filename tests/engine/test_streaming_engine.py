"""Engine-level tests for the chunked streaming execution path."""

import pytest

from repro.core.decimal.context import DecimalSpec
from repro.engine import Database
from repro.gpusim.streaming import StreamingConfig
from repro.storage import Column, Relation
from repro.storage.datagen import decimal_column


def make_relation(rows=120):
    spec_a = DecimalSpec(12, 2)
    spec_b = DecimalSpec(10, 3)
    return Relation(
        "r",
        [
            decimal_column("a", spec_a, rows, seed=21),
            decimal_column("b", spec_b, rows, seed=22),
            Column.chars("g", ["X" if i % 3 else "Y" for i in range(rows)], 1),
        ],
    )


def make_pair(rows=120, simulate=10_000_000, chunk_rows=1_000_000):
    relation = make_relation(rows)
    serial = Database(simulate_rows=simulate)
    serial.register(relation)
    streamed = Database(
        simulate_rows=simulate,
        streaming=StreamingConfig(enabled=True, chunk_rows=chunk_rows),
    )
    streamed.register(relation)
    return serial, streamed


class TestBitExactness:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a + b FROM r",
            "SELECT a * b FROM r",
            "SELECT a / b FROM r",
            "SELECT a * (1 - b) FROM r",
        ],
    )
    @pytest.mark.parametrize("chunk_rows", [400_000, 1_000_000, 20_000_000])
    def test_projection_matches_serial(self, sql, chunk_rows):
        """Chunked engine results equal unchunked, including chunk_rows
        larger than the simulated batch (a single chunk)."""
        serial, streamed = make_pair(chunk_rows=chunk_rows)
        assert streamed.execute(sql).rows == serial.execute(sql).rows

    def test_group_aggregation_matches_serial(self):
        serial, streamed = make_pair()
        sql = "SELECT g, SUM(a * b), COUNT(*) FROM r GROUP BY g ORDER BY g"
        assert streamed.execute(sql).rows == serial.execute(sql).rows

    def test_empty_batch_after_filter(self):
        """A kernel over zero rows is a valid no-op on the streamed path."""
        _, streamed = make_pair()
        result = streamed.execute("SELECT a * b FROM r WHERE a > 0 AND a < 0")
        assert result.rows == []


class TestReport:
    def test_per_kernel_stream_stats(self):
        serial, streamed = make_pair()
        sql = "SELECT a * (1 - b) FROM r"
        serial_report = serial.execute(sql, include_scan=False).report
        streamed_report = streamed.execute(sql, include_scan=False).report

        entries = streamed_report.streamed_kernels
        assert entries, "streamed run must record per-kernel executions"
        for entry in entries:
            assert entry.timing.chunks > 1
            assert entry.timing.pipelined_seconds < entry.timing.serial_seconds
            assert entry.timing.overlap_speedup > 1.0
        assert streamed_report.overlap_speedup > 1.0
        # The pipelined total undercuts the serial engine's total.
        assert streamed_report.total_seconds < serial_report.total_seconds

    def test_serial_path_records_unstreamed_entries(self):
        serial, _ = make_pair()
        report = serial.execute("SELECT a + b FROM r").report
        assert report.kernel_executions
        for entry in report.kernel_executions:
            assert not entry.streamed
            assert entry.timing.chunks == 1
            assert entry.timing.pipelined_seconds == entry.timing.serial_seconds
        assert report.streamed_kernels == []
        assert report.overlap_speedup == 1.0

    def test_transfer_not_double_charged(self):
        """Kernel-consumed columns must not also be flushed serially: the
        streamed PCIe total stays at or below the serial PCIe total."""
        serial, streamed = make_pair()
        sql = "SELECT a * b FROM r"
        serial_pcie = serial.execute(sql, include_scan=False).report.pcie_seconds
        streamed_pcie = streamed.execute(sql, include_scan=False).report.pcie_seconds
        assert streamed_pcie <= serial_pcie

    def test_transfer_flushed_when_no_kernel_consumes_it(self):
        """Columns only touched by filters/keys still reach the device."""
        _, streamed = make_pair()
        report = streamed.execute(
            "SELECT COUNT(*) FROM r WHERE a > 0", include_scan=False
        ).report
        assert report.pcie_seconds > 0.0

    def test_per_query_streaming_override(self):
        serial, _ = make_pair()
        report = serial.execute(
            "SELECT a + b FROM r",
            streaming=StreamingConfig(enabled=True, chunk_rows=1_000_000),
        ).report
        assert report.streamed_kernels


class TestSimulateRowsResolution:
    def test_explicit_zero_is_honoured(self):
        """Regression: simulate_rows=0 used to fall through a falsy-or
        chain to the database default."""
        db = Database(simulate_rows=5_000_000)
        db.register(make_relation())
        report = db.execute("SELECT a + b FROM r", simulate_rows=0).report
        assert report.simulated_rows == 0
        assert report.scan_seconds == 0.0
        assert report.pcie_seconds == 0.0

    def test_database_zero_is_honoured(self):
        db = Database(simulate_rows=0)
        db.register(make_relation())
        assert db.execute("SELECT a + b FROM r").report.simulated_rows == 0

    def test_fallback_chain(self):
        relation = make_relation(rows=77)
        db = Database()  # no default -> charge actual rows
        db.register(relation)
        assert db.execute("SELECT a FROM r").report.simulated_rows == 77
        db2 = Database(simulate_rows=1_000)
        db2.register(relation)
        assert db2.execute("SELECT a FROM r").report.simulated_rows == 1_000
        assert (
            db2.execute("SELECT a FROM r", simulate_rows=42).report.simulated_rows
            == 42
        )


class TestExplainStreaming:
    def test_explain_surfaces_chunking(self):
        _, streamed = make_pair()
        result = streamed.explain("SELECT a * (1 - b) FROM r")
        kernels = [k for k in result.kernels if k.timing is not None]
        assert kernels
        for kernel in kernels:
            assert kernel.timing.chunks > 1
            assert kernel.timing.pipelined_seconds < kernel.timing.serial_seconds
            assert kernel.timing.overlap_speedup > 1.0
        assert "streamed:" in result.format()

    def test_explain_serial_has_no_stream_lines(self):
        serial, _ = make_pair()
        result = serial.explain("SELECT a * (1 - b) FROM r")
        assert all(k.timing is None for k in result.kernels)
        assert "streamed:" not in result.format()
