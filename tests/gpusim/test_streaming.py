"""Tests for chunked execution with transfer/compute overlap."""

import pytest

from repro.core.decimal.context import DecimalSpec
from repro.core.decimal.vectorized import DecimalVector
from repro.core.jit import compile_expression
from repro.errors import ExecutionError
from repro.gpusim import execute
from repro.gpusim.device import GpuDevice
from repro.gpusim.streaming import (
    AUTO_MEMORY_FRACTION,
    MIN_AUTO_CHUNK_ROWS,
    StreamingConfig,
    execute_streamed,
    stream_timing,
)

SPEC = DecimalSpec(30, 2)


def setup(rows=100):
    schema = {"a": SPEC, "b": SPEC}
    compiled = compile_expression("a + b * 2", schema)
    values_a = [i * 7 - 50 for i in range(rows)]
    values_b = [i * 3 + 1 for i in range(rows)]
    columns = {
        "a": DecimalVector.from_unscaled(values_a, SPEC).to_compact(),
        "b": DecimalVector.from_unscaled(values_b, SPEC).to_compact(),
    }
    expected = [a + 2 * b for a, b in zip(values_a, values_b)]
    return compiled.kernel, columns, expected


class TestCorrectness:
    def test_matches_monolithic(self):
        kernel, columns, expected = setup(rows=100)
        result, timing = execute_streamed(
            kernel, columns, 100, simulate_tuples=10_000_000, chunk_rows=1_000_000
        )
        assert result.to_unscaled() == expected
        assert timing.chunks == 10

    def test_single_chunk(self):
        kernel, columns, expected = setup(rows=10)
        result, timing = execute_streamed(kernel, columns, 10, simulate_tuples=500_000)
        assert timing.chunks == 1
        assert result.to_unscaled() == expected

    def test_uneven_chunks(self):
        kernel, columns, expected = setup(rows=97)
        result, _ = execute_streamed(
            kernel, columns, 97, simulate_tuples=10_000_000, chunk_rows=3_000_000
        )
        assert result.to_unscaled() == expected

    def test_bad_chunk_rows(self):
        kernel, columns, _ = setup(rows=5)
        with pytest.raises(ExecutionError):
            execute_streamed(kernel, columns, 5, simulate_tuples=10, chunk_rows=0)

    def test_chunk_rows_larger_than_tuples(self):
        kernel, columns, expected = setup(rows=7)
        result, timing = execute_streamed(
            kernel, columns, 7, simulate_tuples=7, chunk_rows=1_000_000
        )
        assert timing.chunks == 1
        assert result.to_unscaled() == expected

    def test_empty_input_is_a_valid_noop(self):
        """tuples=0 returns an empty result and a zero charge, not an
        ExecutionError."""
        kernel, columns, _ = setup(rows=5)
        empty = {name: data[:0] for name, data in columns.items()}
        result, timing = execute_streamed(kernel, empty, 0, simulate_tuples=0)
        assert timing.chunks == 0
        assert result.to_unscaled() == []
        assert result.spec == kernel.result_spec
        assert timing.serial_seconds == 0.0
        assert timing.pipelined_seconds == 0.0
        assert timing.overlap_speedup == 1.0

    @pytest.mark.parametrize("expression", ["a + b", "a * b", "a / b"])
    @pytest.mark.parametrize("chunk_rows", [1, 3, 10, 64, 1_000])
    def test_bit_exact_across_kernels_and_chunk_sizes(self, expression, chunk_rows):
        """Streamed results equal the plain launch for add/mul/div kernels."""
        spec = DecimalSpec(20, 2)
        schema = {"a": spec, "b": spec}
        compiled = compile_expression(expression, schema)
        rows = 53
        values_a = [i * 101 - 2_500 for i in range(rows)]
        values_b = [i * 13 + 7 for i in range(rows)]  # never zero
        columns = {
            "a": DecimalVector.from_unscaled(values_a, spec).to_compact(),
            "b": DecimalVector.from_unscaled(values_b, spec).to_compact(),
        }
        monolithic = execute(compiled.kernel, columns, rows)
        streamed, _ = execute_streamed(
            compiled.kernel,
            columns,
            rows,
            simulate_tuples=rows,
            chunk_rows=chunk_rows,
        )
        assert streamed.to_unscaled() == monolithic.result.to_unscaled()
        assert streamed.spec == monolithic.result.spec


class TestOverlapModel:
    def test_pipelining_beats_serial(self):
        kernel, columns, _ = setup(rows=20)
        _, timing = execute_streamed(
            kernel, columns, 20, simulate_tuples=10_000_000, chunk_rows=1_000_000
        )
        assert timing.pipelined_seconds < timing.serial_seconds
        assert timing.overlap_speedup > 1.1

    def test_balanced_stages_approach_2x(self):
        """When transfer and kernel times balance, overlap nears 2x."""
        # Wide multiplication: the kernel's device-memory time (reads plus
        # the 32-word product write-back) balances the input PCIe transfer.
        spec = DecimalSpec(153, 2)
        schema = {"a": spec, "b": spec}
        compiled = compile_expression("a * b", schema)
        values = [10**100 + i for i in range(8)]
        divisors = [10**99 + 7 * i + 1 for i in range(8)]
        columns = {
            "a": DecimalVector.from_unscaled(values, spec).to_compact(),
            "b": DecimalVector.from_unscaled(divisors, spec).to_compact(),
        }
        _, timing = execute_streamed(
            compiled.kernel, columns, 8, simulate_tuples=20_000_000, chunk_rows=1_000_000
        )
        assert timing.overlap_speedup > 1.5

    def test_speedup_bounded_by_two(self):
        # Perfect two-stage pipelining can at most halve the time.
        kernel, columns, _ = setup(rows=20)
        _, timing = execute_streamed(
            kernel, columns, 20, simulate_tuples=20_000_000, chunk_rows=1_000_000
        )
        assert timing.overlap_speedup <= 2.0 + 1e-9

    def test_one_chunk_has_no_overlap(self):
        kernel, columns, _ = setup(rows=20)
        _, timing = execute_streamed(kernel, columns, 20, simulate_tuples=100_000)
        assert timing.pipelined_seconds == pytest.approx(timing.serial_seconds)

    def test_transfer_bytes_override(self):
        """transfer_bytes=0 models already-resident inputs: no PCIe stage."""
        kernel, columns, _ = setup(rows=20)
        _, timing = execute_streamed(
            kernel,
            columns,
            20,
            simulate_tuples=10_000_000,
            chunk_rows=1_000_000,
            transfer_bytes=0,
        )
        assert timing.transfer_seconds_per_chunk == 0.0
        assert timing.pipelined_seconds == pytest.approx(timing.kernel_seconds)
        assert timing.serial_seconds == pytest.approx(timing.pipelined_seconds)


class TestStreamingConfig:
    def test_explicit_chunk_rows_win(self):
        kernel, _, _ = setup(rows=5)
        config = StreamingConfig(enabled=True, chunk_rows=123_456)
        assert config.resolve_chunk_rows(kernel, GpuDevice()) == 123_456

    def test_auto_sizing_respects_memory_budget(self):
        kernel, _, _ = setup(rows=5)
        config = StreamingConfig(enabled=True, chunk_rows=None)
        small = GpuDevice(memory_bytes=64e6)
        big = GpuDevice(memory_bytes=48e9)
        assert config.resolve_chunk_rows(kernel, small) < config.resolve_chunk_rows(
            kernel, big
        )
        bytes_per_row = (
            2 * kernel.bytes_read_per_tuple + kernel.bytes_written_per_tuple
        )
        rows = config.resolve_chunk_rows(kernel, small)
        assert rows == max(
            MIN_AUTO_CHUNK_ROWS,
            int(AUTO_MEMORY_FRACTION * small.memory_bytes / bytes_per_row),
        )

    def test_auto_sizing_targets_pipeline_depth(self):
        """Even when memory is plentiful, auto mode still chunks the batch."""
        kernel, _, _ = setup(rows=5)
        config = StreamingConfig(enabled=True, chunk_rows=None)
        rows = config.resolve_chunk_rows(kernel, GpuDevice(), tuples=10_000_000)
        timing = stream_timing(kernel, 10_000_000, rows)
        assert timing.chunks > 1

    def test_auto_sizing_floor(self):
        kernel, _, _ = setup(rows=5)
        config = StreamingConfig(enabled=True, chunk_rows=None)
        rows = config.resolve_chunk_rows(kernel, GpuDevice(), tuples=1_000)
        assert rows == MIN_AUTO_CHUNK_ROWS

    def test_bad_explicit_chunk_rows(self):
        kernel, _, _ = setup(rows=5)
        with pytest.raises(ExecutionError):
            StreamingConfig(enabled=True, chunk_rows=0).resolve_chunk_rows(
                kernel, GpuDevice()
            )


class TestStreamedProfiler:
    def test_profile_kernel_streamed(self):
        from repro.gpusim.profiler import profile_kernel_streamed

        kernel, _, _ = setup(rows=5)
        profile = profile_kernel_streamed(
            kernel, tuples=10_000_000, chunk_rows=1_000_000
        )
        assert profile.timing.chunks == 10
        assert profile.timing.pipelined_seconds < profile.timing.serial_seconds
        assert profile.timing.overlap_speedup > 1.0
        assert profile.profile.kernel_name == kernel.name
        assert "streamed x10" in str(profile)
