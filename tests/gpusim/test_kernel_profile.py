"""Each kernel is priced from a profile computed once per device.

``kernel_time`` reads the kernel's :class:`KernelCostProfile` (cycles,
occupancy, memory profile and the two divisors) and does only the
tuple-dependent multiplications and divisions, so every launch prices
exactly as the full formula did; only the first pricing of a kernel on a
device walks its instructions.
"""

import dataclasses
import sys
import threading
from unittest import mock

import pytest

from repro.analysis import analyze_kernel
from repro.core.decimal.context import DecimalSpec
from repro.core.jit import codegen, ir, pipeline
from repro.core.jit.pipeline import JitOptions, compile_expression
from repro.engine import Database
from repro.gpusim import memory, occupancy
from repro.gpusim import timing as gpu_timing
from repro.gpusim.device import DEFAULT_DEVICE, GpuDevice
from repro.gpusim.streaming import StreamingConfig
from repro.gpusim.timing import KernelTiming, kernel_time
from repro.storage import tpch
from repro.storage.codecs import choose_codec
from repro.workloads import tpch_queries

TUPLES = (1, 7, 65_536, 1_000_000, 10_000_000)

#: A second device whose every divisor differs from the default's.
HALF_DEVICE = GpuDevice(sm_count=42, registers_per_sm=32768, dram_bandwidth=384e9)


def reference_timing(kernel, tuples, device=DEFAULT_DEVICE) -> KernelTiming:
    """The launch formula as it stood before profiles, step for step."""
    occ = occupancy.compute(kernel, device)
    mem = memory.memory_profile(kernel, device)
    cycles = gpu_timing.tuple_cycles(kernel)

    latency_hiding = min(1.0, occ.occupancy / (0.5 * device.latency_hiding_knee))
    compute_seconds = tuples * cycles / (device.int_throughput * latency_hiding)

    effective_bandwidth = (
        device.dram_bandwidth
        * device.dram_efficiency
        * mem.coalescing
        * min(1.0, occ.occupancy / (0.5 * device.latency_hiding_knee))
    )
    memory_seconds = mem.total_bytes(tuples) / effective_bandwidth
    return KernelTiming(
        tuples=tuples,
        cycles_per_tuple=cycles,
        compute_seconds=compute_seconds,
        memory_seconds=memory_seconds,
        launch_seconds=device.kernel_launch_overhead,
        occupancy=occ,
        memory_profile=mem,
    )


def _database(*relations, tpi):
    database = Database(simulate_rows=10_000_000, jit_options=JitOptions(tpi=tpi))
    for relation in relations:
        database.register(relation)
    return database


def workload_kernels(tpi):
    """Every kernel the paper workloads' queries compile, at ``tpi``: the
    Figure 1 sums, TPC-H Q1/Q3/Q5/Q6/Q10, RSA and the Taylor sines."""
    from repro.storage.datagen import relation_r5
    from repro.workloads import figure1, rsa, trig

    queries = []
    for config in figure1.CONFIGURATIONS:
        relation = figure1.build_relation(config, rows=16)
        queries.append((_database(relation, tpi=tpi), "SELECT SUM(c1 + c2) FROM R"))
    tpch_db = _database(
        tpch.lineitem_with_orderkeys(rows=16, seed=7, order_count=8),
        tpch.orders(rows=8, seed=17),
        tpch.customer(rows=4, seed=19),
        tpch.nation(),
        tpi=tpi,
    )
    for sql in (
        tpch_queries.Q1_SQL,
        tpch_queries.Q3_SQL,
        tpch_queries.Q5_SQL,
        tpch_queries.Q6_SQL,
        tpch_queries.Q10_SQL,
    ):
        queries.append((tpch_db, sql))
    for length in sorted(rsa.MESSAGE_PRECISION):
        workload = rsa.build_workload(length, rows=16)
        queries.append((_database(workload.relation, tpi=tpi), workload.query))
    r5_db = _database(relation_r5(rows=16), tpi=tpi)
    for column in trig.INPUT_COLUMNS.values():
        for terms in trig.TERM_RANGE:
            queries.append((r5_db, f"SELECT {trig.sine_expression(column, terms)} FROM R5"))

    kernels = []
    compile_expression_ = pipeline.compile_expression

    def collect(*args, **kwargs):
        compiled = compile_expression_(*args, **kwargs)
        kernels.append(compiled.kernel)
        return compiled

    with mock.patch.object(pipeline, "compile_expression", collect):
        for database, sql in queries:
            database.explain(sql)
    return kernels


class TestProfiledPricingIsExact:
    @pytest.mark.parametrize("tpi", [1, 4, 32])
    def test_every_workload_kernel_prices_as_the_full_formula(self, tpi):
        kernels = workload_kernels(tpi)
        assert len(kernels) >= 40
        for kernel in kernels:
            assert kernel.tpi == tpi
            for device in (DEFAULT_DEVICE, HALF_DEVICE):
                for tuples in TUPLES:
                    expected = reference_timing(kernel, tuples, device)
                    # The first call fills the profile, the second reads it.
                    for _ in range(2):
                        timing = kernel_time(kernel, tuples, device)
                        assert timing == expected, (codegen.render_source(kernel), tuples)
                        assert timing.seconds == expected.seconds
                        assert timing.sm_utilization == expected.sm_utilization
                        assert timing.memory_bound == expected.memory_bound
            assert set(kernel.profiles) == {DEFAULT_DEVICE, HALF_DEVICE}


class TestRacingFirstFills:
    def test_threads_pricing_one_fresh_kernel_agree(self):
        """Serving threads may race a kernel's first pricing: each computes
        an equal profile and one assignment publishes it."""
        schema = {"a": DecimalSpec(30, 2), "b": DecimalSpec(28, 4)}
        kernel = compile_expression("a * b + a / 7", schema).kernel
        expected = reference_timing(kernel, 1_000_000)
        seen, errors = [], []
        start = threading.Barrier(8)

        def price():
            try:
                start.wait(timeout=10)
                for _ in range(50):
                    seen.append(kernel_time(dataclasses.replace(kernel), 1_000_000))
                    seen.append(kernel_time(kernel, 1_000_000))
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=price) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(seen) == 8 * 100
        assert all(timing == expected for timing in seen)
        assert list(kernel.profiles) == [DEFAULT_DEVICE]


SERVE_RW_READS = (
    tpch_queries.Q1_SQL,
    tpch_queries.Q6_SQL,
    "SELECT (l_extendedprice * (1 - l_discount)) AS disc_price FROM lineitem "
    "WHERE l_quantity < 2",
    "SELECT l_returnflag, SUM((l_extendedprice * l_discount)) AS revenue, "
    "COUNT(*) AS orders FROM lineitem WHERE l_discount >= 0.01 GROUP BY l_returnflag",
)


def serve_rw_database():
    """perfbench's ``serve_rw`` set-up: LEN 8 lineitem with per-column
    codecs on a streaming database, before any read."""
    relation = tpch.lineitem_for_len(8, rows=20_000, seed=1)
    codecs = {
        column.name: choose_codec(column.column_type.spec, column.unscaled())
        for column in relation.columns
        if column.name in ("l_quantity", "l_extendedprice", "l_discount", "l_tax")
    }
    database = Database(simulate_rows=10_000_000, streaming=StreamingConfig(enabled=True))
    database.register(relation.with_codecs(codecs))
    return database


class TestEachKernelIsProfiledOnce:
    def test_serve_rw_reads_walk_each_kernel_once(self):
        database = serve_rw_database()
        walked = []
        tuple_cycles = gpu_timing.tuple_cycles

        def counted(kernel):
            walked.append(kernel)
            return tuple_cycles(kernel)

        with mock.patch.object(gpu_timing, "tuple_cycles", counted):
            first = [database.execute(sql) for sql in SERVE_RW_READS]
            assert len(walked) == 5
            again = [database.execute(sql) for sql in SERVE_RW_READS]
        assert len(walked) == 5
        assert len({id(kernel) for kernel in walked}) == 5
        launches = sum(len(result.report.kernel_executions) for result in first + again)
        assert launches == 2 * 5  # one launch per kernel per pass
        assert [r.rows for r in first] == [r.rows for r in again]
        for before, after in zip(first, again):
            assert before.report.kernel_seconds == after.report.kernel_seconds
            assert before.report.total_seconds > 0


class TestKernelsAreImmutable:
    def kernel(self):
        schema = {"a": DecimalSpec(10, 2), "b": DecimalSpec(8, 1)}
        return compile_expression("a + b * 2", schema).kernel

    def test_no_field_can_be_assigned(self):
        kernel = self.kernel()
        for field in dataclasses.fields(kernel):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(kernel, field.name, getattr(kernel, field.name))
        assert isinstance(kernel.instructions, tuple)

    def test_a_list_of_instructions_becomes_a_tuple(self):
        spec = DecimalSpec(6, 1)
        body = [ir.LoadColumn(0, spec, "a"), ir.StoreResult(0, spec, 0)]
        kernel = ir.KernelIR("k", body, {"a": spec}, spec, register_words=2)
        assert kernel.instructions == tuple(body)

    def test_replace_starts_with_no_profile(self):
        kernel = self.kernel()
        kernel_time(kernel, 1_000)
        assert DEFAULT_DEVICE in kernel.profiles
        copy = dataclasses.replace(kernel, name="other")
        assert copy.profiles == {}
        assert copy.profiles is not kernel.profiles
        assert kernel_time(copy, 1_000) == kernel_time(kernel, 1_000)

    @pytest.mark.parametrize(
        "expression,spec,fast_path",
        [("a + b * 2", DecimalSpec(10, 2), None), ("a / 7", DecimalSpec(9, 2), "native64")],
    )
    def test_compiled_kernel_carries_its_source_and_analysis(self, expression, spec, fast_path):
        """The listing and the report are built from the kernel by their readers."""
        compiled = compile_expression(expression, {"a": spec, "b": DecimalSpec(8, 1)})
        kernel = compiled.kernel
        source = codegen.render_source(kernel)
        analysis = analyze_kernel(kernel, tree=compiled.tree)
        assert not analysis.has_errors
        assert kernel.profiles == {}
        routes = [i.fast_path for i in kernel.instructions if isinstance(i, ir.DivOp)]
        assert routes == ([] if fast_path is None else [fast_path])
        if fast_path is not None:
            assert f"// {fast_path} fast path" in source
