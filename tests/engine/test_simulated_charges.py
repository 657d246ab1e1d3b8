"""Pinned simulated charges of both kernel-launch paths.

Every JIT kernel takes one launch path: the data plane runs once, and the
report is charged one :class:`~repro.gpusim.streaming.StreamTiming` --
``stream_timing`` when streaming, one transfer-free chunk when serial.
The literals below are the ``repr`` of every simulated charge of TPC-H Q1
and Q6 at LEN 8, serial and streamed (explicit and auto-sized chunks, with
and without the cost-based chunk choice).  The simulator is deterministic,
so any difference here is a time-model change and must be announced.
"""

import dataclasses

import pytest

from repro.core.decimal.context import DecimalSpec
from repro.engine import Database
from repro.engine.plan.cost import OptimizerConfig
from repro.engine.plan.physical import ExecutionReport
from repro.gpusim.streaming import StreamingConfig
from repro.storage import Relation, tpch
from repro.storage.datagen import decimal_column
from repro.workloads.tpch_queries import Q1_SQL, Q6_SQL

#: Simulated charges only: ``data_plane_seconds`` is measured wall clock.
SIMULATED = [
    field.name
    for field in dataclasses.fields(ExecutionReport)
    if field.name.endswith("_seconds") and field.name != "data_plane_seconds"
] + ["pcie_bytes"]

CONFIGS = {
    "serial": (None, None),
    "chunk_rows_1M": (StreamingConfig(enabled=True, chunk_rows=1_000_000), None),
    "chunk_rows_auto": (StreamingConfig(enabled=True, chunk_rows=None), None),
    "chunk_rows_auto_optimizer_off": (
        StreamingConfig(enabled=True, chunk_rows=None),
        OptimizerConfig.off(),
    ),
}

EXPECTED = {
    ("Q1", "serial"): (
        {
            "scan_seconds": "0.47692307692307695",
            "pcie_seconds": "0.028196818181818184",
            "compile_seconds": "0.3245",
            "kernel_seconds": "0.005757141241581028",
            "filter_seconds": "0.00010269696969696969",
            "aggregate_seconds": "0.4441232569460228",
            "sort_seconds": "9.89090909090909e-05",
            "pipeline_seconds": "0.2",
            "pcie_bytes": "620000000.0",
        },
        [
            (1, "0.0", "0.002856962460980767"),
            (1, "0.0", "0.0029001787806002617"),
        ],
    ),
    ("Q1", "chunk_rows_1M"): (
        {
            "scan_seconds": "0.47692307692307695",
            "pcie_seconds": "0.026620454545454544",
            "compile_seconds": "0.3245",
            "kernel_seconds": "0.005901141241581028",
            "filter_seconds": "0.00010269696969696969",
            "aggregate_seconds": "0.4441232569460228",
            "sort_seconds": "9.89090909090909e-05",
            "pipeline_seconds": "0.2",
            "pcie_bytes": "620000000.0",
        },
        [
            (10, "0.0001059090909090909", "0.00029289624609807666"),
            (10, "0.0001059090909090909", "0.0002972178780600262"),
        ],
    ),
    ("Q1", "chunk_rows_auto"): (
        {
            "scan_seconds": "0.47692307692307695",
            "pcie_seconds": "0.026620454545454544",
            "compile_seconds": "0.3245",
            "kernel_seconds": "0.005901141241581028",
            "filter_seconds": "0.00010269696969696969",
            "aggregate_seconds": "0.4441232569460228",
            "sort_seconds": "9.89090909090909e-05",
            "pipeline_seconds": "0.2",
            "pcie_bytes": "620000000.0",
        },
        [
            (10, "0.0001059090909090909", "0.00029289624609807666"),
            (10, "0.0001059090909090909", "0.0002972178780600262"),
        ],
    ),
    ("Q1", "chunk_rows_auto_optimizer_off"): (
        {
            "scan_seconds": "0.47692307692307695",
            "pcie_seconds": "0.02666590909090909",
            "compile_seconds": "0.3245",
            "kernel_seconds": "0.005869141241581027",
            "filter_seconds": "0.00010269696969696969",
            "aggregate_seconds": "0.4441232569460228",
            "sort_seconds": "9.89090909090909e-05",
            "pipeline_seconds": "0.2",
            "pcie_bytes": "620000000.0",
        },
        [
            (8, "0.00012863636363636365", "0.0003641203076225958"),
            (8, "0.00012863636363636365", "0.00036952234757503267"),
        ],
    ),
    ("Q6", "serial"): (
        {
            "scan_seconds": "0.4461538461538462",
            "pcie_seconds": "0.026378636363636365",
            "compile_seconds": "0.28800000000000003",
            "kernel_seconds": "5.735131642498161e-05",
            "filter_seconds": "0.0007655757575757574",
            "aggregate_seconds": "2.9025156249999996e-05",
            "sort_seconds": "0.0",
            "pipeline_seconds": "0.15000000000000002",
            "pcie_bytes": "580000000.0",
        },
        [
            (1, "0.0", "5.735131642498161e-05"),
        ],
    ),
    ("Q6", "chunk_rows_1M"): (
        {
            "scan_seconds": "0.4461538461538462",
            "pcie_seconds": "0.026374735835374905",
            "compile_seconds": "0.28800000000000003",
            "kernel_seconds": "7.335072421036894e-05",
            "filter_seconds": "0.0007655757575757574",
            "aggregate_seconds": "2.9025156249999996e-05",
            "sort_seconds": "0.0",
            "pipeline_seconds": "0.15000000000000002",
            "pcie_bytes": "580000000.0",
        },
        [
            (3, "0.004257424227272728", "2.445024140345631e-05"),
        ],
    ),
    ("Q6", "chunk_rows_auto"): (
        {
            "scan_seconds": "0.4461538461538462",
            "pcie_seconds": "0.026374735835374905",
            "compile_seconds": "0.28800000000000003",
            "kernel_seconds": "7.335072421036894e-05",
            "filter_seconds": "0.0007655757575757574",
            "aggregate_seconds": "2.9025156249999996e-05",
            "sort_seconds": "0.0",
            "pipeline_seconds": "0.15000000000000002",
            "pcie_bytes": "580000000.0",
        },
        [
            (3, "0.004257424227272728", "2.445024140345631e-05"),
        ],
    ),
    ("Q6", "chunk_rows_auto_optimizer_off"): (
        {
            "scan_seconds": "0.4461538461538462",
            "pcie_seconds": "0.026374735835374905",
            "compile_seconds": "0.28800000000000003",
            "kernel_seconds": "7.335072421036894e-05",
            "filter_seconds": "0.0007655757575757574",
            "aggregate_seconds": "2.9025156249999996e-05",
            "sort_seconds": "0.0",
            "pipeline_seconds": "0.15000000000000002",
            "pcie_bytes": "580000000.0",
        },
        [
            (3, "0.004257424227272728", "2.445024140345631e-05"),
        ],
    ),
}


@pytest.fixture(scope="module")
def lineitem():
    return tpch.lineitem_for_len(8, rows=300, seed=7)


@pytest.mark.parametrize("query, config", sorted(EXPECTED))
def test_charges_are_pinned(lineitem, query, config):
    streaming, optimizer = CONFIGS[config]
    db = Database(simulate_rows=10_000_000)
    db.register(lineitem)
    sql = {"Q1": Q1_SQL, "Q6": Q6_SQL}[query]
    report = db.execute(sql, streaming=streaming, optimizer=optimizer).report
    charges, kernels = EXPECTED[(query, config)]
    assert {name: repr(getattr(report, name)) for name in SIMULATED} == charges
    assert [
        (
            entry.timing.chunks,
            repr(entry.timing.transfer_seconds_per_chunk),
            repr(entry.timing.kernel_seconds_per_chunk),
        )
        for entry in report.kernel_executions
    ] == kernels
    assert all(entry.streamed == (streaming is not None) for entry in report.kernel_executions)


class TestEmptyBatch:
    """A kernel over zero rows.  The two paths charge it differently: the
    serial path charges a one-tuple launch, the streamed path nothing
    (``chunks=0``) while still counting the deferred transfer bytes -- an
    open finding in ROADMAP.md, pinned here so it only moves on purpose."""

    SQL = "SELECT a * b FROM r WHERE a > 0 AND a < 0"

    def run(self, streaming):
        db = Database(simulate_rows=10_000_000)
        db.register(
            Relation(
                "r",
                [
                    decimal_column("a", DecimalSpec(12, 2), 120, seed=21),
                    decimal_column("b", DecimalSpec(10, 3), 120, seed=22),
                ],
            )
        )
        result = db.execute(self.SQL, streaming=streaming)
        assert result.rows == []
        (entry,) = result.report.kernel_executions
        return result.report, entry.timing

    def test_serial_charges_a_one_tuple_launch(self):
        report, timing = self.run(None)
        assert (timing.chunks, timing.transfer_seconds_per_chunk) == (1, 0.0)
        assert repr(timing.kernel_seconds_per_chunk) == "8.00007414509771e-06"
        assert repr(report.kernel_seconds) == "8.00007414509771e-06"
        assert repr(report.pcie_seconds) == "0.005015"

    def test_streamed_charges_zero(self):
        report, timing = self.run(StreamingConfig(enabled=True, chunk_rows=1_000_000))
        assert (timing.chunks, timing.kernel_seconds_per_chunk) == (0, 0.0)
        assert report.kernel_seconds == 0.0
        assert report.pcie_seconds == 0.0
        assert report.pcie_bytes == 110_000_000.0
