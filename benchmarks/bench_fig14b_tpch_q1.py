"""Figure 14(b): TPC-H Q1 at extended precision + the FOR case study."""

import pytest

from conftest import emit
from repro.bench.experiments import fig14b_tpch_q1
from repro.engine import Database
from repro.storage import tpch
from repro.workloads.tpch_queries import Q1_SQL


@pytest.fixture(scope="module")
def experiment():
    return emit(fig14b_tpch_q1.run(rows=1500))


@pytest.fixture(scope="module")
def compression_study():
    return emit(fig14b_tpch_q1.run_compression_study(rows=3000))


def test_fig14b_q1(benchmark, experiment):
    relation = tpch.lineitem(rows=1200, seed=7)
    db = Database(simulate_rows=10_000_000)
    db.register(relation)

    def run_q1():
        db.kernel_cache.clear()
        return db.execute(Q1_SQL, include_scan=False)

    result = benchmark(run_q1)
    assert len(result.rows) == 6  # 3 returnflags x 2 linestatuses

    ours = experiment.column("UltraPrecise (s)")
    paper = experiment.column("UP paper (s)")
    shares = experiment.column("compile share %")
    # Time grows monotonically across the LEN sweep (the "orig" row uses
    # DECIMAL(12,2), marginally wider than the LEN=2 configuration).
    assert ours[1:] == sorted(ours[1:])
    for measured, reference in zip(ours, paper):
        assert 0.3 < measured / reference < 3.0
    # Compile share falls as LEN grows (paper: 47% -> 7%).
    assert shares[0] > shares[-1]
    assert shares[-1] < 25


def test_fig14b_for_compression(benchmark, compression_study):
    from repro.storage.codecs import ForCodec
    from repro.storage.tpch import lineitem_for_len

    column = lineitem_for_len(8, rows=1500, seed=7).column("l_quantity")
    # A fresh codec column per call: encoding() is cached per column.
    benchmark(lambda: column.with_codec(ForCodec(), 4096).encoding())

    ratios = compression_study.column("ratio")
    speedups = compression_study.column("transfer speedup")
    # TPC-H value ranges are narrow: compression helps, more at higher LEN.
    assert all(r > 1.2 for r in ratios)
    assert speedups[-1] > speedups[0]
    # Paper band: 1.38x - 4.80x end-to-end; transfers alone exceed that.
    assert 1.3 < min(speedups)
