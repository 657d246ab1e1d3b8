"""Extension: concurrent serving throughput vs session count.

Serves a closed-loop TPC-H-style mix (Q1/Q6/projection/filter) from 1, 4,
16 and 64 concurrent sessions over one shared database and simulated
device, asserting the serving layer's contract: every served result is
bit-exact against serial execution (the experiment raises on divergence),
simulated throughput grows with session count, and tail latency degrades
gracefully rather than collapsing.

Also runnable as a script for the CI smoke gate::

    PYTHONPATH=src python benchmarks/bench_ext_serving.py --smoke

The smoke run asserts (a) bit-exactness vs serial and (b) >1x simulated
throughput at 16 sessions vs 1 session.  It prints its table without
saving it, so the committed ``bench_results/ext_serving.json`` keeps the
full run's rows.
"""

import pytest

from conftest import emit
from repro.bench.experiments import ext_serving
from repro.engine import Database
from repro.storage import tpch


@pytest.fixture(scope="module")
def experiment():
    return emit(ext_serving.run(rows=500))


def _make_database(rows: int = 300) -> Database:
    database = Database(simulate_rows=2_000_000)
    database.register(tpch.lineitem_for_len(8, rows=rows, seed=7))
    return database


def test_ext_serving_throughput_scales(benchmark, experiment):
    database = _make_database()
    ext_serving.warm_shared_state(database)
    benchmark(lambda: ext_serving.serve_workload(database, 4, 2))

    sessions = experiment.column("sessions")
    qps = experiment.column("queries/sec")
    vs_one = experiment.column("throughput vs 1 session")
    overlap = experiment.column("overlap speedup")

    assert sessions == [1, 4, 16, 64]
    # One session cannot overlap with itself; the schedule degenerates to
    # full serialization.
    assert overlap[0] == pytest.approx(1.0)
    # Concurrency wins: throughput at 16 sessions beats 1 session (the CI
    # smoke gate's floor), and every multi-session point beats serial.
    assert vs_one[sessions.index(16)] > 1.0
    assert all(speedup > 1.0 for s, speedup in zip(sessions, overlap) if s > 1)
    # More sessions never reduce throughput below the single-session floor.
    assert all(rate >= qps[0] * 0.99 for rate in qps)


def test_ext_serving_latency_tail(experiment):
    p50 = experiment.column("p50 latency (ms)")
    p99 = experiment.column("p99 latency (ms)")
    assert all(hi >= lo for lo, hi in zip(p50, p99))
    assert all(lo > 0 for lo in p50)
    # Contention shows up as tail growth: p99 at 64 sessions exceeds the
    # uncontended single-session tail.
    assert p99[-1] > p99[0]


def _smoke(rows: int = 240) -> int:
    """CI smoke: bit-exact vs serial + >1x throughput at 16 sessions."""
    experiment = ext_serving.run(
        rows=rows, session_counts=(1, 16), queries_per_session=3
    )
    # Bit-exactness vs serial already ran inside the experiment (it raises
    # on any divergence); gate the throughput floor here.
    print(experiment.format())
    sessions = experiment.column("sessions")
    vs_one = experiment.column("throughput vs 1 session")
    speedup = vs_one[sessions.index(16)]
    if speedup <= 1.0:
        print(f"FAIL: 16 sessions reach only {speedup:.2f}x 1-session throughput")
        return 1
    print(
        f"smoke OK: all served results bit-exact vs serial; 16 sessions "
        f"sustain {speedup:.2f}x the 1-session simulated throughput"
    )
    return 0


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="CI gate: bit-exactness + throughput floor"
    )
    parser.add_argument("--rows", type=int, default=None, help="real rows in lineitem")
    options = parser.parse_args()
    if options.smoke:
        sys.exit(_smoke(options.rows or 240))
    emit(ext_serving.run(rows=options.rows or 600))
