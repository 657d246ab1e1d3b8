"""EXPLAIN text, byte for byte, on the benchmark's tables.

Row and cost estimates are computed for EXPLAIN from the finished plan
(:func:`~repro.engine.plan.planner.estimate_plan`), not carried on the
operators.  These texts pin every estimate, choice, diagnostic and kernel
listing of TPC-H Q1/Q3/Q5/Q6/Q10 on the ``tpch_olap`` tables and of the
four ``serve_rw`` read shapes, under the optimizer on and off and
streaming off and auto.

Regenerate ``explain_golden.json`` only for an announced change to the
EXPLAIN text: ``PYTHONPATH=src python -m tests.engine.test_explain_golden``.
"""

import json
import pathlib

import pytest

from repro.engine import Database
from repro.engine.plan.cost import OptimizerConfig
from repro.gpusim.streaming import StreamingConfig
from repro.storage import tpch
from repro.workloads import tpch_queries

from tests.gpusim.test_kernel_profile import SERVE_RW_READS, serve_rw_database

GOLDEN = pathlib.Path(__file__).with_name("explain_golden.json")

TPCH_READS = {
    "Q1": tpch_queries.Q1_SQL,
    "Q3": tpch_queries.Q3_SQL,
    "Q5": tpch_queries.Q5_SQL,
    "Q6": tpch_queries.Q6_SQL,
    "Q10": tpch_queries.Q10_SQL,
}
SERVE_READS = dict(zip(("Q1", "Q6", "projection", "grouped"), SERVE_RW_READS))
OPTIMIZERS = {"optimizer-on": OptimizerConfig(), "optimizer-off": OptimizerConfig.off()}
STREAMING = {
    "streaming-off": StreamingConfig(enabled=False),
    "streaming-auto": StreamingConfig(enabled=True),
}


def tpch_olap_database() -> Database:
    """perfbench's ``tpch_olap`` set-up at seed 1, before any read."""
    database = Database(simulate_rows=10_000_000)
    for relation in (
        tpch.lineitem_with_orderkeys(rows=20_000, seed=1, order_count=4_000),
        tpch.orders(rows=4_000, seed=3),
        tpch.customer(rows=500, seed=4),
        tpch.nation(),
    ):
        database.register(relation)
    return database


def explain_texts():
    """Every golden key and its EXPLAIN text."""
    texts = {}
    for workload, database, reads in (
        ("tpch_olap", tpch_olap_database(), TPCH_READS),
        ("serve_rw", serve_rw_database(), SERVE_READS),
    ):
        for read, sql in reads.items():
            for optimizer_name, optimizer in OPTIMIZERS.items():
                for streaming_name, streaming in STREAMING.items():
                    explained = database.explain(
                        sql, optimizer=optimizer, streaming=streaming
                    )
                    key = f"{workload}/{read}/{optimizer_name}/{streaming_name}"
                    texts[key] = explained.format()
                    texts[key + "/source"] = explained.format(with_source=True)
    return texts


@pytest.fixture(scope="module")
def texts():
    return explain_texts()


GOLDEN_TEXTS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_golden_covers_every_case(texts):
    assert sorted(texts) == sorted(GOLDEN_TEXTS)
    assert len(texts) == (len(TPCH_READS) + len(SERVE_READS)) * 2 * 2 * 2


@pytest.mark.parametrize("key", sorted(GOLDEN_TEXTS))
def test_explain_text_is_unchanged(texts, key):
    assert texts[key] == GOLDEN_TEXTS[key]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(explain_texts(), indent=1, sort_keys=True) + "\n")
