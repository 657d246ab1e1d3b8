"""Figure 14(b): TPC-H Q1 at extended precisions, plus the FOR case study.

UltraPrecise runs the full Q1 (two JIT expressions + seven aggregations,
grouped by returnflag/linestatus); the peers run the same decimal hot path
through their cost models.  Scan time is excluded for every system, as in
the paper.  Anchors: UltraPrecise 684.67/685.00/754.67/1135.33/2610.33/
6164.33 ms (orig/2/4/8/16/32); 41.28x .. 7.70x faster than PostgreSQL;
compile share falls 47% -> 7% while absolute compile rises 320 -> 423 ms;
FOR compression accelerates PCIe-inclusive time by 1.38x-4.80x.
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines import create as create_baseline
from repro.bench.harness import Experiment
from repro.engine import Database
from repro.errors import CapabilityError
from repro.storage import tpch
from repro.storage.codecs import ForCodec
from repro.workloads.tpch_queries import Q1_SQL

PAPER_UP_MS = {None: 684.67, 2: 685.00, 4: 754.67, 8: 1135.33, 16: 2610.33, 32: 6164.33}
PAPER_PG_SPEEDUP = {None: 41.28, 2: 39.55, 4: 38.56, 8: 28.09, 16: 14.46, 32: 7.70}

#: The Q1 decimal hot path, per tuple, for the baseline cost models.
EXPRESSIONS = [
    "l_extendedprice * (1 - l_discount)",
    "l_extendedprice * (1 - l_discount) * (1 + l_tax)",
]
SUM_COLUMNS = ["l_quantity", "l_extendedprice", "l_discount"]

ENGINES = ("HEAVY.AI", "MonetDB", "RateupDB", "PostgreSQL")


def run(
    rows: int = 2500,
    simulate_rows: int = 10_000_000,
    lengths=(None, 2, 4, 8, 16, 32),
) -> Experiment:
    headers = ["LEN"] + [f"{name} (s)" for name in ENGINES] + [
        "UltraPrecise (s)",
        "UP paper (s)",
        "compile share %",
        "PG/UP (paper)",
    ]
    table: List[List] = []
    for length in lengths:
        relation = (
            tpch.lineitem(rows=rows, seed=7)
            if length is None
            else tpch.lineitem_for_len(length, rows=rows, seed=7)
        )
        db = Database(simulate_rows=simulate_rows)
        db.register(relation)
        result = db.execute(Q1_SQL, include_scan=False)
        report = result.report
        up_seconds = report.total_seconds
        compile_share = 100.0 * report.compile_seconds / up_seconds

        row: List = [length if length is not None else "orig"]
        for name in ENGINES:
            seconds = _baseline_q1_seconds(name, relation, simulate_rows)
            row.append(seconds)
        pg_seconds = row[-1]
        row.append(up_seconds)
        row.append(PAPER_UP_MS[length] / 1e3)
        row.append(compile_share)
        row.append(
            f"{(pg_seconds / up_seconds):.1f}x ({PAPER_PG_SPEEDUP[length]:.1f}x)"
            if pg_seconds
            else None
        )
        table.append(row)

    return Experiment(
        experiment_id="fig14b",
        title="TPC-H Q1 at extended precision, scan excluded (10M tuples)",
        headers=headers,
        rows=table,
        notes=[
            "paper compile: 320 ms (47%) at LEN=2 to 423 ms (7%) at LEN=32",
            "group-by/order-by columns verified against a row-at-a-time oracle in tests",
        ],
    )


def _baseline_q1_seconds(name: str, relation, simulate_rows: int) -> Optional[float]:
    """One peer's Q1 time: 2 expressions + 7 aggregates + group-by."""
    engine = create_baseline(name)
    try:
        total = 0.0
        for expression in EXPRESSIONS:
            projection = engine.run_projection(
                relation.head(64), expression, simulate_rows=simulate_rows, include_scan=False
            )
            total += projection.seconds
        for column in SUM_COLUMNS:
            aggregate = engine.run_sum(
                relation.head(64), column, simulate_rows=simulate_rows, include_scan=False
            )
            total += aggregate.seconds
        # AVGs reuse the SUM transitions; charge one more round of
        # aggregate transitions for the remaining four aggregates.
        total *= 1.45
        return total
    except CapabilityError:
        return None


def run_compression_study(
    rows: int = 4000, simulate_rows: int = 10_000_000, lengths=(4, 8, 16, 32)
) -> Experiment:
    """The FOR compression case study on Q1's widest columns.

    Paper: PCIe-inclusive execution accelerates by 1.38x/2.01x/3.36x/4.80x
    at LEN 4/8/16/32 depending on compressibility.  TPC-H quantities and
    prices have small value ranges, so their FOR deltas are narrow even
    when the declared precision is huge -- exactly the paper's setup.  The
    byte counts are the FOR codec's wire bytes over 4096-row chunks.
    """
    from repro.gpusim import pcie_time

    headers = ["LEN", "raw bytes/val", "FOR bytes/val", "ratio", "transfer speedup"]
    table: List[List] = []
    for length in lengths:
        relation = tpch.lineitem_for_len(length, rows=rows, seed=7)
        raw_total = 0
        compressed_total = 0
        for column_name in ("l_quantity", "l_extendedprice"):
            column = relation.column(column_name)
            encoding = column.with_codec(ForCodec(), 4096).encoding()
            raw_total += column.column_type.spec.compact_bytes * column.rows
            compressed_total += encoding.wire_bytes
            assert encoding.decode() == column.unscaled()
        scale = simulate_rows / rows
        raw_time = pcie_time(int(raw_total * scale))
        compressed_time = pcie_time(int(compressed_total * scale))
        table.append(
            [
                length,
                raw_total / (2 * rows),
                compressed_total / (2 * rows),
                raw_total / compressed_total,
                raw_time / compressed_time,
            ]
        )
    return Experiment(
        experiment_id="fig14b_for",
        title="FOR compression case study on Q1 (PCIe transfer effect)",
        headers=headers,
        rows=table,
        notes=["paper end-to-end speedups: 1.38x/2.01x/3.36x/4.80x at LEN 4/8/16/32"],
    )
