"""Figure 14(a): Query 3 (``SELECT SUM(c1) FROM R3``) across databases.

c1's (precision, scale) sweeps (11,7) / (29,11) / (65,31) / (137,51) /
(281,101) so the aggregation result lands in 2/4/8/16/32 words; TPI is 8.
Paper anchors: MonetDB 17/19 ms at LEN=2/4 (in-memory, fastest);
HEAVY.AI 0.47 s (LEN=2, slowest); UltraPrecise beats RateupDB by 33%/12.5%;
PostgreSQL needs +112%/+67%/+29% at LEN=8/16/32.
"""

from __future__ import annotations

from typing import List

from repro.baselines import create as create_baseline
from repro.bench.harness import Experiment
from repro.core.decimal.context import DecimalSpec
from repro.engine import Database
from repro.errors import CapabilityError
from repro.storage import datagen

#: The paper's (p, s) per LEN for c1 -- sized so the SUM result fills LEN.
COLUMN_SPECS = {
    2: DecimalSpec(11, 7),
    4: DecimalSpec(29, 11),
    8: DecimalSpec(65, 31),
    16: DecimalSpec(137, 51),
    32: DecimalSpec(281, 101),
}

QUERY = "SELECT SUM(c1) FROM R3"
EXPRESSION = "c1"

PAPER_NOTES = [
    "paper: MonetDB 0.017/0.019 s at LEN=2/4 (no disk I/O); HEAVY.AI 0.47 s",
    "paper: UltraPrecise -33%/-12.5% vs RateupDB at LEN=2/4",
    "paper: PostgreSQL +112%/+67%/+29% vs UltraPrecise at LEN=8/16/32",
]

ENGINES = ("HEAVY.AI", "MonetDB", "RateupDB", "PostgreSQL")


def run(
    rows: int = 4000,
    simulate_rows: int = 10_000_000,
    lengths=(2, 4, 8, 16, 32),
    verify: bool = True,
) -> Experiment:
    headers = ["LEN"] + [f"{name} (s)" for name in ENGINES] + [
        "UltraPrecise (s)",
        "PG / UP",
    ]
    table: List[List] = []
    for length in lengths:
        spec = COLUMN_SPECS[length]
        relation = datagen.relation_r3(spec, rows=rows, seed=141 + length)
        oracle = sum(relation.column("c1").unscaled())

        db = Database(simulate_rows=simulate_rows)
        db.register(relation)
        result = db.execute(QUERY)
        if verify:
            assert result.scalar.unscaled == oracle, f"UltraPrecise SUM wrong at LEN={length}"
        up_seconds = result.report.total_seconds

        row: List = [length]
        pg_seconds = None
        for name in ENGINES:
            engine = create_baseline(name)
            try:
                include_scan = name != "MonetDB"  # MonetDB excludes disk I/O
                baseline = engine.run_sum(
                    relation, EXPRESSION, simulate_rows=simulate_rows, include_scan=include_scan
                )
                if verify:
                    assert baseline.scalar.unscaled == oracle, f"{name} SUM wrong"
                row.append(baseline.seconds)
                if name == "PostgreSQL":
                    pg_seconds = baseline.seconds
            except CapabilityError:
                row.append(None)
        row.append(up_seconds)
        row.append(pg_seconds / up_seconds if pg_seconds else None)
        table.append(row)
    return Experiment(
        experiment_id="fig14a",
        title="Query 3: SELECT SUM(c1) FROM R3, TPI=8 (10M tuples simulated)",
        headers=headers,
        rows=table,
        notes=PAPER_NOTES + [f"SUM verified exactly on {rows} real rows"],
    )
