"""Extension: storage codecs + zone maps on streamed TPC-H Q1/Q6.

The streaming model is transfer-bound at low LEN, and the paper's compact
layout pays the declared precision's worst case on every row.  This
experiment measures what the storage-codec layer buys on the wire:

* **Q1** (date filter only, full decimal payload shipped): the PCIe byte
  cut from re-encoding the four decimal columns -- the order-preserving
  ``dinf`` codec vs the compact baseline -- and the end-to-end pipelined
  speedup that follows.
* **Q6** (selective decimal predicates, relation clustered on
  ``l_quantity``): zone-map chunk skipping -- chunks whose min/max range
  cannot satisfy the pushed-down filter are never read or shipped -- on
  top of the same codec byte cut.

Every variant's result rows are asserted bit-exact against the
uncompressed (codec-free) path: codecs and zone maps change byte
accounting and filter strategy, never answers.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.bench.harness import Experiment
from repro.engine import Database
from repro.gpusim.streaming import StreamingConfig
from repro.storage import tpch
from repro.storage.codecs import (
    CompactCodec,
    DecimalCodec,
    OrderPreservingCodec,
    choose_codec,
)
from repro.storage.relation import Relation
from repro.storage.schema import is_decimal
from repro.workloads.tpch_queries import Q1_SQL, Q6_SQL


def _clustered_on(relation: Relation, column: str) -> Relation:
    """Stable-sort the whole relation on one decimal column.

    Zone maps only prune when the data is clustered; TPC-H loads are
    naturally clustered on dates/keys, which we stand in for by sorting on
    the Q6 filter column.
    """
    order = np.argsort(
        np.array(relation.column(column).unscaled(), dtype=object), kind="stable"
    )
    return Relation(relation.name, [c.take(order) for c in relation.columns])


def _codec_map(
    relation: Relation, variant: str
) -> Dict[str, Optional[DecimalCodec]]:
    """Codec per decimal column for one variant."""
    codecs: Dict[str, Optional[DecimalCodec]] = {}
    for column in relation.columns:
        if not is_decimal(column.column_type):
            continue
        if variant == "compact":
            codecs[column.name] = CompactCodec()
        elif variant == "dinf":
            codecs[column.name] = OrderPreservingCodec()
        else:  # auto: smallest wire size the column qualifies for
            codecs[column.name] = choose_codec(
                column.column_type.spec, column.unscaled()
            )
    return codecs


def _run_query(
    relation: Relation,
    sql: str,
    simulate_rows: int,
    stream_chunk_rows: int,
):
    db = Database(
        simulate_rows=simulate_rows,
        streaming=StreamingConfig(enabled=True, chunk_rows=stream_chunk_rows),
    )
    db.register(relation)
    return db.execute(sql, include_scan=False)


def run(
    rows: int = 3072,
    simulate_rows: int = 10_000_000,
    lengths=(2, 8, 32),
    encoding_chunk_rows: int = 256,
    stream_chunk_rows: int = 1_000_000,
) -> Experiment:
    headers = [
        "query",
        "LEN",
        "codec",
        "pcie (MB)",
        "reduction vs compact",
        "chunks skipped",
        "chunks total",
        "pipelined (s)",
        "speedup vs compact",
        "bit_exact",
    ]
    table: List[List] = []
    notes: List[str] = []
    for length in lengths:
        base = tpch.lineitem_for_len(length, rows=rows, seed=7)
        for query_name, sql, relation in (
            ("Q1", Q1_SQL, base),
            ("Q6", Q6_SQL, _clustered_on(base, "l_quantity")),
        ):
            baseline = _run_query(relation, sql, simulate_rows, stream_chunk_rows)
            variants = {}
            for variant in ("compact", "dinf", "auto"):
                codecs = _codec_map(relation, variant)
                encoded = relation.with_codecs(codecs, chunk_rows=encoding_chunk_rows)
                result = _run_query(encoded, sql, simulate_rows, stream_chunk_rows)
                variants[variant] = result
                if variant == "auto" and query_name == "Q1":
                    chosen = ", ".join(
                        f"{name}={codec.name}" for name, codec in sorted(codecs.items())
                    )
                    notes.append(f"auto codec choices at LEN={length}: {chosen}")
            compact = variants["compact"]
            for variant, result in variants.items():
                table.append(
                    [
                        query_name,
                        length,
                        variant,
                        result.report.pcie_bytes / 1e6,
                        compact.report.pcie_bytes / max(result.report.pcie_bytes, 1e-9),
                        result.report.zone_chunks_skipped,
                        result.report.zone_chunks_total,
                        result.report.total_seconds,
                        compact.report.total_seconds
                        / max(result.report.total_seconds, 1e-12),
                        result.rows == baseline.rows,
                    ]
                )
    notes.append(
        f"{rows} real rows per LEN, timing charged at {simulate_rows:,} tuples; "
        f"encoding chunk_rows={encoding_chunk_rows}, stream "
        f"chunk_rows={stream_chunk_rows:,}; scan excluded as in Figure 14(b)"
    )
    notes.append(
        "Q6 relation clustered on l_quantity; every variant's result rows are "
        "asserted bit-exact against the codec-free baseline"
    )
    return Experiment(
        experiment_id="ext_compression",
        title="Storage codecs + zone maps: PCIe bytes and chunk skipping on Q1/Q6",
        headers=headers,
        rows=table,
        notes=notes,
    )
