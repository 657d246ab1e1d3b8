"""Extension: storage codecs + zone maps on streamed TPC-H Q1/Q6.

Runs the compression experiment (``repro.bench.experiments.ext_compression``)
across the LEN sweep: PCIe bytes per codec, zone-map chunk-skip counts on
the clustered Q6 filter, pipelined end-to-end times, and bit-exactness of
every variant against the codec-free path.

Asserts the acceptance floors of the codec work: >= 2x PCIe-byte
reduction with the order-preserving codec on Q1 at LEN >= 8, chunk
skipping > 0 on the selective Q6 filter, and bit-exact rows everywhere.

Also runnable as a script for the CI smoke check::

    PYTHONPATH=src python benchmarks/bench_ext_compression.py --smoke
"""

import pytest

from conftest import emit
from repro.bench.experiments import ext_compression
from repro.core.decimal import dinf
from repro.storage import tpch
from repro.storage.codecs import OrderPreservingCodec


@pytest.fixture(scope="module")
def experiment():
    return emit(ext_compression.run(rows=1536))


def _cells(experiment):
    return list(
        zip(
            experiment.column("query"),
            experiment.column("LEN"),
            experiment.column("codec"),
            experiment.column("reduction vs compact"),
            experiment.column("chunks skipped"),
            experiment.column("chunks total"),
            experiment.column("bit_exact"),
        )
    )


def test_ext_compression_pcie_reduction(benchmark, experiment):
    relation = tpch.lineitem_for_len(8, rows=1536, seed=7)
    column = relation.column("l_extendedprice")
    compact, vector = column.data, column.decimal_vector()
    benchmark(
        lambda: OrderPreservingCodec().encode_column(compact, vector, chunk_rows=256)
    )

    cells = _cells(experiment)
    # Every cell bit-exact, and the dinf codec never ships *more* bytes.
    assert all(exact for *_rest, exact in cells)
    assert all(
        reduction >= 1.0
        for _q, _l, codec, reduction, *_rest in cells
        if codec == "dinf"
    )
    # The headline floor: >= 2x PCIe cut on Q1 wherever the fixed-width
    # layout pads heavily (the extended-precision LEN >= 8 points).
    assert all(
        reduction >= 2.0
        for query, length, codec, reduction, *_rest in cells
        if query == "Q1" and codec == "dinf" and length >= 8
    )


def test_ext_compression_zone_skipping(experiment):
    cells = _cells(experiment)
    # The clustered, selective Q6 filter must prune chunks under every
    # codec (zone maps are recorded at encode time for all of them) ...
    assert all(
        skipped > 0
        for query, _l, _c, _r, skipped, *_rest in cells
        if query == "Q6"
    )
    # ... and never on Q1, whose only filter is on the (codec-free) date.
    assert all(
        skipped == 0
        for query, _l, _c, _r, skipped, *_rest in cells
        if query == "Q1"
    )
    assert all(
        skipped < total for _q, _l, _c, _r, skipped, total, _e in cells if total
    )


def test_ext_compression_order_preserving_property():
    # memcmp order over encoded bytes == numeric order, across sign flips,
    # magnitude-length boundaries and zero.
    values = sorted(
        [0, 1, -1, 255, 256, -255, -256, 65535, -65536, 10**9, -(10**9), 42, -17]
    )
    encoded = [dinf.encode_one(v).tobytes() for v in values]
    assert encoded == sorted(encoded)


def _smoke(rows: int = 1024) -> int:
    """CI smoke: bit-exactness + PCIe cut on Q1, chunk skipping on Q6."""
    experiment = ext_compression.run(rows=rows, lengths=(8,))
    print(experiment.format())
    failures = []
    for query, length, codec, reduction, skipped, _total, exact in _cells(experiment):
        if not exact:
            failures.append(f"{query} LEN={length} {codec}: rows diverged")
        if query == "Q1" and codec == "dinf" and reduction < 2.0:
            failures.append(
                f"Q1 LEN={length} dinf: PCIe reduction {reduction:.2f}x < 2x"
            )
        if query == "Q6" and skipped == 0:
            failures.append(f"Q6 LEN={length} {codec}: no chunks zone-skipped")
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(
        f"smoke OK: bit-exact, >=2x Q1 PCIe cut and Q6 chunk skipping "
        f"on all {rows}-row cells"
    )
    return 0


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="small acceptance sweep (CI)"
    )
    parser.add_argument("--rows", type=int, default=None, help="rows per cell")
    options = parser.parse_args()
    if options.smoke:
        sys.exit(_smoke(options.rows or 1024))
    emit(ext_compression.run(rows=options.rows or 3072))
