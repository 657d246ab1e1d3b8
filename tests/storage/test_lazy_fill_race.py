"""Readers racing the lazy fills of shared vectors and columns.

A lane-only ``DecimalVector`` builds its planes on first access and any
vector measures its lane bound on first ``lane_bound()``; a ``Column``
builds its expansion on first ``decimal_vector()``, a view its bytes on
first ``data``, a column built from a vector packs its bytes on first
``data``, a base column its join and group key codes and its join build
side on first use, and a join plan node its probe map and build runs.  All
may be shared by reader threads (the serving layer's sessions read one
catalog and one plan cache), so every reader that makes the
first access must see equal planes, equal compact bytes, equal bounds,
equal codes and equal values, whichever fill it got.  More readers than
cores and a short switch interval make the interleavings likely.
"""

import os
import sys
import threading

import numpy as np

from repro.core.decimal.context import DecimalSpec
from repro.core.decimal.vectorized import DecimalVector
from repro.engine.plan import physical
from repro.storage.column import Column

READERS = (os.cpu_count() or 1) + 3
ROUNDS = 150
SPEC = DecimalSpec(28, 2)  # three words
VALUES = [(-1) ** i * (i * 7919 % 10**12) for i in range(2000)]


def race(read):
    """Run ``read(reader)`` on READERS threads released together."""
    barrier = threading.Barrier(READERS)
    results = [None] * READERS
    errors = []

    def run(reader):
        try:
            barrier.wait(timeout=30)
            results[reader] = read(reader)
        except Exception as error:  # reported below
            errors.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(READERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    return results


def test_first_plane_access_on_a_shared_lane_vector():
    reference = DecimalVector.from_unscaled(VALUES, SPEC)
    expected = {
        "words": reference.words,
        "negative": reference.negative,
        "packed": reference.to_compact(),
    }
    for _ in range(ROUNDS):
        shared = DecimalVector.from_int64(np.array(VALUES, dtype=np.int64), SPEC)

        def read(reader):
            # Readers start on different members, so each may be first, and
            # keep reading, copying what they saw at once: a fill that
            # published its planes before writing them would hand out zeros.
            seen = []
            for step in range(reader, reader + 12):
                member = step % 3
                if member == 0:
                    seen.append(("words", shared.words.copy()))
                elif member == 1:
                    seen.append(("negative", shared.negative.copy()))
                else:
                    seen.append(("packed", shared.to_compact()))
            return seen

        for seen in race(read):
            for member, array in seen:
                assert np.array_equal(array, expected[member]), member
        assert shared.to_unscaled() == VALUES


def test_first_lane_bound_of_a_shared_vector():
    bound = max(abs(value) for value in VALUES)
    for _ in range(ROUNDS):
        # Planes only: the first reader folds the lanes, then measures.
        shared = DecimalVector.from_unscaled(VALUES, SPEC)
        assert race(lambda reader: shared.lane_bound()) == [bound] * READERS
        assert shared.take(np.arange(3)).lane_bound() == bound


def test_first_data_read_of_a_built_column():
    expected = DecimalVector.from_unscaled(VALUES, SPEC).to_compact()
    for _ in range(ROUNDS):
        built = Column.decimal_from_vector(
            "v", DecimalVector.from_int64(np.array(VALUES, dtype=np.int64), SPEC)
        )
        twin = built.renamed("w")
        assert built._data is None  # packed on first read

        def read(reader):
            column = built if reader % 2 else twin
            return column.data.copy(), column.bytes_stored, column.rows

        for data, stored, rows in race(read):
            assert np.array_equal(data, expected)
            assert (stored, rows) == (expected.nbytes, len(VALUES))


def test_first_expansion_of_a_shared_column():
    base = Column.decimal_from_unscaled("v", VALUES, SPEC)
    indices = np.arange(len(VALUES))[::-3]
    expected = DecimalVector.from_unscaled([VALUES[i] for i in indices], SPEC)
    for _ in range(ROUNDS):
        # One column unpacks its bytes, one gathers the base's lanes.
        packed = Column("v", base.column_type, base.take(indices).data)
        taken = base.take(indices)
        for column in (packed, taken):
            vectors = race(lambda reader, column=column: column.decimal_vector())
            for vector in vectors:
                assert np.array_equal(vector.words, expected.words)
                assert np.array_equal(vector.negative, expected.negative)
                assert np.array_equal(vector.to_compact(), column.data)
            assert column.unscaled() == expected.to_unscaled()


def test_first_gather_of_a_shared_view():
    base = Column.chars("s", [f"k{i % 37}" for i in range(len(VALUES))], 4)
    indices = np.arange(len(VALUES))[::-3]
    expected = np.take(base.data, indices)
    for _ in range(ROUNDS):
        view = base.take(indices)
        for data in race(lambda reader, view=view: view.data.copy()):
            assert np.array_equal(data, expected)


def test_first_key_codes_and_build_side_of_a_shared_column():
    keys = [(i * 7919) % 613 for i in range(len(VALUES))]
    reference = Column.integers("k", keys)
    codes, values = physical._key_codes(reference)
    lengths, starts, order = reference.derive("build_side", physical._build_side)
    probe = Column.integers("p", list(range(0, 700, 3)))
    pairs = physical._JoinOp(None, [])._matches(probe, reference)
    for _ in range(ROUNDS // 3):
        # Each round a fresh column (a new version) and a fresh join node:
        # readers race the column's first coding, or its first build side,
        # or the node's first probe map and runs, which need both.
        shared = Column.integers("k", keys)
        node = physical._JoinOp(None, [])

        def read(reader, shared=shared, node=node):
            step = reader % 3
            if step == 0:
                return "codes", [array.copy() for array in physical._key_codes(shared)]
            if step == 1:
                build = shared.derive("build_side", physical._build_side)
                return "build", [array.copy() for array in build]
            return "join", [array.copy() for array in node._matches(probe, shared)]

        expected = {
            "codes": [codes, values],
            "build": [lengths, starts, order],
            "join": list(pairs),
        }
        for kind, arrays in race(read):
            for got, want in zip(arrays, expected[kind]):
                assert np.array_equal(got, want), kind
