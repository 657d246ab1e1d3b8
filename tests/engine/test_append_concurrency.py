"""Readers race the writer whose appends carry their caches.

``Database.append`` reads the current column version's register-expansion
and encoding caches, which reader threads may be filling at that moment.
More reader threads than cores query whichever version is current while
one writer appends; a short switch interval forces fine interleavings.
Every read must see exactly one snapshot, and every version's carried
encoding must equal a from-scratch encode.  The readers repeat three
texts from the shared plan cache.  The two join-free ones keep their
plans across appends, so each reader plans them at most once; the join
to a small static table plans again as each new version makes its
cached plan stale, so planning still races the writer.
"""

import os
import random
import sys
import threading
import time
from collections import Counter

from repro.core.decimal.context import DecimalSpec
from repro.engine import Database
from repro.storage.codecs import CompactCodec, ForCodec, OrderPreservingCodec
from repro.storage.column import Column
from repro.storage.relation import Relation

from tests.storage.test_append_carry import assert_same_encoding, fresh_encoding

SPEC = DecimalSpec(9, 2)
CHUNK_ROWS = 5
APPENDS = 40
READERS = 2 * (os.cpu_count() or 1) + 2
#: Seconds every thread together gets to finish (the test takes about 3).
JOIN_TIMEOUT = 120.0
READS = (
    "SELECT COUNT(*), SUM(v), SUM(w), SUM(x) FROM t",
    "SELECT COUNT(*), SUM(w), MAX(x) FROM t WHERE v >= 0",
    "SELECT COUNT(*), SUM(w) FROM t JOIN k ON v = kv",
)
JOIN_READ = READS[2]


def expected_results(rows, keys):
    """Each read's answer over the first ``len(rows)`` rows, ``keys``
    the static table's distinct ``kv`` values."""
    kept = [row for row in rows if row[0] >= 0]
    matched = [row for row in rows if row[0] in keys]
    return {
        READS[0]: (len(rows), sum(r[0] for r in rows), sum(r[1] for r in rows),
                   sum(r[2] for r in rows)),
        READS[1]: (len(kept), sum(r[1] for r in kept),
                   max((r[2] for r in kept), default=None)),
        JOIN_READ: (len(matched), sum(r[1] for r in matched) if matched else None),
    }


def cold(column):
    """A new version of ``column`` over the same bytes, with empty caches."""
    return Column(
        column.name, column.column_type, column.data, column.codec,
        column.encoding_chunk_rows,
    )


def as_text(unscaled):
    sign = "-" if unscaled < 0 else ""
    whole, cents = divmod(abs(unscaled), 100)
    return f"{sign}{whole}.{cents:02d}"


def test_readers_race_the_carrying_writer():
    rng = random.Random(17)

    def row():
        return tuple(rng.randint(-10**8, 10**8) for _ in range(3))

    initial = [row() for _ in range(12)]
    batches = [[row() for _ in range(rng.choice([0, 1, 3, 5, 9]))] for _ in range(APPENDS)]
    relation = Relation(
        "t",
        [
            Column.decimal_from_unscaled(name, [r[i] for r in initial], SPEC)
            for i, name in enumerate("vwx")
        ],
    ).with_codecs(
        {"v": OrderPreservingCodec(), "w": ForCodec(), "x": CompactCodec()}, CHUNK_ROWS
    )
    keys = sorted({r[0] for r in initial[::2]})
    db = Database(simulate_rows=1_000_000)
    db.catalog.register(relation)
    db.catalog.register(Relation("k", [Column.decimal_from_unscaled("kv", keys, SPEC)]))
    #: Plans made per (thread, text): each thread counts under its own keys.
    planned = Counter()
    put = db.plan_cache.put

    def counting_put(key, entry):
        planned[threading.current_thread().name, key[0]] += 1
        put(key, entry)

    db.plan_cache.put = counting_put

    prefix = list(initial)
    snapshots = {}
    for batch in [[]] + batches:
        prefix += batch
        for sql, answer in expected_results(prefix, set(keys)).items():
            snapshots.setdefault(sql, set()).add(answer)

    versions = [relation]
    failures = []
    reads = [0] * READERS
    done = threading.Event()

    def reader(index):
        try:
            while not done.is_set() or reads[index] == 0:
                sql = READS[reads[index] % len(READS)]
                result = db.execute(sql).rows[0]
                answer = tuple(None if v is None else v.unscaled for v in result)
                if answer not in snapshots[sql]:
                    failures.append((sql, answer))
                reads[index] += 1
        except Exception as error:  # reported by the main thread
            failures.append(error)

    def writer():
        try:
            for number, batch in enumerate(batches):
                if number % 4 == 0:
                    # Publish a cache-cold copy, so readers are filling its
                    # caches while the next append reads them.
                    db.register(Relation("t", [cold(c) for c in versions[-1].columns]), True)
                    time.sleep(0.002)
                literals = [[as_text(value) for value in r] for r in batch]
                versions.append(db.append("t", literals))
        except Exception as error:  # reported by the main thread
            failures.append(error)
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(READERS)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + JOIN_TIMEOUT
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        done.set()
        sys.setswitchinterval(interval)

    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(versions) == APPENDS + 1 and all(reads)
    assert db.plan_cache.hits > 0
    assert all(count == 1 for (_, sql), count in planned.items() if sql != JOIN_READ)
    assert sum(count for (_, sql), count in planned.items() if sql == JOIN_READ) > 1
    assert db.catalog.get("t").rows == len(prefix)
    for version in versions[1:]:
        for column in version.columns:
            carried = column.cached_encoding()
            assert carried is not None
            assert_same_encoding(carried, fresh_encoding(column))
