"""Per-column statistics: NDV, equi-depth histograms, null counts.

The cost model's selectivities and join cardinalities were System-R
constants until PR 8's zone maps refined scans with measured min/max
ranges.  This module extends that from ranges to distributions:

* **NDV** -- the number of distinct values, counted exactly below
  :data:`NDV_EXACT_CAP` rows and estimated with a KMV (k-minimum-values)
  distinct sketch above it, so collection stays one bounded pass even on
  relations far larger than the planner should materialise;
* **equi-depth histograms** over the *unscaled* integer values of DECIMAL
  columns (the same domain the zone maps and the encoded-byte filters
  compare in), giving literal predicates data-aware selectivities;
* **null counts**, kept for format fidelity (the engine stores no NULLs).

Statistics are collected lazily, per column *version*, and cached on the
:class:`~repro.storage.column.Column` itself through the same hook the
register-expansion and encoding caches use -- so ``Database.append``
(which builds fresh Column objects) naturally invalidates, and snapshot
readers keep the statistics of the rows they started with.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.storage.column import Column
from repro.storage.schema import DecimalType

#: Row cap for exact distinct counting; larger columns fall back to the
#: KMV sketch.  Exact counting is a sort/set pass -- fine at catalog
#: build sizes, wasteful past a few hundred thousand rows.
NDV_EXACT_CAP = 262_144

#: Sketch size: the estimate keeps the K smallest 64-bit value hashes.
KMV_K = 256

#: Maximum equi-depth histogram buckets per column.
HISTOGRAM_BUCKETS = 64

_HASH_SPACE = float(1 << 64)


@dataclass(frozen=True)
class HistogramBucket:
    """One equi-depth bucket: value range, row count, distinct count."""

    lo: int
    hi: int
    rows: int
    ndv: int

    def equal_rows(self, target: int) -> float:
        """Estimated rows equal to ``target`` (per-bucket uniformity)."""
        if target < self.lo or target > self.hi:
            return 0.0
        return self.rows / max(self.ndv, 1)

    def rows_below(self, target: int, inclusive: bool) -> float:
        """Estimated rows with value < target (or <= with ``inclusive``)."""
        if target < self.lo:
            return 0.0
        if target > self.hi or (inclusive and target == self.hi):
            return float(self.rows)
        span = self.hi - self.lo
        if span == 0:
            # Single-valued bucket: all rows equal ``lo``.
            matches = target > self.lo or (inclusive and target == self.lo)
            return float(self.rows) if matches else 0.0
        # Linear interpolation over the integer domain [lo, hi].
        position = (target - self.lo + (1 if inclusive else 0)) / (span + 1)
        return self.rows * min(max(position, 0.0), 1.0)


@dataclass(frozen=True)
class ColumnHistogram:
    """Equi-depth histogram over a column's unscaled decimal values."""

    buckets: Tuple[HistogramBucket, ...]
    total_rows: int

    def fraction(self, op: str, target: int) -> Optional[float]:
        """Estimated fraction of rows satisfying ``value <op> target``."""
        if self.total_rows <= 0 or not self.buckets:
            return None
        if op == "=":
            matching = sum(bucket.equal_rows(target) for bucket in self.buckets)
        elif op == "<>":
            matching = self.total_rows - sum(
                bucket.equal_rows(target) for bucket in self.buckets
            )
        elif op == "<":
            matching = sum(bucket.rows_below(target, False) for bucket in self.buckets)
        elif op == "<=":
            matching = sum(bucket.rows_below(target, True) for bucket in self.buckets)
        elif op == ">":
            matching = self.total_rows - sum(
                bucket.rows_below(target, True) for bucket in self.buckets
            )
        elif op == ">=":
            matching = self.total_rows - sum(
                bucket.rows_below(target, False) for bucket in self.buckets
            )
        else:
            return None
        return min(max(matching / self.total_rows, 0.0), 1.0)


@dataclass(frozen=True)
class ColumnStats:
    """Planner-visible statistics of one column (one column version)."""

    rows: int
    ndv: int
    #: False when :attr:`ndv` came from the KMV sketch rather than an
    #: exact count (so consumers can widen error bars if they care).
    exact_ndv: bool
    null_count: int = 0
    #: Present only for DECIMAL columns (the domain the zone maps share).
    histogram: Optional[ColumnHistogram] = None


def _hash64(value: object) -> int:
    """Deterministic 64-bit hash (stable across processes and runs)."""
    digest = hashlib.blake2b(repr(value).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def sketch_ndv(values: Sequence, k: int = KMV_K) -> int:
    """KMV distinct-count estimate: keep the K smallest value hashes.

    With H the k-th smallest of the distinct 64-bit hashes, the distinct
    count is ~ (k - 1) / (H / 2^64).  Exact when fewer than K distinct
    hashes exist (the sketch simply saw every one).
    """
    hashes = sorted({_hash64(value) for value in values})
    if len(hashes) < k:
        return len(hashes)
    kth = hashes[k - 1]
    if kth == 0:
        return len(hashes)
    return max(int(round((k - 1) * _HASH_SPACE / kth)), k)


def build_histogram(
    unscaled: Sequence[int], buckets: int = HISTOGRAM_BUCKETS
) -> Optional[ColumnHistogram]:
    """Equi-depth histogram over unscaled decimal values."""
    total = len(unscaled)
    if total == 0:
        return None
    ordered = sorted(unscaled)
    count = min(buckets, total)
    built: List[HistogramBucket] = []
    for index in range(count):
        start = (index * total) // count
        stop = ((index + 1) * total) // count
        if stop <= start:
            continue
        chunk = ordered[start:stop]
        distinct = 1 + sum(
            1 for i in range(1, len(chunk)) if chunk[i] != chunk[i - 1]
        )
        built.append(
            HistogramBucket(lo=chunk[0], hi=chunk[-1], rows=len(chunk), ndv=distinct)
        )
    return ColumnHistogram(buckets=tuple(built), total_rows=total)


def _sorted_lane_stats(
    ordered: np.ndarray, exact_cap: int, buckets: int
) -> ColumnStats:
    """:func:`collect_column_stats` over a DECIMAL column's sorted int64 lanes.

    The exact NDV and every bucket of :func:`build_histogram` come from the
    one sorted array; the stored fields are Python ints.
    """
    total = int(ordered.size)
    if total == 0:
        return ColumnStats(rows=0, ndv=0, exact_ndv=True)
    # changes[i] counts the value changes before row i, so rows
    # [start, stop) hold 1 + changes[stop - 1] - changes[start] values.
    changes = np.zeros(total, dtype=np.int64)
    np.cumsum(ordered[1:] != ordered[:-1], out=changes[1:])
    count = min(buckets, total)  # so every bucket holds at least one row
    bounds = (np.arange(count + 1, dtype=np.int64) * total) // count
    start, stop = bounds[:-1], bounds[1:]
    histogram = ColumnHistogram(
        buckets=tuple(
            HistogramBucket(lo=lo, hi=hi, rows=rows, ndv=ndv)
            for lo, hi, rows, ndv in zip(
                ordered[start].tolist(),
                ordered[stop - 1].tolist(),
                (stop - start).tolist(),
                (1 + changes[stop - 1] - changes[start]).tolist(),
            )
        ),
        total_rows=total,
    )
    if total <= exact_cap:
        return ColumnStats(
            rows=total, ndv=1 + int(changes[-1]), exact_ndv=True, histogram=histogram
        )
    # The sketch hashes ``repr`` of Python ints, never of numpy scalars.
    return ColumnStats(
        rows=total,
        ndv=min(sketch_ndv(ordered.tolist()), total),
        exact_ndv=False,
        histogram=histogram,
    )


def collect_column_stats(
    column: Column,
    exact_cap: int = NDV_EXACT_CAP,
    histogram_buckets: int = HISTOGRAM_BUCKETS,
) -> ColumnStats:
    """Compute statistics for one column (no caching -- see :func:`column_stats`).

    A DECIMAL column whose values fit 63 bits sorts its int64 lanes once
    (:func:`_sorted_lane_stats`); wider values go through Python ints.
    """
    if isinstance(column.column_type, DecimalType):
        lanes = column.decimal_vector().to_int64()
        if lanes is not None:
            return _sorted_lane_stats(np.sort(lanes), exact_cap, histogram_buckets)
        values: Sequence = column.unscaled()
        histogram = build_histogram(values, histogram_buckets)
    else:
        values = column.data.tolist()
        histogram = None
    rows = len(values)
    if rows <= exact_cap:
        ndv = len(set(values))
        exact = True
    else:
        ndv = min(sketch_ndv(values), rows)
        exact = False
    return ColumnStats(
        rows=rows, ndv=ndv, exact_ndv=exact, null_count=0, histogram=histogram
    )


def column_stats(column: Column) -> ColumnStats:
    """Statistics for a column, cached against its version.

    The cache lives on the Column (see
    :meth:`~repro.storage.column.Column.cached_stats`), so every query --
    and every concurrent session sharing the catalog -- pays collection
    once per column version, and ``Database.append`` swapping in fresh
    Columns invalidates for new readers without touching old snapshots.
    """
    return column.derive("stats", collect_column_stats)
