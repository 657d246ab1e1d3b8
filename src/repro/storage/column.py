"""Columnar storage.

Decimal columns hold their values in the *compact* byte-aligned layout of
section III-B (an ``(N, Lb)`` uint8 matrix) -- exactly what the simulated
kernels load and expand.  Other types use plain numpy arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.decimal.context import DecimalSpec
from repro.core.decimal.vectorized import DecimalVector
from repro.errors import SchemaError
from repro.storage.codecs import DEFAULT_CHUNK_ROWS, DecimalCodec, EncodedColumn
from repro.storage.schema import (
    CharType,
    ColumnType,
    DateType,
    DecimalType,
    DoubleType,
    IntType,
)


#: Process-wide source of column version numbers.  Every Column construction
#: (including the fresh Columns built by ``take``/``head``) draws a new
#: version, so a cached register expansion can never outlive the compact
#: bytes it was expanded from.
_VERSIONS = itertools.count(1)

_INT64_MIN = -(1 << 63)


@dataclass
class Column:
    """One named column of a relation."""

    name: str
    column_type: ColumnType
    data: np.ndarray  # (N, Lb) uint8 for DECIMAL; (N,) otherwise
    #: Wire/disk codec for DECIMAL columns; ``None`` ships compact bytes
    #: as-is with no zone-map index (the pre-codec behaviour).
    codec: Optional[DecimalCodec] = None
    #: Rows per encoded chunk / zone map; ``None`` -> codec default.
    encoding_chunk_rows: Optional[int] = None
    _version: int = field(init=False, repr=False, compare=False)
    _vector_cache: "Optional[Tuple[int, DecimalVector]]" = field(
        init=False, repr=False, compare=False, default=None
    )
    #: Set by :meth:`take` and :meth:`head` when the source column's
    #: expansion was cached, or was itself to be gathered: that vector and
    #: the row indices, which :meth:`decimal_vector` gathers (lanes
    #: included) instead of unpacking ``data``.
    _taken_from: "Optional[Tuple[DecimalVector, np.ndarray]]" = field(
        init=False, repr=False, compare=False, default=None
    )
    _encoding_cache: "Optional[Tuple[int, EncodedColumn]]" = field(
        init=False, repr=False, compare=False, default=None
    )
    #: Version-keyed planner statistics (an ``engine.plan.stats.ColumnStats``;
    #: typed loosely so storage stays independent of the engine layer).
    _stats_cache: "Optional[Tuple[int, object]]" = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        self._version = next(_VERSIONS)
        if isinstance(self.column_type, DecimalType):
            expected = self.column_type.spec.compact_bytes
            if self.data.ndim != 2 or self.data.shape[1] != expected:
                raise SchemaError(
                    f"decimal column {self.name!r} needs shape (N, {expected}), "
                    f"got {self.data.shape}"
                )

    @property
    def version(self) -> int:
        """Cache key for derived forms; bumped whenever ``data`` may change."""
        return self._version

    def invalidate(self) -> None:
        """Bump the version after an in-place edit of ``data``.

        Anything that mutates the compact bytes directly (the storage layer
        itself never does; tests and loaders might) must call this so a
        stale register expansion is never served.
        """
        self._version = next(_VERSIONS)
        self._vector_cache = None
        self._taken_from = None
        self._encoding_cache = None
        self._stats_cache = None

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def bytes_stored(self) -> int:
        """Bytes this column occupies on disk / in memory."""
        return int(self.data.nbytes)

    @property
    def wire_bytes(self) -> int:
        """Bytes this column puts on the PCIe wire under its codec.

        Falls back to :attr:`bytes_stored` when no codec is attached (or
        the column is not DECIMAL), so pre-codec accounting is unchanged.
        """
        if self.codec is None or not isinstance(self.column_type, DecimalType):
            return self.bytes_stored
        return self.encoding().wire_bytes

    # ------------------------------------------------------------- decimals

    @classmethod
    def decimal_from_unscaled(
        cls, name: str, values: Iterable[int], spec: DecimalSpec
    ) -> "Column":
        """Build a DECIMAL column from signed unscaled integers.

        Signed integers within int64 and ``spec`` build int64 lanes
        directly; anything else (wider or out-of-spec values, floats,
        strings, bools) takes :meth:`DecimalVector.from_unscaled`, with its
        bytes or its error.  Either way the column keeps the vector it was
        packed from.
        """
        values = list(values)
        lanes = _int64_lanes(values, spec)
        if lanes is None:
            vector = DecimalVector.from_unscaled(values, spec)
        else:
            vector = DecimalVector.from_int64(lanes, spec)
        return cls.decimal_from_vector(name, vector)

    @classmethod
    def decimal_from_vector(cls, name: str, vector: DecimalVector) -> "Column":
        """A DECIMAL column packed from ``vector``, kept as its cached expansion.

        A vector whose sign plane marks a zero is not kept: packing drops
        that sign, and the cached expansion must equal what
        :meth:`decimal_vector` would unpack from ``data``.
        """
        column = cls(name, DecimalType(vector.spec), vector.to_compact())
        if not vector.has_negative_zero():
            column._vector_cache = (column._version, vector)
        return column

    def decimal_vector(self) -> DecimalVector:
        """Expand to register form (what a kernel's load phase does).

        The expansion is cached against :attr:`version`, so repeated calls
        across operators and queries run ``unpack_column`` once; a column
        built by :meth:`take` or :meth:`head` from an expanded one gathers
        that expansion instead, and one built from a vector
        (:meth:`decimal_from_vector`) starts with it.  Callers receive a
        *shared* vector and must honour the
        :class:`~repro.core.decimal.vectorized.DecimalVector` aliasing
        contract: never write into its planes (``.copy()`` first).
        """
        spec = self._decimal_spec()
        cached = self._vector_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        source = self._taken_from
        if source is not None:
            vector = source[0].take(source[1])
        else:
            vector = DecimalVector.from_compact(self.data, spec)
        self._vector_cache = (self._version, vector)
        return vector

    def unscaled(self) -> List[int]:
        """Signed unscaled values (oracle interface)."""
        return self.decimal_vector().to_unscaled()

    def _decimal_spec(self) -> DecimalSpec:
        if not isinstance(self.column_type, DecimalType):
            raise SchemaError(f"column {self.name!r} is not DECIMAL")
        return self.column_type.spec

    # ---------------------------------------------------------------- codecs

    def with_codec(
        self, codec: Optional[DecimalCodec], chunk_rows: Optional[int] = None
    ) -> "Column":
        """A new Column over the same compact bytes with ``codec`` attached."""
        self._decimal_spec()
        return Column(
            self.name,
            self.column_type,
            self.data,
            codec=codec,
            encoding_chunk_rows=chunk_rows,
        )

    def encoding(self) -> EncodedColumn:
        """Encode under the attached codec (chunked, zone maps included).

        Version-keyed like :meth:`decimal_vector`: the encode runs once per
        (data, codec) generation.  ``Database.append`` builds the next
        version with :meth:`appended`, which encodes it before it is
        published -- snapshot isolation for zone maps.
        """
        if self.codec is None:
            raise SchemaError(f"column {self.name!r} has no storage codec")
        self._decimal_spec()
        cached = self._encoding_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        encoded = self._encode(self.codec, self.decimal_vector(), 0)
        self._encoding_cache = (self._version, encoded)
        return encoded

    def _encode(
        self, codec: DecimalCodec, vector: DecimalVector, row_start: int
    ) -> EncodedColumn:
        """Encode the rows ``row_start:``, whose expansion is ``vector``.

        The codec reads int64 lanes whenever every value fits 63 bits, and
        Python ints only otherwise.
        """
        values: Union[np.ndarray, List[int], None] = vector.to_int64()
        if values is None:
            values = vector.to_unscaled()
        return codec.encode_column(
            self.data[row_start:],
            values,
            self._decimal_spec(),
            chunk_rows=self.encoding_chunk_rows or DEFAULT_CHUNK_ROWS,
            row_start=row_start,
        )

    def cached_encoding(self) -> Optional[EncodedColumn]:
        """The current-version encoding if already materialised, else None.

        Lets filter operators use encoded-byte comparisons only when the
        scan (or the cost model) has already paid for the encode.
        """
        if self.codec is None:
            return None
        cached = self._encoding_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        return None

    def appended(self, addition: "Column") -> "Column":
        """The next version: this column's rows followed by ``addition``'s.

        A DECIMAL version carries what the old one already paid for: a
        cached register expansion is extended by the new rows' expansion
        (int64 lanes when both have them memoized, planes otherwise),
        and every full chunk of a cached encoding is reused by reference,
        zone map included, so only the last partial chunk and the new rows
        are encoded (each chunk depends only on its own rows).  Without a
        cached encoding the new version is encoded from scratch.  Either
        way a codec column is encoded here, before the caller publishes
        it, so rows the codec cannot hold raise
        :class:`~repro.errors.StorageError`.  Statistics are not carried:
        equi-depth buckets do not merge exactly.

        This Column is never modified.  Reader threads may be filling its
        caches, so each is read once; what is carried is shared under the
        ``DecimalVector`` aliasing contract.
        """
        merged = Column(
            self.name,
            self.column_type,
            np.concatenate([self.data, addition.data], axis=0),
            codec=self.codec,
            encoding_chunk_rows=self.encoding_chunk_rows,
        )
        if not isinstance(self.column_type, DecimalType):
            return merged
        spec = self.column_type.spec
        vector_cache = self._vector_cache
        if vector_cache is not None and vector_cache[0] == self._version:
            vector = DecimalVector.concatenate(
                [vector_cache[1], addition.decimal_vector()], spec
            )
            merged._vector_cache = (merged._version, vector)
        if self.codec is None:
            return merged
        encoding_cache = self._encoding_cache
        if encoding_cache is None or encoding_cache[0] != self._version:
            merged.encoding()
            return merged
        prefix = encoding_cache[1]
        full = self.rows // prefix.chunk_rows
        tail_start = full * prefix.chunk_rows
        tail = merged._encode(
            self.codec,
            DecimalVector.from_compact(merged.data[tail_start:], spec),
            tail_start,
        )
        encoded = EncodedColumn(
            codec=self.codec,
            spec=spec,
            chunk_rows=prefix.chunk_rows,
            chunks=prefix.chunks[:full] + tail.chunks,
        )
        merged._encoding_cache = (merged._version, encoded)
        return merged

    # ------------------------------------------------------------ statistics

    def cached_stats(self) -> Optional[object]:
        """The current-version planner statistics, or None if stale/absent.

        Collection itself lives in :mod:`repro.engine.plan.stats`; this
        hook only stores the result against :attr:`version`, mirroring the
        vector/encoding caches, so ``Database.append`` (fresh Columns) and
        :meth:`invalidate` naturally discard stale statistics.
        """
        cached = self._stats_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        return None

    def store_stats(self, stats: object) -> None:
        """Cache planner statistics for the current column version."""
        self._stats_cache = (self._version, stats)

    # --------------------------------------------------------------- others

    @classmethod
    def doubles(cls, name: str, values: Sequence[float]) -> "Column":
        return cls(name, DoubleType(), np.asarray(values, dtype=np.float64))

    @classmethod
    def integers(cls, name: str, values: Sequence[int]) -> "Column":
        return cls(name, IntType(), np.asarray(values, dtype=np.int64))

    @classmethod
    def dates(cls, name: str, values: Sequence[int]) -> "Column":
        return cls(name, DateType(), np.asarray(values, dtype=np.int32))

    @classmethod
    def chars(cls, name: str, values: Sequence[str], width: int) -> "Column":
        data = np.asarray([v[:width].ljust(width) for v in values], dtype=f"S{width}")
        return cls(name, CharType(width), data)

    def take(self, indices: np.ndarray) -> "Column":
        """Row subset (selection vectors from filters).

        A DECIMAL column whose expansion is cached hands it on: the subset's
        :meth:`decimal_vector` gathers that vector's rows (its lanes, when
        they answer) on first use.
        """
        taken = Column(
            self.name,
            self.column_type,
            np.take(self.data, indices, axis=0),
            codec=self.codec,
            encoding_chunk_rows=self.encoding_chunk_rows,
        )
        self._carry(taken, indices)
        return taken

    def head(self, count: int) -> "Column":
        """First ``count`` rows (LIMIT, benchmark sampling); carries like :meth:`take`."""
        kept = Column(
            self.name,
            self.column_type,
            self.data[:count],
            codec=self.codec,
            encoding_chunk_rows=self.encoding_chunk_rows,
        )
        self._carry(kept, np.arange(kept.rows))
        return kept

    def _carry(self, derived: "Column", indices: np.ndarray) -> None:
        """Let ``derived``, this column's rows ``indices``, gather this
        column's cached expansion, or the one it would gather itself (the
        indices compose), instead of unpacking its own bytes."""
        cached = self._vector_cache
        if cached is not None and cached[0] == self._version:
            derived._taken_from = (cached[1], indices)
            return
        source = self._taken_from
        if source is not None:
            derived._taken_from = (source[0], source[1][indices])


def _int64_lanes(values: list, spec: DecimalSpec) -> Optional[np.ndarray]:
    """``values`` as int64 lanes when they are signed integers within int64
    and ``spec``, else None (``np.array`` infers no int64 dtype for floats,
    strings, bools alone or integers of ``2**63`` and more)."""
    try:
        lanes = np.array(values)
    except (ValueError, TypeError, OverflowError):
        return None
    if lanes.dtype != np.int64 or lanes.ndim != 1 or not lanes.size:
        return None
    low, high = int(lanes.min()), int(lanes.max())
    limit = spec.max_unscaled
    if low == _INT64_MIN or low < -limit or high > limit:
        return None
    return lanes
