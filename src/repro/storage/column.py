"""Columnar storage.

Decimal columns hold their values in the *compact* byte-aligned layout of
section III-B (an ``(N, Lb)`` uint8 matrix) -- exactly what the simulated
kernels load and expand.  Other types use plain numpy arrays.

A column either owns its bytes or is a *view*: a selection of another
column's rows (:meth:`Column.take`, :meth:`Column.head`) that gathers
bytes, expansion or key codes from that column only when something reads
them.  A DECIMAL column built from a vector whose lanes provably fit the
compact layout packs its bytes only when something reads them, too.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.decimal.context import DecimalSpec
from repro.core.decimal.vectorized import DecimalVector
from repro.errors import SchemaError, StorageError
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
#: (views included) draws a new version, so a cached register expansion can
#: never outlive the compact bytes it was expanded from.
_VERSIONS = itertools.count(1)

_INT64_MIN = -(1 << 63)

_T = TypeVar("_T")


class Column:
    """One named column of a relation: its own bytes, or a view of another's rows.

    A view (built by :meth:`take` and :meth:`head`) records its root --
    the column that owns the rows -- the root's version, and the row
    indices, composed when a view is taken again.  It answers
    :attr:`rows` and :attr:`bytes_stored` from the indices, gathers the
    root's bytes on the first read of :attr:`data`, and gathers the
    root's expansion in :meth:`decimal_vector`.  A column built by
    :meth:`decimal_from_vector` may likewise hold no bytes yet: it packs
    them from its vector on the first read of :attr:`data`.  Derived forms
    (register expansion, packed bytes, encoding, statistics, key codes,
    build sides) are kept by :meth:`derive`, per :attr:`version`, on the
    column that computed them.
    """

    def __init__(
        self,
        name: str,
        column_type: ColumnType,
        data: np.ndarray,  # (N, Lb) uint8 for DECIMAL; (N,) otherwise
        codec: Optional[DecimalCodec] = None,
        encoding_chunk_rows: Optional[int] = None,
    ) -> None:
        if isinstance(column_type, DecimalType):
            expected = column_type.spec.compact_bytes
            if data.ndim != 2 or data.shape[1] != expected:
                raise SchemaError(
                    f"decimal column {name!r} needs shape (N, {expected}), "
                    f"got {data.shape}"
                )
        self._setup(name, column_type, data, codec, encoding_chunk_rows)

    def _setup(
        self,
        name: str,
        column_type: ColumnType,
        data: Optional[np.ndarray],
        codec: Optional[DecimalCodec] = None,
        encoding_chunk_rows: Optional[int] = None,
    ) -> None:
        """Set the attributes of a new column that owns its rows; ``data``
        is None only for one that packs them later (:meth:`decimal_from_vector`)."""
        self.name = name
        self.column_type = column_type
        #: Wire/disk codec for DECIMAL columns; ``None`` ships compact bytes
        #: as-is with no zone-map index (the pre-codec behaviour).
        self.codec = codec
        #: Rows per encoded chunk / zone map; ``None`` -> codec default.
        self.encoding_chunk_rows = encoding_chunk_rows
        #: The bytes; None for a view that has not gathered them yet, or a
        #: column built from a vector that has not packed them yet.
        self._data: Optional[np.ndarray] = data
        #: ``(root, root version, indices)`` for a view, else None.
        self._view: "Optional[Tuple[Column, int, np.ndarray]]" = None
        self._version = next(_VERSIONS)
        #: Version-keyed derived forms by kind (:meth:`derive`).
        self._derived: Dict[str, Tuple[int, Any]] = {}

    def __repr__(self) -> str:
        view = self._view
        kind = "bytes" if view is None else f"view of {view[0].name!r}"
        return f"Column({self.name!r}, {self.column_type}, {self.rows} rows, {kind})"

    @property
    def version(self) -> int:
        """Cache key for derived forms; bumped whenever ``data`` may change."""
        return self._version

    def invalidate(self) -> None:
        """Bump the version after an in-place edit of ``data``.

        Anything that mutates the compact bytes directly (the storage layer
        itself never does; tests and loaders might) must call this so a
        stale register expansion is never served.  A view gathers its
        bytes first, and a column built from a vector packs them, and from
        then on owns them.
        """
        self._data = self.data
        self._view = None
        self._version = next(_VERSIONS)
        self._derived = {}

    @property
    def rows(self) -> int:
        view = self._view
        if view is not None:
            return len(view[2])
        data = self._data
        return self._cached("vector").rows if data is None else data.shape[0]

    @property
    def bytes_stored(self) -> int:
        """Bytes this column occupies on disk / in memory (a view, or a
        column not yet packed, counts the bytes it would hold without
        gathering or packing them)."""
        data = self._data
        if data is not None:
            return int(data.nbytes)
        if isinstance(self.column_type, DecimalType):
            return self.rows * self.column_type.spec.compact_bytes
        root, _version, indices = self._view
        root_data = root.data
        return len(indices) * (int(root_data.nbytes) // max(root_data.shape[0], 1))

    @property
    def wire_bytes(self) -> int:
        """Bytes this column puts on the PCIe wire under its codec.

        Falls back to :attr:`bytes_stored` when no codec is attached (or
        the column is not DECIMAL), so pre-codec accounting is unchanged.
        """
        if self.codec is None or not isinstance(self.column_type, DecimalType):
            return self.bytes_stored
        return self.encoding().wire_bytes

    # ---------------------------------------------------------------- views

    @property
    def data(self) -> np.ndarray:
        """The stored bytes; a view gathers its root's rows on first read,
        and a column built from a vector packs them on first read."""
        data = self._data
        if data is None:
            root, indices = self.lineage()
            if indices is None:
                # Kept per version, so renamed twins share one array.
                data = self.derive("compact", Column._pack)
            else:
                data = np.take(root.data, indices, axis=0)
            self._data = data
        return data

    def _pack(self) -> np.ndarray:
        """The compact bytes of the vector this column was built from."""
        return self._cached("vector").to_compact()

    @data.setter
    def data(self, data: np.ndarray) -> None:
        """Replace the bytes (then call :meth:`invalidate`); a view stops
        being one."""
        self._data = data
        self._view = None

    def lineage(self) -> "Tuple[Column, Optional[np.ndarray]]":
        """``(root, indices)``: this view's rows are ``root``'s rows
        ``indices``; ``(self, None)`` for a column that owns its bytes.

        A view whose root changed (:meth:`invalidate`) after the take
        answers from the bytes it gathered before, and raises
        :class:`~repro.errors.StorageError` if it gathered none.
        """
        view = self._view
        if view is None:
            return self, None
        root, version, indices = view
        if root._version == version:
            return root, indices
        if self._data is None:
            raise StorageError(
                f"column {self.name!r} is a view of {root.name!r}, which changed "
                "before the view read its rows"
            )
        return self, None

    def take(self, indices: np.ndarray) -> "Column":
        """A view of the rows ``indices`` (selection vectors from filters,
        joins and sorts), composed onto this column's root.

        The view keeps ``indices``: the caller must not write to them.
        """
        (view,) = Column.take_all([self], indices)
        return view

    @staticmethod
    def take_all(columns: Iterable["Column"], indices: np.ndarray) -> List["Column"]:
        """Each column's view of the rows ``indices`` (see :meth:`take`).

        Columns that share one selection -- a filter's, join's or sort's
        output views share its indices -- compose it with ``indices`` once.
        """
        indices = np.asarray(indices, dtype=np.intp)
        composed: Dict[int, np.ndarray] = {}
        views = []
        for column in columns:
            root, selected = column.lineage()
            rows = indices
            if selected is not None:
                # ``selected`` stays alive with ``column``, so its id is unique here.
                rows = composed.get(id(selected))
                if rows is None:
                    rows = composed[id(selected)] = selected[indices]
            views.append(
                column._replace(
                    _data=None,
                    _view=(root, root._version, rows),
                    _version=next(_VERSIONS),
                    _derived={},
                )
            )
        return views

    def head(self, count: int) -> "Column":
        """A view of the first ``count`` rows (LIMIT, benchmark sampling)."""
        return self.take(np.arange(min(count, self.rows)))

    def renamed(self, name: str) -> "Column":
        """This column under ``name``: the same bytes or view, version and
        caches, with nothing copied or gathered."""
        return self._replace(name=name)

    def _replace(self, **changes: object) -> "Column":
        """A shallow copy of this column with ``changes`` to its attributes."""
        column = object.__new__(type(self))
        column.__dict__.update(self.__dict__, **changes)
        return column

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
            vector = DecimalVector.from_int64(lanes[0], spec, bound=lanes[1])
        return cls.decimal_from_vector(name, vector)

    @classmethod
    def decimal_from_vector(cls, name: str, vector: DecimalVector) -> "Column":
        """A DECIMAL column of ``vector``'s values, kept as its cached expansion.

        When the vector's lanes carry a bound below the compact layout's
        sign bit, packing cannot fail, and the bytes are packed on the
        first read of :attr:`data`; otherwise they are packed here, so
        pack's :class:`~repro.errors.ConversionError` surfaces when the
        column is built.  A vector whose sign plane marks a zero is not
        kept: packing drops that sign, and the cached expansion must equal
        what :meth:`decimal_vector` would unpack from ``data``.
        """
        spec = vector.spec
        fits = (
            vector._memoized_lanes() is not None
            and vector.lane_bound() < 1 << (8 * spec.compact_bytes - 1)
        )
        column = object.__new__(cls)
        column._setup(name, DecimalType(spec), None if fits else vector.to_compact())
        if not vector.has_negative_zero():
            column._keep("vector", vector)
        return column

    def decimal_vector(self) -> DecimalVector:
        """Expand to register form (what a kernel's load phase does).

        The expansion is cached against :attr:`version`, so repeated calls
        across operators and queries run ``unpack_column`` once; a view
        gathers its root's expansion instead (its int64 lanes when they
        answer), and a column built from a vector
        (:meth:`decimal_from_vector`) starts with it.  Callers receive a
        *shared* vector and must honour the
        :class:`~repro.core.decimal.vectorized.DecimalVector` aliasing
        contract: never write into its planes (``.copy()`` first).
        """
        return self.derive("vector", Column._expand)

    def _expand(self) -> DecimalVector:
        """The register expansion, computed afresh (see :meth:`decimal_vector`)."""
        spec = self._decimal_spec()
        root, indices = self.lineage()
        if indices is not None:
            return root.decimal_vector().take(indices)
        return DecimalVector.from_compact(self.data, spec)

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
        """A new Column over the same compact bytes with ``codec`` attached,
        keeping this column's current expansion."""
        self._decimal_spec()
        column = Column(
            self.name,
            self.column_type,
            self.data,
            codec=codec,
            encoding_chunk_rows=chunk_rows,
        )
        vector = self._cached("vector")
        if vector is not None:
            column._keep("vector", vector)
        return column

    def encoding(self) -> EncodedColumn:
        """Encode under the attached codec (chunked, zone maps included).

        Version-keyed like :meth:`decimal_vector`: the encode runs once per
        (data, codec) generation.  ``Database.append`` builds the next
        version with :meth:`appended`, which encodes it before it is
        published -- snapshot isolation for zone maps.
        """
        codec = self.codec
        if codec is None:
            raise SchemaError(f"column {self.name!r} has no storage codec")
        return self.derive(
            "encoding", lambda column: column._encode(codec, column.decimal_vector(), 0)
        )

    def _encode(
        self, codec: DecimalCodec, vector: DecimalVector, row_start: int
    ) -> EncodedColumn:
        """Encode the rows ``row_start:``, whose expansion is ``vector``.

        The codec reads each chunk as int64 lanes wherever its values fit
        63 bits, and as Python ints only otherwise.
        """
        return codec.encode_column(
            self.data[row_start:],
            vector,
            chunk_rows=self.encoding_chunk_rows or DEFAULT_CHUNK_ROWS,
            row_start=row_start,
        )

    def cached_encoding(self) -> Optional[EncodedColumn]:
        """The current-version encoding if already materialised, else None.

        Lets filter operators use encoded-byte comparisons only when the
        scan (or the cost model) has already paid for the encode.
        """
        return None if self.codec is None else self._cached("encoding")

    def appended(self, addition: "Column") -> "Column":
        """The next version: this column's rows followed by ``addition``'s.

        A DECIMAL version carries what the old one already paid for: a
        cached register expansion is extended by the new rows' expansion
        (int64 lanes when both have them memoized, planes otherwise),
        and every full chunk of a cached encoding is reused by reference,
        zone map included, so only the last partial chunk and the new rows
        are encoded (each chunk depends only on its own rows), from a slice
        of the carried expansion.  Without a cached encoding the new version
        is encoded from scratch.  Either way a codec column is encoded here,
        before the caller publishes it, so rows the codec cannot hold raise
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
        # The encoding is read first: :meth:`encoding` fills the expansion
        # before it, so a current encoding comes with a current expansion,
        # and ``merged.decimal_vector()`` below returns the carried one.
        prefix = self._cached("encoding")
        vector = self._cached("vector")
        if vector is not None:
            merged._keep(
                "vector", DecimalVector.concatenate([vector, addition.decimal_vector()], spec)
            )
        if self.codec is None:
            return merged
        if prefix is None:
            merged.encoding()
            return merged
        full = self.rows // prefix.chunk_rows
        tail_start = full * prefix.chunk_rows
        tail = merged._encode(
            self.codec, merged.decimal_vector().tail(tail_start), tail_start
        )
        merged._keep(
            "encoding",
            EncodedColumn(
                codec=self.codec,
                spec=spec,
                chunk_rows=prefix.chunk_rows,
                chunks=prefix.chunks[:full] + tail.chunks,
            ),
        )
        return merged

    # --------------------------------------------------------- derived forms

    def derive(self, kind: str, compute: "Callable[[Column], _T]") -> "_T":
        """``compute(self)``, computed once per version and kept with this column.

        Reader threads may race the first fill: each computes an equal
        value, and one assignment publishes it.
        """
        version = self._version
        hit = self._derived.get(kind)
        if hit is not None and hit[0] == version:
            return hit[1]
        value = compute(self)
        self._derived[kind] = (version, value)
        return value

    def _cached(self, kind: str) -> Optional[Any]:
        """The current-version ``kind`` if :meth:`derive` has kept it, else None."""
        hit = self._derived.get(kind)
        return hit[1] if hit is not None and hit[0] == self._version else None

    def _keep(self, kind: str, value: Any) -> None:
        """Keep ``value`` as this version's ``kind``, as :meth:`derive` would."""
        self._derived[kind] = (self._version, value)

    def cached_stats(self) -> Optional[object]:
        """The current-version planner statistics, or None if stale/absent.

        Collection itself lives in :mod:`repro.engine.plan.stats`, which
        keeps its result with :meth:`derive` under ``"stats"``, so
        ``Database.append`` (fresh Columns) and :meth:`invalidate`
        naturally discard stale statistics.
        """
        return self._cached("stats")

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


def _int64_lanes(values: list, spec: DecimalSpec) -> Optional[Tuple[np.ndarray, int]]:
    """``(lanes, max|lane|)`` when ``values`` are signed integers within
    int64 and ``spec``, else None (``np.array`` infers no int64 dtype for
    floats, strings, bools alone or integers of ``2**63`` and more)."""
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
    return lanes, max(-low, high)
