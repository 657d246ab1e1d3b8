"""Pluggable storage codecs for decimal columns, with per-chunk zone maps.

The compact ``(N, Lb)`` layout of section III-B is a *fixed-width*
encoding: every row pays for the declared precision's worst case, and the
streaming model (DESIGN.md §5) is transfer-bound exactly where those bytes
cross PCIe.  This module turns bytes-on-the-wire into a per-column choice:

* :class:`CompactCodec` -- the existing layout, unchanged on the wire;
* :class:`OrderPreservingCodec` -- a decimalInfinite-style variable-length
  encoding (:mod:`repro.core.decimal.dinf`) whose byte order equals
  numeric order, so filters on values past int64 compare encoded bytes
  instead of limbs;
* :class:`ForCodec` -- the section IV-D1 frame-of-reference case study:
  each chunk stores its rows as fixed-width deltas from the chunk minimum
  its zone map records, so the width follows the chunk's own spread and
  holds any value the column does.

Every codec (compact included) records a :class:`ZoneMap` per chunk at
encode time -- min/max unscaled value, null and zero counts -- so scans
skip chunks a pushed-down filter provably rejects and the cost model
refines selectivity estimates from real data ranges.

The compact matrix stays the in-memory source of truth on
:class:`~repro.storage.column.Column`; an :class:`EncodedColumn` is the
wire/disk representation the scan, streaming, residency and cost layers
charge.  Results always materialise from the compact bytes, so codecs can
never change answers -- only the simulated byte volume and the filter
evaluation strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.decimal import dinf
from repro.core.decimal.context import DecimalSpec
from repro.errors import StorageError

#: Rows per encoded chunk (and zone map) unless the column overrides it.
DEFAULT_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class ZoneMap:
    """Per-chunk statistics recorded at encode time.

    ``min_unscaled``/``max_unscaled`` are exact (computed from the data,
    not the spec), so both pruning verdicts are sound: a chunk whose whole
    range fails a predicate can be skipped, one whose whole range passes
    needs no per-row work.  The engine stores no NULLs, so ``null_count``
    is always 0 here -- kept in the format for fidelity with the
    decimalInfinite-style on-disk layout.
    """

    row_start: int
    rows: int
    min_unscaled: int
    max_unscaled: int
    null_count: int = 0
    zero_count: int = 0

    @property
    def row_stop(self) -> int:
        return self.row_start + self.rows

    def evaluate(self, op: str, literal: int) -> Optional[bool]:
        """Chunk-level verdict of ``column <op> literal``.

        ``True``: every row matches; ``False``: no row matches; ``None``:
        the zone cannot decide and rows must be compared individually.
        """
        lo, hi = self.min_unscaled, self.max_unscaled
        if op == "<":
            return True if hi < literal else (False if lo >= literal else None)
        if op == "<=":
            return True if hi <= literal else (False if lo > literal else None)
        if op == ">":
            return True if lo > literal else (False if hi <= literal else None)
        if op == ">=":
            return True if lo >= literal else (False if hi < literal else None)
        if op == "=":
            if literal < lo or literal > hi:
                return False
            return True if lo == hi == literal else None
        if op == "<>":
            if literal < lo or literal > hi:
                return True
            return False if lo == hi == literal else None
        return None


@dataclass
class EncodedChunk:
    """One chunk's encoded payload plus its zone map."""

    zone: ZoneMap
    #: Codec-specific byte matrix, ``(rows, width)`` uint8 (zero-padded for
    #: variable-length codecs; see :func:`repro.core.decimal.dinf.encode`).
    data: np.ndarray
    #: Per-row true encoded lengths; ``None`` for fixed-width codecs.
    lengths: Optional[np.ndarray]
    #: Bytes this chunk puts on the wire (padding excluded).
    wire_bytes: int


@dataclass
class EncodedColumn:
    """A decimal column's wire representation under one codec."""

    codec: "DecimalCodec"
    spec: DecimalSpec
    chunk_rows: int
    chunks: List[EncodedChunk] = field(default_factory=list)

    @property
    def rows(self) -> int:
        return sum(chunk.zone.rows for chunk in self.chunks)

    @property
    def wire_bytes(self) -> int:
        return sum(chunk.wire_bytes for chunk in self.chunks)

    @property
    def zones(self) -> List[ZoneMap]:
        return [chunk.zone for chunk in self.chunks]

    def decode(self) -> List[int]:
        """Signed unscaled values of every chunk, in row order (round-trip oracle)."""
        codec = self.codec
        return [v for chunk in self.chunks for v in codec.decode_chunk(chunk, self.spec)]


class DecimalCodec:
    """Base codec: chunked encode with zone maps, decode, byte compare."""

    name: str = "abstract"
    #: Whether ``memcmp`` over encoded bytes equals numeric comparison.
    order_preserving: bool = False

    # -- per-chunk primitives (codec-specific) ------------------------------

    def _encode_chunk(
        self,
        values: Union[List[int], np.ndarray],
        compact_slice: np.ndarray,
        spec: DecimalSpec,
        zone: ZoneMap,
    ) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
        """Encode one chunk; returns ``(data, lengths, wire_bytes)``.

        ``values`` is an int64 slice or a list of Python ints, as
        :meth:`encode_column` received them; ``zone`` is the chunk's zone
        map, already computed from them.
        """
        raise NotImplementedError

    def decode_chunk(self, chunk: EncodedChunk, spec: DecimalSpec) -> List[int]:
        """Signed unscaled values of one chunk (round-trip oracle)."""
        raise NotImplementedError

    def encode_literal(self, unscaled: int, spec: DecimalSpec) -> np.ndarray:
        """Encode a comparison literal; raises when unrepresentable."""
        raise StorageError(f"codec {self.name!r} cannot encode comparison literals")

    def compare_chunk(self, chunk: EncodedChunk, literal: np.ndarray) -> np.ndarray:
        """Rowwise -1/0/+1 of chunk rows vs an encoded literal."""
        raise StorageError(f"codec {self.name!r} does not compare encoded bytes")

    # -- column-level driver ------------------------------------------------

    def encode_column(
        self,
        compact: np.ndarray,
        unscaled: Union[Sequence[int], np.ndarray],
        spec: DecimalSpec,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        row_start: int = 0,
    ) -> EncodedColumn:
        """Chunk a column, encode each chunk, record its zone map.

        ``unscaled`` is either the column's int64 lanes, when every value
        fits 63 bits (``DecimalVector.to_int64``), or a sequence of Python
        ints, the only form for wider values.  ``row_start`` is the
        absolute row of ``compact[0]``, so a column's tail can be encoded
        on its own (``Column.appended``): each chunk's bytes, padding and
        zone depend only on its own rows.
        """
        if chunk_rows <= 0:
            raise StorageError(f"chunk_rows must be positive, got {chunk_rows}")
        rows = len(unscaled)
        encoded = EncodedColumn(codec=self, spec=spec, chunk_rows=chunk_rows)
        for start in range(0, rows, chunk_rows):
            values = unscaled[start : start + chunk_rows]
            if isinstance(values, np.ndarray):
                lo, hi = int(values.min()), int(values.max())
                zeros = int(np.count_nonzero(values == 0))
            else:
                values = list(values)
                lo, hi = min(values), max(values)
                zeros = sum(1 for v in values if v == 0)
            zone = ZoneMap(
                row_start=row_start + start,
                rows=len(values),
                min_unscaled=lo,
                max_unscaled=hi,
                null_count=0,
                zero_count=zeros,
            )
            data, lengths, wire = self._encode_chunk(
                values, compact[start : start + len(values)], spec, zone
            )
            encoded.chunks.append(EncodedChunk(zone, data, lengths, wire))
        return encoded


class CompactCodec(DecimalCodec):
    """The section III-B byte-aligned layout, chunked with zone maps.

    The wire bytes are identical to the stored bytes; what this codec adds
    over "no codec" is the zone-map index, so scans over clustered data
    still skip chunks even without re-encoding.
    """

    name = "compact"
    order_preserving = False

    def _encode_chunk(self, values, compact_slice, spec, zone):
        data = np.ascontiguousarray(compact_slice)
        return data, None, int(data.nbytes)

    def decode_chunk(self, chunk, spec):
        from repro.core.decimal.vectorized import DecimalVector

        return DecimalVector.from_compact(chunk.data, spec).to_unscaled()


class OrderPreservingCodec(DecimalCodec):
    """decimalInfinite-style variable-length encoding (``repro.core.decimal.dinf``)."""

    name = "dinf"
    order_preserving = True

    def _encode_chunk(self, values, compact_slice, spec, zone):
        if not dinf.supports(spec.max_unscaled):
            raise StorageError(
                f"{spec} exceeds the order-preserving codec's "
                f"{dinf.MAX_MAGNITUDE_BYTES}-byte magnitude cap"
            )
        data, lengths = dinf.encode(values)
        return data, lengths, int(lengths.sum())

    def decode_chunk(self, chunk, spec):
        assert chunk.lengths is not None
        return dinf.decode(chunk.data, chunk.lengths)

    def encode_literal(self, unscaled, spec):
        return dinf.encode_one(int(unscaled))

    def compare_chunk(self, chunk, literal):
        return dinf.compare(chunk.data, literal)


class ForCodec(DecimalCodec):
    """Frame of reference: fixed-width deltas from each chunk's minimum.

    Each row stores ``v - min`` big-endian in the fewest whole bytes that
    hold the chunk's spread (1 for a constant chunk); the minimum is the
    chunk's zone map ``min_unscaled``, shipped once per chunk at the
    compact width.  The width is the chunk's own, so every value the
    column holds encodes exactly.  Byte order is not numeric order across
    chunks (a literal would have to be re-based per chunk), so filters
    compare lanes or limbs instead.
    """

    name = "for"
    order_preserving = False

    def _encode_chunk(self, values, compact_slice, spec, zone):
        reference = zone.min_unscaled
        width = max(1, ((zone.max_unscaled - reference).bit_length() + 7) // 8)
        if isinstance(values, np.ndarray):
            # Modulo 2**64 the difference is exact: lanes hold |v| < 2**63,
            # so every delta is below 2**64 even where int64 would wrap.
            deltas = values.view(np.uint64) - np.uint64(reference % (1 << 64))
            full = deltas.astype(">u8").view(np.uint8).reshape(len(values), 8)
            data = np.ascontiguousarray(full[:, 8 - width :])
        else:
            packed = b"".join((v - reference).to_bytes(width, "big") for v in values)
            data = np.frombuffer(packed, dtype=np.uint8).reshape(len(values), width)
        return data, None, spec.compact_bytes + int(data.nbytes)

    def decode_chunk(self, chunk, spec):
        reference = chunk.zone.min_unscaled
        return [reference + int.from_bytes(row.tobytes(), "big") for row in chunk.data]


def choose_codec(
    spec: DecimalSpec, unscaled: Optional[Sequence[int]] = None
) -> DecimalCodec:
    """Pick the smaller-wire codec of ``compact`` and ``dinf`` for a column.

    With the column's values supplied, ``dinf`` is sized from them; without,
    from the spec's largest value.  Ties prefer ``dinf``: its order-preserving
    bytes unlock encoded-byte filters on values past int64.
    """
    if not dinf.supports(spec.max_unscaled):
        return CompactCodec()
    rows = len(unscaled) if unscaled is not None else 0
    if rows:
        dinf_wire = _dinf_wire(unscaled)
    else:
        dinf_wire = dinf.max_encoded_bytes(spec.max_unscaled)
    if dinf_wire <= spec.compact_bytes * max(rows, 1):
        return OrderPreservingCodec()
    return CompactCodec()


def _dinf_wire(unscaled: Sequence[int]) -> int:
    """Bytes ``dinf`` puts ``unscaled`` in: per value, one sign-and-length
    byte and the magnitude's bytes (none for zero).

    Values that fit int64 are counted from an int64 array, by the byte
    rule ``dinf.encode`` frames them with; wider ones one by one.
    """
    try:
        lanes = np.fromiter(unscaled, dtype=np.int64, count=len(unscaled))
    except OverflowError:
        return sum(1 + (abs(v).bit_length() + 7) // 8 for v in unscaled)
    # abs(-2**63) wraps to -2**63, whose uint64 view is its magnitude 2**63.
    magnitudes = np.abs(lanes).view(np.uint64)
    return len(lanes) + int(dinf.magnitude_bytes(magnitudes).sum())
