"""Storage codecs: round-trips, order preservation, FOR widths, zone maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decimal import dinf
from repro.core.decimal.context import DecimalSpec
from repro.storage import codecs
from repro.storage.codecs import (
    CompactCodec,
    ForCodec,
    OrderPreservingCodec,
    ZoneMap,
    choose_codec,
)
from repro.storage.column import Column

#: Values crossing every interesting boundary: sign flips, zero, the
#: 1/2/8-byte magnitude-length edges, and wide (>uint64) magnitudes.
BOUNDARY_VALUES = st.sampled_from(
    [
        0,
        1,
        -1,
        127,
        128,
        255,
        256,
        -255,
        -256,
        65535,
        65536,
        -65535,
        -65536,
        2**63 - 1,
        2**63,
        -(2**63),
        10**25,
        -(10**25),
    ]
)
SIGNED_INTS = st.integers(min_value=-(10**30), max_value=10**30)


class TestDinfEncoding:
    @given(st.lists(SIGNED_INTS | BOUNDARY_VALUES, min_size=1, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_bit_exact(self, values):
        data, lengths = dinf.encode(values)
        assert dinf.decode(data, lengths) == values

    @given(
        SIGNED_INTS | BOUNDARY_VALUES,
        SIGNED_INTS | BOUNDARY_VALUES,
    )
    @settings(max_examples=300, deadline=None)
    def test_memcmp_order_equals_numeric_order(self, a, b):
        ea, eb = dinf.encode_one(a).tobytes(), dinf.encode_one(b).tobytes()
        if a < b:
            assert ea < eb
        elif a > b:
            assert ea > eb
        else:
            assert ea == eb

    @given(
        st.lists(SIGNED_INTS | BOUNDARY_VALUES, min_size=1, max_size=100),
        SIGNED_INTS | BOUNDARY_VALUES,
    )
    @settings(max_examples=200, deadline=None)
    def test_padded_compare_matches_python(self, values, literal):
        data, _lengths = dinf.encode(values)
        order = dinf.compare(data, dinf.encode_one(literal))
        expected = [(v > literal) - (v < literal) for v in values]
        assert order.tolist() == expected

    def test_zero_is_the_single_pivot_byte(self):
        assert dinf.encode_one(0).tolist() == [dinf.ZERO_PREFIX]

    def test_magnitude_cap_raises(self):
        with pytest.raises(ValueError):
            dinf.encode([1 << (8 * dinf.MAX_MAGNITUDE_BYTES)])

    def test_paper_sweep_precisions_supported(self):
        # The LEN sweep's widest spec (precision 285) must be encodable.
        assert dinf.supports(DecimalSpec(285, 2).max_unscaled)


SPEC = DecimalSpec(12, 2)


def _column(values, codec=None, chunk_rows=None):
    column = Column.decimal_from_unscaled("c", list(values), SPEC)
    if codec is not None:
        column = column.with_codec(codec, chunk_rows=chunk_rows)
    return column


class TestCodecColumns:
    @pytest.mark.parametrize(
        "codec",
        [CompactCodec(), OrderPreservingCodec(), ForCodec()],
        ids=["compact", "dinf", "for"],
    )
    def test_chunked_round_trip(self, codec):
        values = [0, -12345, 10**10, 42, -1, 999, -(10**9)]
        column = _column(values, codec, chunk_rows=3)
        encoding = column.encoding()
        assert encoding.decode() == values
        assert [z.rows for z in encoding.zones] == [3, 3, 1]

    def test_zone_maps_record_exact_stats(self):
        column = _column([5, 0, -3, 7, 0, 0], OrderPreservingCodec(), chunk_rows=3)
        zones = column.encoding().zones
        assert (zones[0].min_unscaled, zones[0].max_unscaled) == (-3, 5)
        assert (zones[1].min_unscaled, zones[1].max_unscaled) == (0, 7)
        assert zones[0].zero_count == 1 and zones[1].zero_count == 2
        assert all(z.null_count == 0 for z in zones)

    def test_dinf_wire_bytes_beat_compact_padding(self):
        column = _column(range(100))
        encoded = column.with_codec(OrderPreservingCodec())
        assert encoded.wire_bytes < column.bytes_stored
        assert column.wire_bytes == column.bytes_stored  # no codec -> stored

    def test_encoding_is_cached_per_version(self):
        column = _column([1, 2, 3], OrderPreservingCodec())
        assert column.cached_encoding() is None  # not materialised yet
        first = column.encoding()
        assert column.encoding() is first
        assert column.cached_encoding() is first
        column.invalidate()
        assert column.cached_encoding() is None
        assert column.encoding() is not first

    def test_take_drops_the_encoding_cache(self):
        column = _column([1, 2, 3, 4], OrderPreservingCodec(), chunk_rows=2)
        column.encoding()
        subset = column.take(np.array([3, 0]))
        assert subset.codec is column.codec
        assert subset.cached_encoding() is None
        assert subset.encoding().zones[0].min_unscaled == 1


class TestZoneMapVerdicts:
    ZONE = ZoneMap(row_start=0, rows=4, min_unscaled=10, max_unscaled=20)

    @pytest.mark.parametrize(
        "op,literal,verdict",
        [
            ("<", 10, False),
            ("<", 21, True),
            ("<", 15, None),
            ("<=", 9, False),
            ("<=", 20, True),
            (">", 20, False),
            (">", 9, True),
            (">=", 21, False),
            (">=", 10, True),
            ("=", 25, False),
            ("=", 15, None),
            ("<>", 25, True),
            ("<>", 15, None),
        ],
    )
    def test_truth_table(self, op, literal, verdict):
        assert self.ZONE.evaluate(op, literal) is verdict

    def test_constant_chunk_decides_equality(self):
        zone = ZoneMap(row_start=0, rows=4, min_unscaled=7, max_unscaled=7)
        assert zone.evaluate("=", 7) is True
        assert zone.evaluate("<>", 7) is False


@st.composite
def for_values(draw):
    """Signed values under one cap per example: lanes with spreads past
    int64 (up to ``2**64 - 2``), or Python ints past 63 bits."""
    cap = draw(st.sampled_from([999, 2**63 - 1, 10**30]))
    edges = [e for e in (0, 1, 255, 256, 2**62, 2**63 - 1, 2**63, 2**64, 10**30) if e <= cap]
    magnitude = st.sampled_from(edges) | st.integers(0, cap)
    pairs = draw(st.lists(st.tuples(magnitude, st.booleans()), min_size=1, max_size=200))
    return [-m if negative else m for m, negative in pairs]


def for_encoding(values, spec, chunk_rows=4096):
    column = Column.decimal_from_unscaled("c", values, spec)
    return column.with_codec(ForCodec(), chunk_rows).encoding()


def ratio(encoding):
    return encoding.spec.compact_bytes * encoding.rows / encoding.wire_bytes


class TestForCodec:
    """The section IV-D1 frame-of-reference codec (Figure 14(b)-FOR)."""

    @given(for_values(), st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_lossless(self, values, chunk_rows):
        spec = DecimalSpec(31, 2)
        encoding = for_encoding(values, spec, chunk_rows)
        assert encoding.decode() == values
        for chunk in encoding.chunks:
            rows = values[chunk.zone.row_start : chunk.zone.row_stop]
            width = max(1, ((max(rows) - min(rows)).bit_length() + 7) // 8)
            assert chunk.data.shape == (len(rows), width)
            assert chunk.wire_bytes == spec.compact_bytes + width * len(rows)

    def test_narrow_range_compresses_well(self):
        """TPC-H quantities: values 1..50 at huge declared precision."""
        spec = DecimalSpec(135, 2)  # the LEN=16 extended precision
        values = [q * 100 for q in range(1, 51)] * 20
        assert ratio(for_encoding(values, spec)) > 10

    def test_wide_range_compresses_poorly(self):
        spec = DecimalSpec(20, 0)
        values = [(-1) ** i * 10**19 + i for i in range(200)]
        assert ratio(for_encoding(values, spec)) < 2

    def test_chunk_references_are_the_zone_minima(self):
        spec = DecimalSpec(10, 0)
        values = list(range(99, -1, -1))
        encoding = for_encoding(values, spec, chunk_rows=32)
        assert [zone.rows for zone in encoding.zones] == [32, 32, 32, 4]
        assert [zone.min_unscaled for zone in encoding.zones] == [68, 36, 4, 0]
        for chunk in encoding.chunks:
            rows = values[chunk.zone.row_start : chunk.zone.row_stop]
            deltas = [int.from_bytes(row.tobytes(), "big") for row in chunk.data]
            assert deltas == [v - chunk.zone.min_unscaled for v in rows]

    def test_delta_widths_minimal(self):
        spec = DecimalSpec(10, 0)
        encoding = for_encoding([1000, 1001, 1002, 1003], spec)
        assert encoding.chunks[0].data.shape == (4, 1)
        assert encoding.wire_bytes == spec.compact_bytes + 4
        assert for_encoding([7, 7, 7], spec).chunks[0].data.shape == (3, 1)


class TestChooseCodec:
    def test_small_values_prefer_dinf(self):
        codec = choose_codec(SPEC, [0, 100, -5000])
        assert codec.name == "dinf"

    def test_ties_prefer_dinf(self):
        # 4 magnitude bytes: dinf takes 5 B/row, as many as DECIMAL(10,2)'s
        # compact row.
        values = [2**30, -(2**30), 2**29]
        assert DecimalSpec(10, 2).compact_bytes == 5
        assert choose_codec(DecimalSpec(10, 2), values).name == "dinf"

    def test_wide_values_prefer_compact(self):
        values = [2**33, -(2**33)]  # 6 B/row in dinf, 5 compact
        assert choose_codec(DecimalSpec(10, 2), values).name == "compact"

    def test_huge_spec_without_values_falls_back_to_compact_or_dinf(self):
        codec = choose_codec(DecimalSpec(285, 2))
        assert codec.name in ("dinf", "compact")


#: Every magnitude-byte edge: 0, +-1, 2**(8k) and its neighbours up to
#: int64's ends, and values past int64.
SIZING_EDGES = st.sampled_from(
    [0, 1, -1, 2**63 - 1, -(2**63 - 1), -(2**63), 2**63, -(2**63) - 1, 2**64, -(2**100)]
    + [
        sign * (2 ** (8 * k) + step)
        for k in range(1, 8)
        for step in (-1, 0, 1)
        for sign in (1, -1)
    ]
)
INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


class TestDinfSizing:
    """``choose_codec`` sizes ``dinf`` from int64 lanes when every value
    fits, and one value at a time otherwise; both must count alike."""

    @staticmethod
    def per_value(values):
        return sum(1 + (abs(v).bit_length() + 7) // 8 for v in values)

    @given(st.lists(st.one_of(SIZING_EDGES, INT64), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_lane_count_equals_the_per_value_count(self, values):
        assert codecs._dinf_wire(values) == self.per_value(values)

    @pytest.mark.parametrize("k", range(9))
    def test_each_byte_edge(self, k):
        edge = 2 ** (8 * k)
        values = [edge - 1, edge, -edge, -(edge - 1), 0]
        assert codecs._dinf_wire(values) == self.per_value(values)
        fits = all(-(2**63) <= v < 2**63 for v in values)
        assert fits == (k < 8)


def dinf_rows(values):
    """``dinf.encode``'s matrix and lengths, built one row at a time: the
    prefix ``0x80 +- nb``, the magnitude's ``nb`` bytes (complemented for a
    negative), zeros up to the widest row."""
    rows = []
    for value in values:
        magnitude = abs(value)
        nb = (magnitude.bit_length() + 7) // 8
        if value < 0:
            magnitude = 2 ** (8 * nb) - 1 - magnitude
        prefix = 0x80 - nb if value < 0 else 0x80 + nb
        rows.append(bytes([prefix]) + magnitude.to_bytes(nb, "big"))
    width = max((len(row) for row in rows), default=1)
    padded = b"".join(row.ljust(width, b"\0") for row in rows)
    data = np.frombuffer(padded, dtype=np.uint8).reshape(len(rows), width)
    return data, np.array([len(row) for row in rows], dtype=np.int32)


#: 0, +-1, both sides of every byte-length step up to 8 bytes, and int64's ends.
BYTE_STEP_EDGES = [0, 1, -1, 2**63 - 1, -(2**63 - 1)] + [
    sign * (2 ** (8 * k) - step) for k in range(1, 9) for step in (1, 0) for sign in (1, -1)
]
#: Magnitudes up to the 127-byte cap.
CAPPED_MAGNITUDES = st.integers(0, dinf.MAX_MAGNITUDE_BYTES).flatmap(
    lambda nb: st.integers(0, 2 ** (8 * nb) - 1)
)


class TestDinfBytes:
    """``dinf.encode`` over lists and int64 arrays against the row-at-a-time
    reference, matrix and lengths alike, dtypes included."""

    @staticmethod
    def assert_encodes(values):
        expected, expected_lengths = dinf_rows(values)
        encodings = [dinf.encode(values)]
        if all(abs(v) < 2**63 for v in values):
            encodings.append(dinf.encode(np.array(values, dtype=np.int64)))
        for data, lengths in encodings:
            assert data.dtype == expected.dtype and data.shape == expected.shape
            assert np.array_equal(data, expected)
            assert lengths.dtype == expected_lengths.dtype
            assert np.array_equal(lengths, expected_lengths)
            assert codecs._dinf_wire(values) == lengths.sum()

    @given(
        st.lists(
            st.sampled_from(BYTE_STEP_EDGES)
            | st.tuples(CAPPED_MAGNITUDES, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])
            | st.integers(-(2**63) + 1, 2**63 - 1),
            max_size=40,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_mixed_lists(self, values):
        self.assert_encodes(values)

    @given(st.lists(st.integers(1, 2**64) | st.sampled_from([2**63 - 1, 2**1015]), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_all_negative_lists(self, magnitudes):
        self.assert_encodes([-m for m in magnitudes])

    @pytest.mark.parametrize("k", range(1, 9))
    def test_each_byte_step(self, k):
        self.assert_encodes([2 ** (8 * k) - 1, 2 ** (8 * k), -(2 ** (8 * k) - 1), -(2 ** (8 * k))])

    def test_empty_list(self):
        self.assert_encodes([])
        data, lengths = dinf.encode([])
        assert data.shape == (0, 1) and lengths.shape == (0,)
