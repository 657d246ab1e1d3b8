"""Int64 storage lanes, and the encoding and planes an append carries.

The storage passes (encode, zone maps, DECIMAL statistics) read a column's
int64 lanes whenever its values fit 63 bits; the Python-int paths are the
reference they must equal.  ``Column.appended`` reuses an old version's full
chunks and register planes; the new version must equal one built from
scratch, byte for byte, and the old version must not change.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ranges import prove_narrow_container
from repro.core.decimal import dinf
from repro.core.decimal.context import DecimalSpec
from repro.core.decimal.vectorized import DecimalVector
from repro.engine.plan.stats import (
    NDV_EXACT_CAP,
    ColumnStats,
    build_histogram,
    collect_column_stats,
    sketch_ndv,
)
from repro.storage.codecs import CompactCodec, NarrowCodec, OrderPreservingCodec
from repro.storage.column import Column

#: One spec per register width ``Lw`` under test.
SPECS = {
    1: DecimalSpec(9, 2),
    2: DecimalSpec(19, 2),
    3: DecimalSpec(28, 2),
    7: DecimalSpec(67, 2),
    30: DecimalSpec(285, 2),
}
#: LEN 32, the widest register of the paper's sweep.
LEN32 = DecimalSpec(300, 2)

#: Magnitudes on both sides of the int64 lane limit and of limb edges.
EDGES = [
    0, 1, 2**31, 2**32 - 1, 2**32, 2**62,
    2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64,
]


def test_specs_have_the_widths_under_test():
    assert {lw: spec.words for lw, spec in SPECS.items()} == {lw: lw for lw in SPECS}
    assert LEN32.words == 32


@st.composite
def signed_values(draw, spec, max_size=40):
    """Values of ``spec``; one cap per example so most fit int64 lanes."""
    cap = min(
        draw(st.sampled_from([2**31, 2**63 - 1, 2**63, spec.max_unscaled])),
        spec.max_unscaled,
    )
    edges = [edge for edge in EDGES if edge <= cap] + [cap, cap - 1]
    magnitude = st.sampled_from(edges) | st.integers(0, cap) | st.integers(0, 999)
    pairs = draw(st.lists(st.tuples(magnitude, st.booleans()), max_size=max_size))
    return [-m if negative else m for m, negative in pairs]


def assert_same_encoding(carried, fresh):
    """Two encodings agree byte for byte: data, lengths, wire bytes, zones."""
    assert carried.codec is fresh.codec
    assert carried.chunk_rows == fresh.chunk_rows
    assert carried.zones == fresh.zones
    assert carried.wire_bytes == fresh.wire_bytes
    for mine, theirs in zip(carried.chunks, fresh.chunks):
        assert mine.data.dtype == theirs.data.dtype
        assert np.array_equal(mine.data, theirs.data)
        if theirs.lengths is None:
            assert mine.lengths is None
        else:
            assert mine.lengths.dtype == theirs.lengths.dtype
            assert np.array_equal(mine.lengths, theirs.lengths)
        assert mine.wire_bytes == theirs.wire_bytes
    for zone in carried.zones:
        fields = (zone.row_start, zone.rows, zone.min_unscaled, zone.max_unscaled)
        assert all(type(value) is int for value in fields + (zone.zero_count,))


def assert_carried_vector(column, spec):
    """The carried expansion equals what the merged bytes unpack to."""
    carried = column._vector_cache[1]
    expected = DecimalVector.from_compact(column.data, spec)
    assert np.array_equal(carried.negative, expected.negative)
    assert np.array_equal(carried.words, expected.words)


def fresh_encoding(column):
    """The encoding of a brand-new Column over the same bytes and codec."""
    return Column(
        column.name, column.column_type, column.data, column.codec,
        column.encoding_chunk_rows,
    ).encoding()


def codecs_for(spec):
    codecs = [CompactCodec()]
    if dinf.supports(spec.max_unscaled):
        codecs.append(OrderPreservingCodec())
    proof = prove_narrow_container(spec)
    if proof is not None:
        codecs.append(NarrowCodec(proof))
    return codecs


class TestInt64Lanes:
    def test_limb_one_counts_when_limbs_above_it_are_zero(self):
        values = [2**32 + 5, -(2**40), 2**63 - 1, 0, -7]
        for lw in (3, 7, 30):
            vector = DecimalVector.from_unscaled(values, SPECS[lw])
            assert vector.to_int64().tolist() == values

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_to_int64_answers_exactly_when_every_value_fits(self, data):
        spec = SPECS[data.draw(st.sampled_from(sorted(SPECS)))]
        values = data.draw(signed_values(spec))
        vector = DecimalVector.from_unscaled(values, spec)
        lanes = vector.to_int64()
        if all(abs(v) < 2**63 for v in values):
            assert lanes is not None and lanes.dtype == np.int64
            assert lanes.tolist() == values
        else:
            assert lanes is None
        assert vector.to_unscaled() == values

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_dinf_encodes_lanes_like_python_ints(self, data):
        spec = SPECS[data.draw(st.sampled_from(sorted(SPECS)))]
        values = data.draw(signed_values(spec))
        lanes = DecimalVector.from_unscaled(values, spec).to_int64()
        if lanes is None:
            return
        reference, reference_lengths = dinf.encode(values)
        encoded, lengths = dinf.encode(lanes)
        assert encoded.dtype == reference.dtype and np.array_equal(encoded, reference)
        assert lengths.dtype == reference_lengths.dtype
        assert np.array_equal(lengths, reference_lengths)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_zone_maps_and_chunks_match_python_ints(self, data):
        spec = SPECS[data.draw(st.sampled_from(sorted(SPECS)))]
        values = data.draw(signed_values(spec))
        chunk_rows = data.draw(st.integers(1, 7))
        column = Column.decimal_from_unscaled("v", values, spec)
        for codec in codecs_for(spec):
            coded = column.with_codec(codec, chunk_rows)
            reference = codec.encode_column(coded.data, list(values), spec, chunk_rows)
            assert_same_encoding(coded.encoding(), reference)
            for zone in reference.zones:
                rows = values[zone.row_start : zone.row_stop]
                assert zone.min_unscaled == min(rows) and zone.max_unscaled == max(rows)
                assert zone.zero_count == rows.count(0)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_statistics_match_python_ints(self, data):
        spec = SPECS[data.draw(st.sampled_from(sorted(SPECS)))]
        values = data.draw(signed_values(spec, max_size=80))
        buckets = data.draw(st.sampled_from([1, 3, 7, 64]))
        # A cap below the row count takes the KMV sketch branch.
        exact_cap = data.draw(st.sampled_from([NDV_EXACT_CAP, 5]))
        column = Column.decimal_from_unscaled("v", values, spec)
        stats = collect_column_stats(column, exact_cap, buckets)
        exact = len(values) <= exact_cap
        expected = ColumnStats(
            rows=len(values),
            ndv=len(set(values)) if exact else min(sketch_ndv(values), len(values)),
            exact_ndv=exact,
            histogram=build_histogram(values, buckets),
        )
        assert stats == expected
        for bucket in stats.histogram.buckets if stats.histogram else ():
            fields = (bucket.lo, bucket.hi, bucket.rows, bucket.ndv)
            assert all(type(value) is int for value in fields)


#: Per codec: its spec, and whether its values may be near the spec's
#: maximum (LEN 30 and 32 magnitudes take the Python-int path).
CARRY_CASES = {
    "compact": (LEN32, True),
    "dinf": (SPECS[30], True),
    "narrow32": (SPECS[1], False),
}


def carry_codec(name, spec):
    if name == "compact":
        return CompactCodec()
    if name == "dinf":
        return OrderPreservingCodec()
    return NarrowCodec(prove_narrow_container(spec))


@st.composite
def carry_values(draw, spec, near_max, size):
    """``size`` values of ``spec``; with ``near_max``, small, int64-edge
    and near-maximum magnitudes, so lanes and Python ints both run."""
    top = spec.max_unscaled
    if near_max:
        magnitude = st.integers(0, 10**6) | st.sampled_from(
            [2**63 - 1, 2**63, top, top - 1, top // 3]
        )
    else:
        magnitude = st.integers(0, top)
    pairs = draw(st.lists(st.tuples(magnitude, st.booleans()), min_size=size, max_size=size))
    return [-m if negative else m for m, negative in pairs]


class TestAppendCarry:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_carried_version_equals_a_fresh_build(self, data):
        name = data.draw(st.sampled_from(sorted(CARRY_CASES)))
        spec, near_max = CARRY_CASES[name]
        chunk_rows = data.draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, None]))
        step = chunk_rows or 4096
        initial = data.draw(carry_values(spec, near_max, data.draw(st.integers(0, 9))))
        column = Column.decimal_from_unscaled("v", initial, spec).with_codec(
            carry_codec(name, spec), chunk_rows
        )
        rows = list(initial)
        for _ in range(data.draw(st.integers(1, 5))):
            warm = data.draw(st.sampled_from(["both", "encoding", "vector", "none"]))
            if warm in ("both", "encoding"):
                column.encoding()
            if warm in ("both", "vector"):
                column.decimal_vector()
            old_vector = column._vector_cache
            old_encoding = column.cached_encoding()
            old_bytes = (
                [chunk.data.copy() for chunk in old_encoding.chunks]
                if old_encoding is not None
                else None
            )
            fill = -len(rows) % step or step
            size = data.draw(
                st.sampled_from([0, fill, fill + step]) | st.integers(0, 3 * step + 1)
                if chunk_rows
                else st.sampled_from([0, 1, 7])
            )
            added = data.draw(carry_values(spec, near_max, size))
            merged = column.appended(Column.decimal_from_unscaled("v", added, spec))
            rows += added

            assert merged.unscaled() == rows
            carried = merged.cached_encoding()
            assert carried is not None
            assert_same_encoding(carried, fresh_encoding(merged))
            if merged._vector_cache is not None:
                assert_carried_vector(merged, spec)
            # The old snapshot keeps exactly the caches it had.
            assert column._vector_cache is old_vector
            assert column.cached_encoding() is old_encoding
            if old_encoding is not None:
                for chunk, before in zip(old_encoding.chunks, old_bytes):
                    assert np.array_equal(chunk.data, before)
            column = merged

    @pytest.mark.parametrize(
        "old_values,new_values,lanes",
        [
            ([5, -6, 0], [7, -(2**62)], True),  # both lanes memoized
            ([5, -6, 0], [2**63, 1], False),  # the new rows need limbs
            ([2**63, 1], [5, -6], False),  # the old rows need limbs
        ],
    )
    def test_lanes_concatenate_when_both_are_memoized(self, old_values, new_values, lanes):
        spec = SPECS[30]
        column = Column.decimal_from_unscaled("v", old_values, spec)
        merged = column.appended(Column.decimal_from_unscaled("v", new_values, spec))
        vector = merged._vector_cache[1]
        assert (vector._planes is None) == lanes
        assert (vector._int64 is not None) == lanes
        assert merged.unscaled() == old_values + new_values
        assert_carried_vector(merged, spec)

    def test_an_unfolded_addition_takes_the_planes(self):
        spec = SPECS[3]
        column = Column.decimal_from_unscaled("v", [1, -2], spec)
        addition = Column.decimal_from_unscaled("v", [3], spec)
        bare = Column("v", addition.column_type, addition.data)  # lanes not folded
        merged = column.appended(bare)
        vector = merged._vector_cache[1]
        assert vector._planes is not None and vector._int64 is None
        assert column.decimal_vector()._planes is not None  # filled, not replaced
        assert merged.unscaled() == [1, -2, 3]
        assert_carried_vector(merged, spec)

    def test_full_chunks_are_shared_and_the_tail_is_re_encoded(self):
        spec = SPECS[2]
        column = Column.decimal_from_unscaled("v", list(range(10)), spec).with_codec(
            OrderPreservingCodec(), 4
        )
        before = column.encoding()
        merged = column.appended(Column.decimal_from_unscaled("v", [99, -99], spec))
        after = merged.cached_encoding()
        assert [zone.row_start for zone in after.zones] == [0, 4, 8]
        assert after.chunks[0] is before.chunks[0]
        assert after.chunks[1] is before.chunks[1]
        assert after.chunks[2] is not before.chunks[2]
        assert after.zones[2].rows == 4 and after.zones[2].min_unscaled == -99

    def test_non_decimal_columns_append_without_caches(self):
        column = Column.integers("k", [1, 2, 3])
        merged = column.appended(Column.integers("k", [4]))
        assert merged.data.tolist() == [1, 2, 3, 4]
        assert merged.version != column.version
        assert merged.cached_encoding() is None


@pytest.mark.parametrize("spec", [SPECS[1], LEN32])
def test_wide_values_still_take_the_python_path(spec):
    values = [spec.max_unscaled, -spec.max_unscaled, 0, 5]
    column = Column.decimal_from_unscaled("v", values, spec)
    fits = spec.max_unscaled < 2**63
    assert (column.decimal_vector().to_int64() is not None) == fits
    encoded = column.with_codec(CompactCodec(), 3).encoding()
    assert [(z.min_unscaled, z.max_unscaled) for z in encoded.zones] == [
        (-spec.max_unscaled, spec.max_unscaled),
        (5, 5),
    ]
