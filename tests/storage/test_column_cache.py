"""The register-expansion cache on Column (versioned decimal_vector), and views."""

from unittest import mock

import numpy as np
import pytest

from repro.core.decimal.context import DecimalSpec
from repro.core.decimal.vectorized import DecimalVector
from repro.errors import StorageError
from repro.storage.column import Column
from repro.storage.schema import DecimalType


def make_column(values=(100, -250, 0, 99)):
    return Column.decimal_from_unscaled("c", list(values), DecimalSpec(12, 2))


class TestDecimalVectorCache:
    def test_repeated_calls_return_the_cached_expansion(self):
        column = make_column()
        first = column.decimal_vector()
        second = column.decimal_vector()
        assert second is first  # no second unpack_column run

    def test_cached_vector_is_correct(self):
        column = make_column()
        assert column.decimal_vector().to_unscaled() == [100, -250, 0, 99]
        assert column.unscaled() == [100, -250, 0, 99]

    def test_take_produces_fresh_version_and_cache(self):
        column = make_column()
        original = column.decimal_vector()
        subset = column.take(np.array([2, 0]))
        assert subset.version != column.version
        taken = subset.decimal_vector()
        assert taken is not original
        assert taken.to_unscaled() == [0, 100]
        # The parent's cache is untouched.
        assert column.decimal_vector() is original

    def test_take_gathers_the_cached_expansion(self):
        column = make_column()
        column.decimal_vector()
        subset = column.take(np.array([3, 1]))
        with mock.patch.object(DecimalVector, "from_compact", side_effect=AssertionError):
            taken = subset.decimal_vector()
        assert taken.to_unscaled() == [99, -250]
        assert taken._int64 is not None  # the lanes came along
        reference = DecimalVector.from_compact(subset.data, taken.spec)
        assert np.array_equal(taken.words, reference.words)
        assert np.array_equal(taken.negative, reference.negative)

    def test_take_of_an_unexpanded_column_unpacks_its_own_bytes(self):
        subset = make_column().take(np.array([2]))
        assert subset.decimal_vector().to_unscaled() == [0]

    def test_invalidate_drops_the_taken_expansion(self):
        column = make_column()
        column.decimal_vector()
        subset = column.take(np.array([0, 1]))
        subset.data = make_column([5, 6]).data
        subset.invalidate()
        assert subset.decimal_vector().to_unscaled() == [5, 6]

    def test_head_produces_fresh_version_and_cache(self):
        column = make_column()
        original = column.decimal_vector()
        head = column.head(2)
        assert head.version != column.version
        assert head.decimal_vector() is not original
        assert head.decimal_vector().to_unscaled() == [100, -250]

    def test_invalidate_discards_the_cache(self):
        column = make_column()
        stale = column.decimal_vector()
        before = column.version
        column.data = make_column([7, 7, 7, 7]).data
        column.invalidate()
        assert column.version != before
        fresh = column.decimal_vector()
        assert fresh is not stale
        assert fresh.to_unscaled() == [7, 7, 7, 7]

    def test_every_construction_gets_a_distinct_version(self):
        versions = {make_column().version for _ in range(5)}
        assert len(versions) == 5


class TestDerivedColumnsCarry:
    """Views (takes of takes, heads) gather the base expansion."""

    def chain(self):
        """filter -> join -> join -> limit over an expanded base column."""
        column = make_column(range(-20, 20))
        column.decimal_vector()
        filtered = column.take(np.array([1, 3, 5, 7, 9, 11, 13, 15]))
        joined = filtered.take(np.array([7, 0, 0, 2, 5, 5, 6]))
        rejoined = joined.take(np.array([6, 5, 4, 3, 2, 1, 0, 0]))
        return column, [filtered, joined, rejoined, rejoined.head(5)]

    def test_every_stage_expands_like_its_bytes(self):
        column, stages = self.chain()
        expected = [
            DecimalVector.from_compact(stage.data, stage.column_type.spec) for stage in stages
        ]
        with mock.patch.object(DecimalVector, "from_compact", side_effect=AssertionError):
            vectors = [stage.decimal_vector() for stage in reversed(stages)][::-1]
        for vector, reference in zip(vectors, expected):
            assert np.array_equal(vector.negative, reference.negative)
            assert np.array_equal(vector.words, reference.words)
            assert vector.to_unscaled() == reference.to_unscaled()
        assert stages[-1].unscaled() == [-7, -9, -9, -15, -19]

    def test_indices_compose_onto_the_base_expansion(self):
        column, stages = self.chain()
        base = column.decimal_vector()
        for stage in stages:
            root, _indices = stage.lineage()
            assert root is column
        assert stages[-1].lineage()[1].tolist() == [13, 11, 11, 5, 1]
        with mock.patch.object(DecimalVector, "from_compact", side_effect=AssertionError):
            limited = stages[-1].decimal_vector()
        gathered = base.take(np.array([13, 11, 11, 5, 1]))
        assert np.array_equal(limited.to_int64(), gathered.to_int64())
        assert np.array_equal(limited.words, gathered.words)

    def test_head_of_an_expanded_column_and_past_its_end(self):
        column = make_column()
        column.decimal_vector()
        with mock.patch.object(DecimalVector, "from_compact", side_effect=AssertionError):
            assert column.head(10).unscaled() == [100, -250, 0, 99]
            assert column.head(0).unscaled() == []

    def test_invalidate_drops_a_composed_carry(self):
        _, stages = self.chain()
        limited = stages[-1]
        limited.data = make_column([1, 2, 3, 4, 5]).data
        limited.invalidate()
        root, indices = limited.lineage()
        assert root is limited and indices is None
        assert limited.unscaled() == [1, 2, 3, 4, 5]

    def test_an_invalidated_source_carries_nothing(self):
        """An invalidated view owns its bytes: its takes select from them,
        not from the column it was taken from."""
        column = make_column()
        column.decimal_vector()
        subset = column.take(np.array([0, 1]))
        subset.invalidate()
        column.data = make_column([9, 9, 9, 9]).data
        column.invalidate()
        for derived in (subset.take(np.array([1])), subset.head(1)):
            assert derived.lineage()[0] is subset
        assert subset.take(np.array([1])).unscaled() == [-250]
        assert subset.head(1).unscaled() == [100]


def eager(column, indices):
    """The rows ``indices`` of ``column`` gathered into a column of their own."""
    return Column(column.name, column.column_type, np.take(column.data, indices, axis=0))


class TestViews:
    """A view answers as the same rows gathered eagerly would."""

    COLUMNS = {
        "decimal": lambda: make_column(range(-6, 6)),
        # Values past 63 bits: the view gathers planes, not lanes.
        "wide": lambda: Column.decimal_from_unscaled(
            "w", [(-1) ** i * (2**70 + i) for i in range(12)], DecimalSpec(30, 3)
        ),
        "packed": lambda: Column("p", make_column(range(12)).column_type, make_column(range(12)).data),
        "char": lambda: Column.chars("s", [f"k{i % 5}" for i in range(12)], 3),
        "int": lambda: Column.integers("i", list(range(100, 112))),
        "date": lambda: Column.dates("d", list(range(12))),
        "double": lambda: Column.doubles("f", [i / 4 for i in range(12)]),
    }
    SELECTIONS = {
        "take": lambda c: (c.take(np.array([3, 0, 7])), [3, 0, 7]),
        "repeated": lambda c: (c.take(np.array([5, 5, 5, 1])), [5, 5, 5, 1]),
        "empty": lambda c: (c.take(np.array([], dtype=np.int64)), []),
        "take of take": lambda c: (c.take(np.arange(2, 12)).take(np.array([9, 0, 4])), [11, 2, 6]),
        "head": lambda c: (c.head(4), [0, 1, 2, 3]),
        "head past the end": lambda c: (c.head(50), list(range(12))),
        "head of take": lambda c: (c.take(np.array([8, 6, 4, 2])).head(2), [8, 6]),
    }

    @pytest.mark.parametrize("kind", sorted(COLUMNS))
    @pytest.mark.parametrize("selection", sorted(SELECTIONS))
    def test_view_equals_eager_gather(self, kind, selection):
        column = self.COLUMNS[kind]()
        view, rows = self.SELECTIONS[selection](column)
        expected = eager(column, np.array(rows, dtype=np.int64))
        # Rows and bytes come from the indices, before any gather.
        assert view.rows == expected.rows
        assert view.bytes_stored == expected.bytes_stored
        if isinstance(column.column_type, DecimalType):
            got, want = view.decimal_vector(), expected.decimal_vector()
            assert got.spec == want.spec
            assert np.array_equal(got.negative, want.negative)
            assert np.array_equal(got.words, want.words)
            assert got.to_unscaled() == want.to_unscaled()
        assert view.data.dtype == expected.data.dtype
        assert np.array_equal(view.data, expected.data)
        assert view.data is view.data  # gathered once

    def test_a_view_gathers_lanes_without_unpacking(self):
        column = make_column(range(-6, 6))
        view = column.take(np.array([4, 1]))
        with mock.patch.object(DecimalVector, "from_compact", side_effect=AssertionError):
            assert view.decimal_vector().to_int64().tolist() == [-2, -5]
        assert view.decimal_vector()._planes is None  # no planes were built

    def test_a_view_of_a_changed_root_raises_unless_it_gathered(self):
        column = make_column()
        gathered = column.take(np.array([1, 3]))
        gathered.data  # read before the root changes
        stale = column.take(np.array([0]))
        column.data = make_column([1, 1, 1, 1]).data
        column.invalidate()
        assert gathered.unscaled() == [-250, 99]
        assert gathered.take(np.array([1])).unscaled() == [99]
        for read in (lambda: stale.data, stale.decimal_vector, stale.invalidate):
            with pytest.raises(StorageError, match="changed"):
                read()

    def test_invalidating_a_view_gathers_it_first(self):
        column = make_column()
        view = column.take(np.array([2, 1]))
        view.invalidate()
        column.data = make_column([5, 5, 5, 5]).data
        column.invalidate()
        assert view.unscaled() == [0, -250]

    def test_renamed_shares_bytes_view_and_expansion(self):
        column = make_column()
        vector = column.decimal_vector()
        twin = column.renamed("t")
        assert (twin.name, column.name) == ("t", "c")
        assert twin.data is column.data and twin.decimal_vector() is vector
        view = column.take(np.array([3, 0]))
        renamed = view.renamed("u")
        assert renamed.lineage()[0] is column
        with mock.patch.object(DecimalVector, "from_compact", side_effect=AssertionError):
            assert renamed.unscaled() == [99, 100]
