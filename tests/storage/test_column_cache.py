"""The register-expansion cache on Column (versioned decimal_vector)."""

from unittest import mock

import numpy as np

from repro.core.decimal.context import DecimalSpec
from repro.core.decimal.vectorized import DecimalVector
from repro.storage.column import Column


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
    """Takes and heads of un-expanded takes gather the base expansion."""

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
            assert stage._taken_from[0] is base
        assert stages[-1]._taken_from[1].tolist() == [13, 11, 11, 5, 1]

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
        assert limited._taken_from is None
        assert limited.unscaled() == [1, 2, 3, 4, 5]

    def test_an_invalidated_source_carries_nothing(self):
        column = make_column()
        column.decimal_vector()
        subset = column.take(np.array([0, 1]))
        subset.invalidate()
        assert subset.take(np.array([1]))._taken_from is None
        assert subset.head(1)._taken_from is None
