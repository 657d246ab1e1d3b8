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
