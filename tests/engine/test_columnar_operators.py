"""Differential tests: the columnar join, group-by and filter vs the row loops.

The value-coded matcher and grouping of ``repro.engine.plan.physical`` and
the segmented reduction of ``repro.core.multithread.aggregation`` must
match the row-at-a-time loops kept in ``repro.engine.plan.reference``
exactly: the same index pairs, groups in the same order, the same values
and specs, and bit-identical simulated aggregation seconds.  Key columns
are often views (takes of takes, heads, repeated or no indices), whose
codes are gathered from their base column's.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decimal.context import DecimalSpec, precision_for_words
from repro.core.decimal.vectorized import DecimalVector
from repro.core.multithread import aggregate
from repro.core.multithread.aggregation import aggregate_segments, result_spec
from repro.engine.plan import physical, reference
from repro.engine.plan.physical import Batch, GroupAggregateOp, QueryContext
from repro.engine.sql.ast_nodes import AggregateCall, Comparison, SelectItem
from repro.engine import Database
from repro.errors import DivisionByZeroError, MultithreadError
from repro.storage.column import Column
from repro.storage.relation import Relation
from repro.storage.schema import DecimalType

#: CHAR values, several equal up to trailing whitespace.
CHAR_POOL = ["a", "a ", "a\t", "a\n", "b", "b ", "", " ", "ab", "BUILDING", "x\x01"]
#: Unscaled DECIMAL keys: across scales many of these are equal values
#: (15 at scale 1 and 150 at scale 2 are both 1.5).
DECIMAL_POOL = [0, 1, 5, 10, 15, 50, 100, 150, 1000, -1, -10, -15, -150]
KEY_KINDS = ("INT", "DATE", "CHAR", "DECIMAL")
AGGREGATES = ("SUM", "MIN", "MAX", "AVG")


@st.composite
def key_columns(draw, name, kind=None, rows=None):
    """A key column with duplicates, or a view of one; DECIMALs sometimes
    near their maximum."""
    kind = kind or draw(st.sampled_from(KEY_KINDS))
    rows = draw(st.integers(0, 12)) if rows is None else rows
    if draw(st.booleans()):
        return draw(base_key_columns(name, kind, rows))
    base = draw(base_key_columns(name, kind, draw(st.integers(1 if rows else 0, rows + 8))))
    return draw(views(base, rows))


@st.composite
def base_key_columns(draw, name, kind, rows):
    if kind in ("INT", "DATE"):
        values = draw(st.lists(st.integers(-3, 3), min_size=rows, max_size=rows))
        return Column.integers(name, values) if kind == "INT" else Column.dates(name, values)
    if kind == "CHAR":
        width = draw(st.integers(1, 10))
        values = draw(st.lists(st.sampled_from(CHAR_POOL), min_size=rows, max_size=rows))
        return Column.chars(name, values, width)
    # Scale 20 against INT/DATE keys needs a factor of 10**20, past int64.
    scale = draw(st.sampled_from((0, 1, 2, 20)))
    spec = DecimalSpec(draw(st.integers(max(4, scale), 40)), scale)
    top = spec.max_unscaled
    pool = DECIMAL_POOL + [top, -top, top - 1]
    values = draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows))
    return Column.decimal_from_unscaled(name, values, spec)


@st.composite
def views(draw, base, rows):
    """A view of ``base`` with ``rows`` rows: a take, a take of a take, or
    a take's head, with repeated (or no) indices."""

    def indices(bound, size):
        if size == 0:
            return np.zeros(0, dtype=np.int64)
        drawn = draw(st.lists(st.integers(0, bound - 1), min_size=size, max_size=size))
        return np.array(drawn, dtype=np.int64)

    shape = draw(st.sampled_from(("take", "take of take", "head")))
    if shape == "take":
        return base.take(indices(base.rows, rows))
    size = draw(st.integers(rows if shape == "head" else 1, rows + 8)) if base.rows else 0
    middle = base.take(indices(base.rows, size))
    if shape == "head":
        return middle.head(rows)
    return middle.take(indices(middle.rows, rows))


def join_pairs(left, right, keep=None):
    """The reference's hash-join pairs over the right rows ``keep`` passes."""
    left_keys, right_keys = reference.key_values([left, right])
    kept = np.arange(right.rows) if keep is None else np.flatnonzero(keep)
    kept_keys = [right_keys[row] for row in kept]
    left_rows, right_rows = reference.hash_join(left_keys, kept_keys)
    assert reference.nested_loop_join(left_keys, kept_keys) == (left_rows, right_rows)
    return left_rows, kept[right_rows].tolist()


def unscaled_values(spec):
    top = spec.max_unscaled
    return st.one_of(
        st.integers(-top, top), st.sampled_from([top, -top, top - 1, 0, 1, -1])
    )


def len_spec(draw):
    """A spec whose register form is LEN = 1..32 words, at full precision."""
    return DecimalSpec(precision_for_words(draw(st.integers(1, 32))), draw(st.integers(0, 3)))


def context_for(columns):
    return QueryContext(relation=Relation("t", columns), simulate_rows=10_000_000)


def join_node():
    """A join plan node with nothing kept yet (only ``_matches`` is used)."""
    return physical._JoinOp(None, [])


def decimal_literal(unscaled, scale):
    digits = str(abs(unscaled)).rjust(scale + 1, "0")
    text = f"{digits[:-scale]}.{digits[-scale:]}" if scale else digits
    return ("-" if unscaled < 0 else "") + text


class TestJoinMatcher:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_index_pairs_match_the_row_loops(self, data):
        left_kind = data.draw(st.sampled_from(KEY_KINDS))
        right_kind = (
            "CHAR" if left_kind == "CHAR" else data.draw(st.sampled_from(("INT", "DATE", "DECIMAL")))
        )
        left = data.draw(key_columns("l", left_kind))
        right = data.draw(key_columns("r", right_kind))
        keep = data.draw(
            st.one_of(
                st.none(),
                st.lists(st.booleans(), min_size=right.rows, max_size=right.rows).map(
                    lambda mask: np.array(mask, dtype=bool)
                ),
            )
        )
        node = join_node()
        left_take, right_take = node._matches(left, right, keep)
        assert (left_take.tolist(), right_take.tolist()) == join_pairs(left, right, keep)
        # The build side was kept with the right column, and the probe map
        # and runs with the node: a second join answers the same, and so
        # do a fresh node and the join the other way round.
        for again in (node._matches(left, right, keep), join_node()._matches(left, right, keep)):
            assert (again[0].tolist(), again[1].tolist()) == join_pairs(left, right, keep)
        swapped = node._matches(right, left)
        assert (swapped[0].tolist(), swapped[1].tolist()) == join_pairs(right, left)

    def test_scale_gap_beyond_int64_with_empty_or_zero_side(self):
        """Aligning INT keys to scale 20 cannot stay in int64, even over zeros."""
        wide = Column.decimal_from_unscaled("r", [0, 10**20, -(10**20)], DecimalSpec(38, 20))
        for ints in ([], [0, 0], [1, 0]):
            left = Column.integers("l", ints)
            for columns in ([left, wide], [wide, left], [left.take(np.arange(len(ints))), wide]):
                left_take, right_take = join_node()._matches(*columns)
                assert (left_take.tolist(), right_take.tolist()) == join_pairs(*columns)

    @pytest.mark.parametrize("count", [1, 256, 257, 65536, 65537, 2**40])
    def test_stable_argsort_at_every_code_width(self, count):
        codes = np.random.default_rng(count).integers(0, count, 3000)
        codes[:2] = count - 1, 0
        got = physical._stable_argsort(codes, count)
        assert got.tolist() == np.argsort(codes, kind="stable").tolist()

    def test_empty_build_and_probe_sides(self):
        keys = Column.integers("k", [1, 2, 2])
        empty = Column.integers("e", [])
        for left, right in ((keys, empty), (empty, keys), (empty, empty), (keys.head(0), keys)):
            left_take, right_take = join_node()._matches(left, right)
            assert left_take.tolist() == right_take.tolist() == []


class TestGroupBy:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_groups_values_specs_and_charges_match_the_row_loop(self, data):
        rows = data.draw(st.integers(0, 20))
        keys = [
            data.draw(key_columns(f"k{index}", rows=rows))
            for index in range(data.draw(st.integers(1, 3)))
        ]
        spec = len_spec(data.draw)
        values = data.draw(st.lists(unscaled_values(spec), min_size=rows, max_size=rows))
        columns = keys + [Column.decimal_from_unscaled("v", values, spec)]
        items = [SelectItem(AggregateCall(name, "v"), alias=name.lower()) for name in AGGREGATES]
        items.append(SelectItem(AggregateCall("COUNT", "*"), alias="n"))
        op = GroupAggregateOp([key.name for key in keys], items)
        # Enough simulated tuples per group that every SUM fits its spec.
        simulated = float(data.draw(st.sampled_from([rows * 1000 + 1, 10_000_000])))
        batch = Batch({column.name: column for column in columns}, rows, simulated)

        fast, slow = context_for(columns), context_for(columns)
        got = op.run(batch, fast)
        want = reference.group_aggregate(op, batch, slow)

        assert (got.rows, got.simulated_rows) == (want.rows, want.simulated_rows)
        assert list(got.columns) == list(want.columns)
        for name, column in got.columns.items():
            assert column.column_type == want.columns[name].column_type, name
            assert np.array_equal(column.data, want.columns[name].data), name
        assert fast.report.aggregate_seconds == slow.report.aggregate_seconds

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_group_rows_agree_across_the_radix_span_switch(self, data):
        """Narrow composites (span up to 65,536) and densely ranked wide
        ones give the same order and starts as a stable lexicographic sort."""
        rows = data.draw(st.sampled_from([0, 1, data.draw(st.integers(2, 40))]))
        counts = data.draw(
            st.lists(
                st.sampled_from([1, 2, 3, 255, 256, 257, 65535, 65536, 65537]),
                min_size=1,
                max_size=4,
            )
        )
        keys = [
            (
                np.array(
                    data.draw(st.lists(st.integers(0, count - 1), min_size=rows, max_size=rows)),
                    dtype=np.int64,
                ),
                count,
            )
            for count in counts
        ]
        order, starts = physical._group_rows(keys, rows)
        # np.lexsort is stable and sorts by its last key first.
        want = np.lexsort([codes for codes, _count in reversed(keys)]) if rows else []
        assert order.tolist() == list(want)
        composite = [tuple(int(codes[row]) for codes, _count in keys) for row in want]
        new_group = [i for i in range(rows) if i == 0 or composite[i] != composite[i - 1]]
        assert starts.tolist() == new_group
        if int(np.prod(counts, dtype=object)) <= physical._RADIX_SPAN:
            # The dense-ranking side of the switch answers the same.
            with mock.patch.object(physical, "_RADIX_SPAN", 0):
                ranked_order, ranked_starts = physical._group_rows(keys, rows)
            assert ranked_order.tolist() == order.tolist()
            assert ranked_starts.tolist() == starts.tolist()

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 7, 8])
    def test_distinct_values_of_narrow_stored_rows(self, width):
        """Rows of 1, 2, 4 and 8 bytes rank in place, the same ids as the
        rows zero-padded to 8 bytes."""
        pool = ["", "a", "b", "a b", "zz", "\x01", "~~~~~~~~", "a\x01"]
        values = [pool[(i * 5) % len(pool)] for i in range(40)] + ["z" * width]
        column = Column.chars("c", values, width)
        ids, distinct = physical._distinct_values(column)
        padded = np.zeros((len(values), 8), dtype=np.uint8)
        padded[:, :width] = column.data.view(np.uint8).reshape(len(values), width)
        want, _keys = physical._dense_ids(padded.view(np.uint64).ravel())
        assert ids.tolist() == want.tolist()
        assert [distinct[i] for i in ids] == [value[:width].rstrip() for value in values]

    def test_a_zero_divisor_is_named_at_its_row_in_batch_order(self):
        """Kernels run over group-ordered rows, but an error names the row
        as the ungrouped batch holds it (row 1 here, row 0 in group order)."""
        database = Database()
        database.create_table(
            "t",
            {"g": "CHAR(1)", "a": "DECIMAL(6,2)", "b": "DECIMAL(30,2)"},
            rows=[("b", "1.00", "2.00"), ("a", "3.00", "0.00"), ("a", "1.00", "1.00")],
        )
        for sql in ("SELECT g, SUM(a / b) AS s FROM t GROUP BY g", "SELECT SUM(a / b) AS s FROM t"):
            with pytest.raises(DivisionByZeroError, match="division by zero at row 1$"):
                database.execute(sql)

    def test_zero_groups_keep_each_functions_result_type(self):
        """MIN/MAX/AVG over no rows are typed as over rows, not as SUM."""
        spec = DecimalSpec(6, 2)
        items = [SelectItem(AggregateCall(name, "v"), alias=name.lower()) for name in AGGREGATES]

        def result_types(rows):
            columns = [
                Column.integers("k", [1] * rows),
                Column.decimal_from_unscaled("v", [150] * rows, spec),
            ]
            batch = Batch({column.name: column for column in columns}, rows, float(rows))
            out = GroupAggregateOp(["k"], items).run(batch, context_for(columns))
            return {name: column.column_type for name, column in out.columns.items()}

        empty = result_types(0)
        assert empty == result_types(1)
        assert empty["sum"] == DecimalType(DecimalSpec(7, 2))
        assert empty["min"] == empty["max"] == DecimalType(spec)
        assert empty["avg"] == DecimalType(DecimalSpec(11, 6))


class TestSegmentedReduction:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_one_aggregate_call_per_segment(self, data):
        spec = len_spec(data.draw)
        sizes = data.draw(st.lists(st.integers(1, 6), max_size=8))
        # Magnitudes near 2**63 / rows, where int64 partial sums would start
        # to wrap (a segment of one sign), so the lane sum must hand them to
        # the limb sum.
        edge = 2**63 // max(sum(sizes), 1)
        straddle = st.integers(edge - 2, edge + 2).map(lambda m: min(m, spec.max_unscaled))
        sign = data.draw(st.sampled_from([1, -1]))
        near_edge = straddle.map(lambda m: sign * m)
        mixed = st.one_of(unscaled_values(spec), near_edge)
        segments = [
            data.draw(
                st.lists(
                    data.draw(st.sampled_from([mixed, near_edge])), min_size=size, max_size=size
                )
            )
            for size in sizes
        ]
        op = data.draw(st.sampled_from(["sum", "min", "max", "avg"]))
        charged = data.draw(st.integers(1, 10**8))
        starts = np.cumsum([0] + sizes[:-1]) if sizes else np.zeros(0, dtype=np.int64)
        flat = [value for segment in segments for value in segment]

        run = aggregate_segments(
            DecimalVector.from_unscaled(flat, spec), starts, op, simulate_tuples=charged
        )
        expected = [aggregate(segment, spec, op, simulate_tuples=charged) for segment in segments]
        assert run.values == [each.value for each in expected]
        assert run.spec == result_spec(op, spec, charged)
        assert all(each.spec == run.spec and each.seconds == run.seconds for each in expected)

    @pytest.mark.parametrize(
        "segments",
        [
            [[2**62 - 1, 2**62 - 1]],  # rows * max just below 2**63: int64 lanes
            [[2**62 + 2, 2**62 + 2]],  # the int64 sum would wrap
            [[5], [-(2**62) - 2, -(2**62) - 2]],
            [[2**62 + 2], [2**62 + 2]],  # rows * max past 2**63, no sum wraps
        ],
    )
    def test_sums_straddling_int64(self, segments):
        spec = DecimalSpec(28, 0)
        flat = [value for segment in segments for value in segment]
        starts = np.cumsum([0] + [len(segment) for segment in segments[:-1]])
        for op in ("sum", "avg"):
            run = aggregate_segments(DecimalVector.from_unscaled(flat, spec), starts, op)
            expected = [aggregate(segment, spec, op, simulate_tuples=1) for segment in segments]
            assert run.values == [each.value for each in expected]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_ungrouped_aggregate_is_one_segment(self, data):
        spec = len_spec(data.draw)
        values = data.draw(st.lists(unscaled_values(spec), min_size=1, max_size=8))
        function = data.draw(st.sampled_from(AGGREGATES))
        columns = [Column.decimal_from_unscaled("v", values, spec)]
        context = context_for(columns)
        batch = Batch({"v": columns[0]}, len(values), 10_000_000.0)
        op = physical.AggregateOp([SelectItem(AggregateCall(function, "v"), alias="a")])
        [result] = op.run(batch, context).columns.values()

        expected = aggregate(values, spec, function.lower(), simulate_tuples=10_000_000)
        assert result.unscaled() == [expected.value]
        assert result.column_type == DecimalType(expected.spec)
        assert context.report.aggregate_seconds == expected.seconds

    def test_ungrouped_aggregate_of_no_rows_raises(self):
        columns = [Column.decimal_from_unscaled("v", [], DecimalSpec(6, 2))]
        batch = Batch({"v": columns[0]}, 0, 0.0)
        op = physical.AggregateOp([SelectItem(AggregateCall("SUM", "v"), alias="a")])
        with pytest.raises(MultithreadError, match="cannot aggregate an empty column"):
            op.run(batch, context_for(columns))

    def test_count_is_not_a_segmented_reduction(self):
        vector = DecimalVector.from_unscaled([1, 2], DecimalSpec(6, 2))
        with pytest.raises(MultithreadError, match="unsupported aggregate"):
            aggregate_segments(vector, np.array([0]), "count")


class TestDecimalFilter:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_object_array_compare(self, data):
        spec = len_spec(data.draw)
        values = data.draw(st.lists(unscaled_values(spec), max_size=20))
        column = Column.decimal_from_unscaled("v", values, spec)
        target = data.draw(
            st.sampled_from(values) if values and data.draw(st.booleans()) else unscaled_values(spec)
        )
        literal = decimal_literal(target, spec.scale)
        op = data.draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        got = physical._evaluate_predicate(column, Comparison("v", op, literal))
        assert np.array_equal(got, reference.decimal_predicate(column, op, literal))
