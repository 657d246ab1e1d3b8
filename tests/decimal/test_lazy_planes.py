"""Lane-built vectors: planes on first access, and columns that keep their vector.

A ``DecimalVector`` built from int64 lanes (``from_int64``, ``take`` of a
vector whose lanes answer) stores only the lanes.  Everything it answers
must equal what the same values give when built as limb planes
(``from_unscaled``): planes, rows, lanes, Python ints, compact bytes,
gathers, and the errors with their messages.  A column built from a vector
keeps it as its cached expansion, which must equal what ``from_compact``
unpacks from the column's bytes.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decimal import compact
from repro.core.decimal.context import DecimalSpec, precision_for_words
from repro.core.decimal.vectorized import DecimalVector
from repro.core.jit import ir
from repro.engine.plan import physical
from repro.engine.plan.physical import Batch, QueryContext
from repro.engine.sql.ast_nodes import SelectItem
from repro.errors import ConversionError, PrecisionOverflowError
from repro.storage.column import Column
from repro.storage.relation import Relation

#: One full-precision spec per register width ``Lw`` under test.
SPECS = {lw: DecimalSpec(precision_for_words(lw), 2) for lw in (1, 2, 3, 30)}


def lane_cap(spec):
    """The largest magnitude lanes of ``spec`` may hold."""
    return min(spec.max_unscaled, 2**63 - 1)


def edge_values(spec):
    """0, +-1, +-(2**32 +- 1), +-(2**63 - 1) and the spec maximum, capped."""
    cap = lane_cap(spec)
    edges = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, spec.max_unscaled]
    magnitude = st.sampled_from([min(edge, cap) for edge in edges]) | st.integers(0, cap)
    return st.tuples(magnitude, st.booleans()).map(lambda pair: -pair[0] if pair[1] else pair[0])


def both_builds(spec, values):
    """``(lane-built, plane-built)`` vectors of the same values."""
    return (
        DecimalVector.from_int64(np.array(values, dtype=np.int64), spec),
        DecimalVector.from_unscaled(values, spec),
    )


def assert_same_vector(lanes, planes):
    assert lanes.spec == planes.spec
    assert lanes.rows == planes.rows
    assert lanes.to_unscaled() == planes.to_unscaled()
    expected = planes.to_int64()
    assert expected is not None and lanes.to_int64().tolist() == expected.tolist()
    assert lanes.negative.dtype == planes.negative.dtype
    assert np.array_equal(lanes.negative, planes.negative)
    assert lanes.words.dtype == planes.words.dtype
    assert lanes.words.shape == planes.words.shape
    assert np.array_equal(lanes.words, planes.words)


def parent_bytes(negative, words, spec):
    """What packing the planes gives (``pack_column``, no lanes involved)."""
    return compact.pack_column(negative, words, spec)


class TestLaneBuiltVectors:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_lanes_answer_like_planes(self, data):
        spec = SPECS[data.draw(st.sampled_from(sorted(SPECS)))]
        values = data.draw(st.lists(edge_values(spec), max_size=12))
        lanes, planes = both_builds(spec, values)
        assert lanes.rows == len(values)
        packed = lanes.to_compact()
        assert lanes._planes is None  # rows, lanes and packing built no planes
        reference = parent_bytes(planes.negative, planes.words, spec)
        assert packed.dtype == reference.dtype and packed.shape == reference.shape
        assert np.array_equal(packed, reference)
        assert_same_vector(lanes, planes)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_take_gathers_only_lanes(self, data):
        spec = SPECS[data.draw(st.sampled_from(sorted(SPECS)))]
        values = data.draw(st.lists(edge_values(spec), max_size=12))
        indices = np.array(
            data.draw(st.lists(st.integers(0, max(len(values) - 1, 0)), max_size=15))
            if values
            else [],
            dtype=np.int64,
        )
        lanes, planes = both_builds(spec, values)
        # A plane-built source folds its lanes once and gathers only them.
        for source in (lanes, planes):
            taken = source.take(indices)
            assert taken._planes is None
            assert not taken.to_int64().flags.writeable
            assert_same_vector(taken, DecimalVector.from_unscaled(
                [values[i] for i in indices.tolist()], spec
            ))
        assert lanes._planes is None

    def test_take_of_wide_values_gathers_planes(self):
        spec = SPECS[30]
        vector = DecimalVector.from_unscaled([2**63, -5, 0], spec)
        taken = vector.take(np.array([1, 0], dtype=np.int64))
        assert taken._int64 is None and taken.to_unscaled() == [-5, 2**63]

    def test_planes_are_built_once_and_shared(self):
        vector, _ = both_builds(SPECS[3], [5, -7, 0])
        words = vector.words
        assert vector.words is words and vector.negative is vector.negative
        assert vector.negative.tolist() == [False, True, False]

    def test_copy_gives_writable_planes(self):
        vector, _ = both_builds(SPECS[2], [5, -7])
        copied = vector.copy()
        copied.words[0, 0] = 9
        assert vector.to_unscaled() == [5, -7] and vector.words[0, 0] == 5


class TestLaneErrors:
    def test_int64_min_is_refused(self):
        with pytest.raises(ValueError, match=r"int64 lanes must stay above -2\*\*63"):
            DecimalVector.from_int64(np.array([1, -(2**63)], dtype=np.int64), SPECS[3])

    @pytest.mark.parametrize("value", [2**32, -(2**32), 2**63 - 1, -(2**63 - 1)])
    def test_one_word_spec_refuses_a_second_word(self, value):
        spec = SPECS[1]
        with pytest.raises(PrecisionOverflowError) as lanes:
            DecimalVector.from_int64(np.array([0, value], dtype=np.int64), spec)
        assert str(lanes.value) == f"values do not fit {spec}"

    @pytest.mark.parametrize("value", [2**32 - 1, -(2**32 - 1)])
    def test_one_word_spec_takes_a_full_word(self, value):
        vector = DecimalVector.from_int64(np.array([value], dtype=np.int64), SPECS[1])
        assert vector.words.tolist() == [[2**32 - 1]]

    @pytest.mark.parametrize(
        "spec,value",
        [
            (DecimalSpec(3, 2), 70000),  # bytes past Lb = 2
            (DecimalSpec(3, 2), 2**15),  # the sign bit of byte 2
            (DecimalSpec(4, 0), -(2**15)),
            (DecimalSpec(12, 0), 2**40 + 7),  # Lb = 5: past it, and its sign bit
            (DecimalSpec(12, 0), 2**39),
            (DecimalSpec(18, 0), 2**63 - 1),  # Lb = 8: the sign bit of byte 8
            (DecimalSpec(19, 0), 2**63 - 1),  # Lb = 9: fits
        ],
    )
    def test_packing_keeps_the_checks_and_messages(self, spec, value):
        planes = DecimalVector.from_unscaled_container([value], spec)
        lanes = DecimalVector.from_int64(np.array([value], dtype=np.int64), spec)
        try:
            expected = parent_bytes(planes.negative, planes.words, spec)
        except ConversionError as error:
            with pytest.raises(ConversionError) as raised:
                lanes.to_compact()
            assert str(raised.value) == str(error)
        else:
            assert np.array_equal(lanes.to_compact(), expected)


#: Inputs of ``Column.decimal_from_unscaled`` that must not take the lane
#: path, or must give the same bytes when they do.
ODD_INPUTS = [
    [],
    [0],
    [5, -5, 2**62],
    [2**63 - 1, -(2**63 - 1)],
    [2**63],
    [-(2**63)],
    [1, 2**64],
    [10**18, -(10**18)],
    [10**30],
    [np.int64(7), np.int64(-8)],
    [np.int32(7), -3],
    [np.uint64(2**63)],
    [True, False],
    [True, 5],
    [1.5, 2],
    [2.0],
    ["5"],
    ["5", 6],
    [None],
    [[1, 2]],
    [99999],
    [-100000],
    [100000],
]


def parent_column_bytes(values, spec):
    """The parent's ``decimal_from_unscaled``: planes from Python ints, packed."""
    vector = DecimalVector.from_unscaled(list(values), spec)
    return parent_bytes(vector.negative, vector.words, spec)


def outcome(build):
    try:
        return "ok", build()
    except Exception as error:
        return type(error), str(error)


class TestDecimalFromUnscaled:
    @pytest.mark.parametrize("spec", [DecimalSpec(5, 2), DecimalSpec(18, 0), SPECS[3], SPECS[30]])
    @pytest.mark.parametrize("values", ODD_INPUTS, ids=repr)
    def test_bytes_or_error_of_the_plane_path(self, values, spec):
        got = outcome(lambda: Column.decimal_from_unscaled("v", list(values), spec))
        expected = outcome(lambda: parent_column_bytes(values, spec))
        if expected[0] != "ok":
            assert got == expected
            return
        assert got[0] == "ok"
        column = got[1]
        assert np.array_equal(column.data, expected[1])
        assert_kept_vector(column)

    def test_in_range_integers_build_lanes(self):
        column = Column.decimal_from_unscaled("v", [5, -7, 0], SPECS[30])
        vector = column.decimal_vector()
        assert vector._planes is None and vector.to_int64().tolist() == [5, -7, 0]

    def test_a_generator_is_read_once(self):
        column = Column.decimal_from_unscaled("v", (v for v in [1, 2]), SPECS[2])
        assert column.unscaled() == [1, 2]

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_built_column_expands_like_its_bytes(self, data):
        spec = SPECS[data.draw(st.sampled_from(sorted(SPECS)))]
        top = spec.max_unscaled
        edges = [min(edge, top) for edge in (0, 1, 2**63 - 1, 2**63, top)]
        magnitude = st.integers(0, top) | st.sampled_from(edges)
        values = data.draw(
            st.lists(st.tuples(magnitude, st.booleans()), max_size=10).map(
                lambda pairs: [-m if negative else m for m, negative in pairs]
            )
        )
        column = Column.decimal_from_unscaled("v", values, spec)
        assert np.array_equal(column.data, parent_column_bytes(values, spec))
        assert_kept_vector(column)
        assert column.unscaled() == values


def assert_kept_vector(column):
    """The column's cached expansion equals the one its bytes unpack to."""
    kept = column.decimal_vector()
    expected = DecimalVector.from_compact(column.data, column.column_type.spec)
    assert np.array_equal(kept.negative, expected.negative)
    assert np.array_equal(kept.words, expected.words)
    assert kept.to_unscaled() == expected.to_unscaled()


class TestDecimalFromVector:
    def test_keeps_lane_and_plane_vectors(self):
        spec = SPECS[2]
        for vector in both_builds(spec, [3, -4, 0]):
            column = Column.decimal_from_vector("v", vector)
            assert column.decimal_vector() is vector
            assert_kept_vector(column)

    def test_a_negative_zero_vector_is_not_kept(self):
        spec = SPECS[1]
        vector = DecimalVector(spec, np.array([True, True]), np.array([[0], [5]], dtype=np.uint32))
        assert vector.has_negative_zero()
        column = Column.decimal_from_vector("v", vector)
        assert column.decimal_vector() is not vector
        assert_kept_vector(column)
        assert column.decimal_vector().negative.tolist() == [False, True]

    @pytest.mark.parametrize("aligned", [False, True])
    def test_projected_negative_zero_kernel_result(self, aligned):
        # A constant -0 that only hand-built IR makes: the executor keeps its
        # sign plane (limbs), and the projection must not keep that vector.
        const = ir.LoadConst(0, DecimalSpec(3, 1), negative=True, unscaled=0)
        body = [const]
        if aligned:
            body.append(ir.Align(1, DecimalSpec(5, 3), 0, exponent=2))
        body.append(ir.StoreResult(9, body[-1].spec, body[-1].dst))
        kernel = ir.KernelIR("k", "k", body, {}, body[-1].spec, register_words=8)
        base = Column.decimal_from_unscaled("a", [1, 2], DecimalSpec(3, 1))
        op = physical.ProjectOp([SelectItem("-0.0", alias="x")])
        op.kernels = [(SimpleNamespace(kernel=kernel), True)]
        context = QueryContext(relation=Relation("t", [base]), simulate_rows=2)
        out = op.run(Batch({"a": base}, 2, 2.0), context)
        assert_kept_vector(out.columns["x"])
        assert out.columns["x"].decimal_vector().negative.tolist() == [False, False]

    def test_projected_lane_result_is_kept(self):
        from repro.core.jit import compile_expression

        base = Column.decimal_from_unscaled("a", [15, -20], DecimalSpec(6, 1))
        compiled = compile_expression("a * 2", {"a": DecimalSpec(6, 1)})
        op = physical.ProjectOp([SelectItem("a * 2", alias="x")])
        op.kernels = [(compiled, True)]
        context = QueryContext(relation=Relation("t", [base]), simulate_rows=2)
        column = op.run(Batch({"a": base}, 2, 2.0), context).columns["x"]
        assert column.decimal_vector()._planes is None
        assert column.unscaled() == [30, -40]
        assert_kept_vector(column)
