"""Int64 lanes in the kernel executor: the same integers, specs and errors as limbs.

The executor holds a register as one int64 column while its magnitude
bound fits 63 bits and its type, and runs the limb operations otherwise.
These tests run random kernels both ways -- once as the engine does (lanes
where the bounds allow, register-form inputs), once with the lane steps
patched off (limbs only, compact inputs) -- and require identical specs,
planes and signs, or the same exception type and message.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from repro.core.decimal.context import DecimalSpec, precision_for_words
from repro.core.decimal.vectorized import DecimalVector
from repro.core.jit import compile_expression, ir
from repro.engine import Database
from repro.errors import ConversionError, PrecisionOverflowError, ReproError
from repro.gpusim import executor

#: Constants of every size class: zero, small, fractional, past 2**32.
CONSTANTS = ["0", "1", "7", "0.5", "2.25", "1000000", "12345678901234"]


@st.composite
def expressions(draw, depth=3):
    """``+ - * /``, unary minus, ABS, columns ``a``/``b`` and constants."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(["a", "b", "a", "b"] + CONSTANTS))
    kind = draw(st.sampled_from(["+", "-", "*", "/", "neg", "abs"]))
    if kind == "neg":
        return f"-({draw(expressions(depth - 1))})"
    if kind == "abs":
        return f"ABS({draw(expressions(depth - 1))})"
    return f"({draw(expressions(depth - 1))} {kind} {draw(expressions(depth - 1))})"


@st.composite
def specs(draw):
    """A spec whose register form is LEN = 1..32 words."""
    words = draw(st.integers(1, 32))
    low = precision_for_words(words - 1) + 1 if words > 1 else 1
    precision = draw(st.integers(low, precision_for_words(words)))
    return DecimalSpec(precision, draw(st.integers(0, min(3, precision))))


def values(spec):
    """0, small, around 2**62..2**63+k, and the spec's own maximum."""
    top = spec.max_unscaled
    magnitude = st.one_of(
        st.just(0),
        st.integers(1, 1000),
        st.integers(2**62 - 8, 2**63 + 8),
        st.just(top),
        st.integers(0, top),
    ).map(lambda m: min(m, top))
    return st.tuples(magnitude, st.booleans()).map(lambda pair: -pair[0] if pair[1] else pair[0])


def outcome(kernel, columns, rows):
    try:
        result = executor.execute(kernel, columns, rows).result
    except Exception as error:  # compared by type and message below
        return type(error), str(error)
    return result.spec, result.words.tolist(), result.negative.tolist()


def limbs_only():
    """Patch the lane steps off: every register stays in limb form."""
    return mock.patch.multiple(
        executor, _lane_load=lambda vector: None, _lane_step=lambda *args: None
    )


def both_ways(kernel, columns, rows):
    """``(lanes, limbs)`` outcomes of one kernel over unscaled ``columns``."""
    vectors = {
        name: DecimalVector.from_unscaled(data, kernel.input_columns[name])
        for name, data in columns.items()
    }
    lanes = outcome(kernel, vectors, rows)
    compact = {name: vector.to_compact() for name, vector in vectors.items()}
    with limbs_only():
        limbs = outcome(kernel, compact, rows)
    return lanes, limbs


class TestLanesMatchLimbs:
    @given(data=st.data())
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    def test_random_kernels(self, data):
        text = data.draw(expressions())
        if "a" not in text and "b" not in text:
            text = f"({text}) + a"
        spec_a, spec_b = data.draw(specs()), data.draw(specs())
        try:
            compiled = compile_expression(text, {"a": spec_a, "b": spec_b})
        except ReproError:
            reject()
        rows = data.draw(st.integers(1, 5))
        columns = {
            name: data.draw(st.lists(values(spec), min_size=rows, max_size=rows))
            for name, spec in compiled.kernel.input_columns.items()
        }
        lanes, limbs = both_ways(compiled.kernel, columns, rows)
        assert lanes == limbs, text

    @pytest.mark.parametrize(
        "text,a,b",
        [
            # Sums and products that pass 2**63 only in their bound.
            ("a + b", [2**62, -(2**62)], [2**62, 2**62]),
            ("a * b", [2**32, 3], [2**31, -(2**31)]),
            # A quotient past its type, a zero divisor, a negative dividend.
            ("a / b", [10**8, 5], [1, 0]),
            ("a / b", [-7, 7], [2, -2]),
        ],
    )
    def test_bound_edges(self, text, a, b):
        wide = DecimalSpec(30, 0)
        compiled = compile_expression(text, {"a": wide, "b": DecimalSpec(20, 0)})
        lanes, limbs = both_ways(compiled.kernel, {"a": a, "b": b}, len(a))
        assert lanes == limbs

    def test_quotient_past_its_one_word_container_wraps(self):
        # DECIMAL(5,0) / DECIMAL(5,4) is DECIMAL(9,4), one word: 99999 / 0.0001
        # fits int64 but not 32 bits, so the limbs wrap it.
        specs = {"a": DecimalSpec(5, 0), "b": DecimalSpec(5, 4)}
        compiled = compile_expression("a / b", specs)
        lanes, limbs = both_ways(compiled.kernel, {"a": [99999], "b": [1]}, 1)
        assert lanes == limbs
        assert limbs[:2] == (DecimalSpec(9, 4), [[99999 * 10**8 % 2**32]])


def hand_built(instructions, columns):
    """A kernel the compiler would not emit, over ``columns`` name -> spec."""
    result = instructions[-1].spec
    return ir.KernelIR("k", "k", instructions, columns, result, register_words=8)


class TestHandBuiltRegisters:
    """Instruction specs the compiler never emits still get the limbs' answer."""

    A, B = DecimalSpec(12, 2), DecimalSpec(12, 1)

    def load(self, dst, name):
        return ir.LoadColumn(dst, self.A if name == "a" else self.B, name)

    @pytest.mark.parametrize(
        "op",
        [
            # Sum to a narrower spec than inference gives: with_spec raises.
            ir.AddOp(2, DecimalSpec(9, 2), 0, 1),
            # Product, quotient and alignment declared at another scale:
            # with_spec rescales.
            ir.MulOp(2, DecimalSpec(24, 2), 0, 1),
            ir.DivOp(2, DecimalSpec(20, 2), 0, 1, prescale=5),
            ir.Align(2, DecimalSpec(14, 3), 0, exponent=2),
            ir.Align(2, DecimalSpec(11, 1), 0, exponent=-1),
        ],
    )
    @pytest.mark.parametrize(
        "columns",
        [
            {"a": [99999, -12345, 0], "b": [10000, 7, -3]},
            {"a": [10**11 - 1, -12345, 0], "b": [10**10, 7, -3]},
        ],
    )
    def test_declared_spec_differs_from_inference(self, op, columns):
        kernel = hand_built(
            [self.load(0, "a"), self.load(1, "b"), op, ir.StoreResult(3, op.spec, 2)],
            {"a": self.A, "b": self.B},
        )
        lanes, limbs = both_ways(kernel, columns, 3)
        assert lanes == limbs

    @pytest.mark.parametrize("aligned", [False, True])
    def test_negative_zero_constant_keeps_its_sign_plane(self, aligned):
        const = ir.LoadConst(0, DecimalSpec(3, 1), negative=True, unscaled=0)
        body = [const]
        if aligned:
            body.append(ir.Align(1, DecimalSpec(5, 3), 0, exponent=2))
        body.append(ir.StoreResult(9, body[-1].spec, body[-1].dst))
        lanes = outcome(hand_built(body, {}), {}, 2)
        with limbs_only():
            limbs = outcome(hand_built(body, {}), {}, 2)
        assert lanes == limbs
        assert lanes[2] == [True, True]

    def test_lanes_run_where_the_bounds_allow(self):
        compiled = compile_expression(
            "a * (1 - b) + a / 3", {"a": DecimalSpec(285, 2), "b": DecimalSpec(285, 2)}
        )
        columns = {
            "a": DecimalVector.from_unscaled([12345, -99], DecimalSpec(285, 2)),
            "b": DecimalVector.from_unscaled([5, 10], DecimalSpec(285, 2)),
        }
        with mock.patch.object(executor, "_limb_step", side_effect=AssertionError):
            result = executor.execute(compiled.kernel, columns, 2).result
        assert result.to_int64() is not None


class TestQuotientsBeyondTheirType:
    """A quotient that outgrows its DECIMAL(p, s) wraps (DESIGN.md §6).

    The lanes leave such quotients to the limbs, so each of these known
    reproducers keeps exactly today's answer.
    """

    @pytest.fixture
    def db(self):
        database = Database()
        database.create_table(
            "t", {"a": "DECIMAL(4,1)", "b": "DECIMAL(3,1)"}, rows=[("100.0", "0.1")]
        )
        return database

    def test_quotient_is_returned_outside_its_type(self, db):
        [(value,)] = db.execute("SELECT a / b AS q FROM t").rows
        assert value.spec == DecimalSpec(7, 5)
        assert value.unscaled == 100000000

    def test_sum_of_the_quotient_raises_precision_overflow(self, db):
        with pytest.raises(PrecisionOverflowError):
            db.execute("SELECT SUM(a / b) AS s FROM t")

    def test_chained_quotient_raises_conversion_error(self, db):
        with pytest.raises(ConversionError):
            db.execute("SELECT (a / b) / b AS q FROM t")

    def test_kernel_agrees_with_limbs(self):
        specs = {"a": DecimalSpec(4, 1), "b": DecimalSpec(3, 1)}
        for text in ("a / b", "(a / b) / b", "(a / b) + a"):
            compiled = compile_expression(text, specs)
            lanes, limbs = both_ways(compiled.kernel, {"a": [1000], "b": [1]}, 1)
            assert lanes == limbs, text


class TestMemoizedLanes:
    def test_to_int64_is_memoized_and_read_only(self):
        vector = DecimalVector.from_unscaled([5, -7, 0], DecimalSpec(30, 2))
        lanes = vector.to_int64()
        assert vector.to_int64() is lanes
        assert lanes.tolist() == [5, -7, 0]
        with pytest.raises(ValueError):
            lanes[0] = 1

    def test_values_past_63_bits_memoize_none(self):
        vector = DecimalVector.from_unscaled([2**63], DecimalSpec(30, 0))
        assert vector.to_int64() is None
        assert vector.to_int64() is None
        assert vector.to_unscaled() == [2**63]

    def test_from_int64_builds_the_planes_and_keeps_the_lanes(self):
        spec = DecimalSpec(40, 3)
        values = np.array([0, 1, -(2**40), 2**63 - 1, -(2**63 - 1)], dtype=np.int64)
        vector = DecimalVector.from_int64(values, spec)
        expected = DecimalVector.from_unscaled(values.tolist(), spec)
        assert np.array_equal(vector.words, expected.words)
        assert np.array_equal(vector.negative, expected.negative)
        assert vector.to_int64() is values
        assert not values.flags.writeable

    def test_from_int64_rejects_what_one_word_cannot_hold(self):
        with pytest.raises(PrecisionOverflowError):
            DecimalVector.from_int64(np.array([2**32], dtype=np.int64), DecimalSpec(9, 0))

    def test_take_gathers_the_lanes(self):
        vector = DecimalVector.from_unscaled([10, -20, 30], DecimalSpec(12, 2))
        taken = vector.take(np.array([2, 0]))
        assert vector._int64 is not None  # folded once, on the source
        lanes = taken._int64[0]
        assert lanes.tolist() == [30, 10]
        assert not lanes.flags.writeable
        assert taken.to_unscaled() == [30, 10]
        wide = DecimalVector.from_unscaled([2**63, 1], DecimalSpec(30, 0)).take(np.array([1]))
        assert wide._int64 is None and wide.to_unscaled() == [1]

    def test_negative_zero_stays_on_limbs(self):
        spec = DecimalSpec(9, 2)
        compact = DecimalVector.from_unscaled([0, 5], spec).to_compact()
        compact[0, -1] |= 0x80  # the sign bit on a zero magnitude
        vector = DecimalVector.from_compact(compact, spec)
        assert vector.to_int64() is None
        compiled = compile_expression("-a", {"a": spec})
        lanes = outcome(compiled.kernel, {"a": vector}, 2)
        with limbs_only():
            limbs = outcome(compiled.kernel, {"a": compact}, 2)
        assert lanes == limbs
