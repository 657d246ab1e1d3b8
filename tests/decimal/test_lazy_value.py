"""DecimalValue keeps its magnitude and builds its words on first read.

Every constructor but ``DecimalValue(spec, negative, words)`` holds only the
magnitude, so a lazily built value must behave exactly like the value built
eagerly from its limb words: same words, sign, text, hash, order and
arithmetic.  Values range over the whole ``Lw``-word container, past the
type's precision, as wrapped quotients do.
"""

import copy
import operator
import pickle
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decimal import words
from repro.core.decimal.context import DecimalSpec
from repro.core.decimal.value import DecimalValue

#: One precision per register width ``Lw`` under test.
PRECISIONS = {1: 9, 2: 19, 3: 28, 30: 285}


def test_precisions_have_the_widths_under_test():
    assert {lw: DecimalSpec(p, 0).words for lw, p in PRECISIONS.items()} == {
        lw: lw for lw in PRECISIONS
    }


@st.composite
def specs(draw):
    precision = PRECISIONS[draw(st.sampled_from(sorted(PRECISIONS)))]
    # Scale 0 half the time: modulo takes integer operands only.
    return DecimalSpec(precision, draw(st.sampled_from([0, 0, 0, 1, 2, 6])))


@st.composite
def unscaled_values(draw, spec):
    """Signed unscaled ints, some past the container (they wrap)."""
    container = 1 << (32 * spec.words)
    edges = [0, 1, spec.max_unscaled, container - 1, container, 2**32, 2**63]
    magnitude = draw(
        st.sampled_from([edge for edge in edges if edge <= container])
        | st.integers(0, spec.max_unscaled)
        | st.integers(0, container + 5)
        | st.integers(0, 10**6)
    )
    return magnitude if draw(st.booleans()) else -magnitude


def eager(unscaled, spec):
    """``from_unscaled_container`` as the limb-tuple constructor builds it."""
    magnitude = abs(unscaled) % (1 << (32 * spec.words))
    return DecimalValue(
        spec, unscaled < 0 and magnitude != 0, tuple(words.from_int(magnitude, spec.words))
    )


def lazies(unscaled, spec):
    return [
        DecimalValue.from_unscaled_container(unscaled, spec),
        DecimalValue.column_from_unscaled_container([unscaled], spec)[0],
    ]


def state(value):
    """Everything a value shows, words last (reading them builds them)."""
    return (
        value.spec,
        value.negative,
        value.unscaled,
        value.is_zero,
        str(value),
        hash(value),
        tuple(value.words),
    )


def outcome(function, *args):
    """``state`` of ``function(*args)``, or the type of the error it raised."""
    try:
        return state(function(*args))
    except Exception as error:  # compared between eager and lazy operands
        return type(error)


OPERATIONS = [operator.add, operator.sub, operator.mul, operator.truediv, operator.mod]


class TestLazyEqualsEager:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_observable_matches(self, data):
        spec_a, spec_b = data.draw(specs()), data.draw(specs())
        x = data.draw(unscaled_values(spec_a))
        y = data.draw(unscaled_values(spec_b))
        a, b = eager(x, spec_a), eager(y, spec_b)
        target = data.draw(specs())
        scale = data.draw(st.integers(0, spec_a.precision + 3))
        for lazy_a in lazies(x, spec_a):
            for lazy_b in lazies(y, spec_b):
                # Compare before any read builds the words.
                assert (lazy_a == lazy_b) == (a == b)
                assert (lazy_a < lazy_b) == (a < b)
                assert lazy_a.compare(lazy_b) == a.compare(b)
                for operation in OPERATIONS:
                    assert outcome(operation, lazy_a, lazy_b) == outcome(operation, a, b)
            assert outcome(operator.neg, lazy_a) == outcome(operator.neg, a)
            assert outcome(DecimalValue.rescale, lazy_a, scale) == outcome(
                DecimalValue.rescale, a, scale
            )
            assert outcome(DecimalValue.with_spec, lazy_a, target) == outcome(
                DecimalValue.with_spec, a, target
            )
            assert lazy_a == a and hash(lazy_a) == hash(a)
            assert state(lazy_a) == state(a)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_the_column_constructor_equals_one_value_at_a_time(self, data):
        spec = data.draw(specs())
        values = data.draw(st.lists(unscaled_values(spec), max_size=12))
        column = DecimalValue.column_from_unscaled_container(values, spec)
        assert [state(value) for value in column] == [state(eager(u, spec)) for u in values]

    def test_results_hold_no_words_until_read(self):
        spec = DecimalSpec(64, 4)
        with mock.patch.object(words, "from_int", wraps=words.from_int) as split:
            (value,) = DecimalValue.column_from_unscaled_container([-123456789], spec)
            results = [
                value,
                DecimalValue.from_unscaled(5, spec),
                DecimalValue.from_literal("-1.25"),
                DecimalValue.zero(spec),
                value / DecimalValue.from_unscaled(7, spec),
                DecimalValue.from_unscaled(-50, DecimalSpec(9, 0)) % DecimalValue.from_literal(7),
                value.rescale(6),
                -value,
            ]
            assert [str(result) for result in results]
            assert split.call_count == 0
            assert value.words == (123456789,) + (0,) * (spec.words - 1)
            assert value.words is value.words
            split.assert_called_once_with(123456789, spec.words)


    def test_a_product_past_its_result_words_raises_when_built(self):
        # 2**64 - 1 fits DECIMAL(10, 0)'s two words but not its precision;
        # the square needs four words and DECIMAL(20, 0) has three.
        spec = DecimalSpec(10, 0)
        for value in [eager(2**64 - 1, spec)] + lazies(2**64 - 1, spec):
            with pytest.raises(OverflowError):
                operator.mul(value, value)


class TestNegativeZero:
    @pytest.mark.parametrize("lw", sorted(PRECISIONS))
    def test_a_signed_zero_word_array_reads_as_zero(self, lw):
        spec = DecimalSpec(PRECISIONS[lw], 2)
        signed = DecimalValue(spec, True, (0,) * lw)
        zero = DecimalValue.zero(spec)
        assert signed.negative and not zero.negative
        assert signed.unscaled == 0 and signed.is_zero
        assert str(signed) == str(zero) == "0.00"
        assert signed == zero and hash(signed) == hash(zero)
        assert signed.words == zero.words == (0,) * lw
        assert -signed is signed

    def test_a_literal_truncated_to_zero_keeps_its_sign(self):
        value = DecimalValue.from_literal("-0.001", DecimalSpec(4, 2))
        assert value.negative and value.is_zero
        assert str(value) == "0.00"
        assert value == DecimalValue.zero(DecimalSpec(4, 2))


class TestImmutableValue:
    SPEC = DecimalSpec(28, 3)

    def values(self):
        lazy = DecimalValue.from_unscaled(-(2**70), self.SPEC)
        return [lazy, eager(-(2**70), self.SPEC), DecimalValue(self.SPEC, False, [5, 0, 0])]

    @pytest.mark.parametrize("name", ["spec", "negative", "words", "unscaled", "is_zero", "extra"])
    def test_assigning_an_attribute_raises(self, name):
        for value in self.values():
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            if name != "extra":
                with pytest.raises(AttributeError):
                    delattr(value, name)

    def test_the_constructor_keeps_the_words_it_is_given(self):
        given_words = [5, 0, 0]
        value = DecimalValue(self.SPEC, False, given_words)
        assert value.words is given_words
        assert value.unscaled == 5

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy]
        + [
            (lambda value, protocol=protocol: pickle.loads(pickle.dumps(value, protocol)))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ],
    )
    def test_copy_and_pickle_round_trip(self, clone):
        for value in self.values():
            copied = clone(value)
            assert type(copied) is DecimalValue
            assert state(copied) == state(value)
            assert copied == value and hash(copied) == hash(value)
            assert copied.words == value.words  # a given list stays a list
        lazy = DecimalValue.from_unscaled(42, self.SPEC)
        assert state(clone(lazy)) == state(DecimalValue(self.SPEC, False, (42, 0, 0)))


def first_reads(value, readers):
    """``value.words`` as read by ``readers`` threads released together."""
    barrier = threading.Barrier(readers)
    results = [None] * readers

    def read(reader):
        barrier.wait(timeout=30)
        results[reader] = value.words

    threads = [threading.Thread(target=read, args=(reader,)) for reader in range(readers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    return results


def test_racing_first_reads_of_the_words_agree():
    spec = DecimalSpec(285, 2)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_index in range(40):
            magnitude = (7**300 + round_index) % spec.max_unscaled
            expected = tuple(words.from_int(magnitude, spec.words))
            value = DecimalValue.from_unscaled(-magnitude, spec)
            assert first_reads(value, 8) == [expected] * 8
            assert value.words == expected
            assert value.unscaled == -magnitude
    finally:
        sys.setswitchinterval(previous)
