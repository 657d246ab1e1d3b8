"""WHERE literals with more fractional digits than their DECIMAL column.

A literal is compared with the column's values exactly: ``a >= 0.055`` on
a ``DECIMAL(4, 2)`` column keeps 0.06 and drops 0.05, ``a = 0.055`` matches
nothing, and ``a < 100`` matches every row although 100 does not fit the
type.  Every path that compares a literal -- the plain filter, an
order-preserving codec's zone maps and encoded compare, a join's pushed-down
build-side predicate, predicate simplification and the cost model -- must
agree with a comparison of exact rationals.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.decimal import dinf
from repro.core.decimal.context import DecimalSpec
from repro.core.decimal.convert import literal_comparison
from repro.engine import Database
from repro.engine.plan import physical, reference
from repro.engine.plan.cost import TableStats
from repro.engine.sql.ast_nodes import Comparison
from repro.errors import ConversionError
from repro.storage.codecs import OrderPreservingCodec, choose_codec
from repro.storage.column import Column
from repro.storage.relation import Relation

OPS = ["=", "<>", "<", "<=", ">", ">="]
COMPARE = {
    "=": lambda x, y: x == y,
    "<>": lambda x, y: x != y,
    "<": lambda x, y: x < y,
    "<=": lambda x, y: x <= y,
    ">": lambda x, y: x > y,
    ">=": lambda x, y: x >= y,
}
SPEC = DecimalSpec(4, 2)
VALUES = [5, 6, 7]  # 0.05, 0.06, 0.07


def unscaled(result):
    return [row[0].unscaled for row in result.rows]


def table(values=VALUES, spec=SPEC, codec=False):
    column = Column.decimal_from_unscaled("a", values, spec)
    if codec:
        column = column.with_codec(choose_codec(spec, values), 2)
        column.encoding()
    keys = Column.integers("k", list(range(len(values))))
    return Relation("t", [keys, column])


def database(*relations):
    db = Database()
    for relation in relations:
        db.register(relation)
    return db


class TestReproducers:
    @pytest.mark.parametrize("codec", [False, True])
    @pytest.mark.parametrize(
        "where,expected",
        [
            ("a >= 0.055", [6, 7]),
            ("a > 0.055", [6, 7]),
            ("a = 0.055", []),
            ("a <> 0.055", [5, 6, 7]),
            ("a < 0.065", [5, 6]),
            ("a <= 0.065", [5, 6]),
            ("a < 100", [5, 6, 7]),
            ("a > 100", []),
            ("a >= 0.055 AND a <= 0.055", []),
            ("a >= 0.05 AND a < 0.055", [5]),
        ],
    )
    def test_filter(self, where, expected, codec):
        relation = table(codec=codec)
        if codec:
            assert relation.column("a").codec.order_preserving
        db = database(relation)
        assert unscaled(db.execute(f"SELECT a FROM t WHERE {where}")) == expected

    def test_sum(self):
        db = database(table())
        result = db.execute("SELECT SUM(a) FROM t WHERE a >= 0.055")
        assert str(result.rows[0][0]) == "0.13"

    def test_pushed_down_build_side_predicate(self):
        build = Relation(
            "v",
            [Column.integers("j", [0, 1, 2]), Column.decimal_from_unscaled("b", VALUES, SPEC)],
        )
        db = database(table(), build)
        sql = "SELECT k, b FROM t JOIN v ON k = j WHERE b >= 0.055"
        assert any("build-filter" in line for line in db.explain(sql).operators)
        rows = db.execute(sql).rows
        assert [(k, b.unscaled) for k, b in rows] == [(1, 6), (2, 7)]

    def test_zone_maps_use_the_exact_literal(self):
        relation = table(codec=True)
        skip = physical._zone_skip_mask(relation, [Comparison("a", ">=", 0.065)])
        # Chunks of two rows: [0.05, 0.06] holds no match, [0.07] does.
        assert skip.tolist() == [True, True, False]
        assert physical._zone_skip_mask(relation, [Comparison("a", "=", 0.055)]).all()
        assert physical._zone_skip_mask(relation, [Comparison("a", "<", 100)]) is None

    def test_cost_model_fractions(self):
        stats = TableStats.from_relation(table(codec=True))
        assert stats.zone_fraction(Comparison("a", "=", 0.055)) == 0.0
        assert stats.zone_fraction(Comparison("a", "<", 100)) == 1.0
        assert stats.histogram_fraction(Comparison("a", ">=", 0.055)) == pytest.approx(2 / 3)
        assert stats.histogram_fraction(Comparison("a", "<>", 0.055)) == 1.0

    def test_unparseable_literals_still_raise(self):
        with pytest.raises(ConversionError, match="not a decimal literal"):
            physical._evaluate_predicate(table().column("a"), Comparison("a", "<", "x"))


class TestLiteralComparison:
    @pytest.mark.parametrize(
        "op,literal,expected",
        [
            (">=", "0.055", (">", 5)),
            (">", "0.055", (">", 5)),
            ("<", "0.055", ("<=", 5)),
            ("<=", "0.055", ("<=", 5)),
            ("=", "0.055", False),
            ("<>", "0.055", True),
            ("<", "-0.055", ("<=", -6)),
            (">=", "-0.055", (">", -6)),
            ("<", "0.05", ("<", 5)),
            ("=", "0.050", ("=", 5)),
            (">", "3", (">", 300)),
            ("<", "100", True),
            ("<=", "99.99", ("<=", 9999)),
            ("<", "99.995", ("<=", 9999)),
            (">", "99.995", (">", 9999)),
            (">", "-99.995", True),  # floors to -100.00, past the minimum
            ("<", "-99.995", False),
            ("<>", "-100", True),
            (">=", "-100", True),
            (">", "100", False),
            ("=", "100", False),
        ],
    )
    def test_table(self, op, literal, expected):
        assert literal_comparison(op, literal, SPEC) == expected


# ---------------------------------------------------------------- property


def decimal_text(value, digits):
    magnitude = str(abs(value)).rjust(digits + 1, "0")
    text = f"{magnitude[:-digits]}.{magnitude[-digits:]}" if digits else magnitude
    return ("-" if value < 0 else "") + text


@st.composite
def specs(draw):
    precision = draw(st.integers(1, 12))
    return DecimalSpec(precision, draw(st.integers(0, min(precision, 4))))


@st.composite
def column_values(draw, spec, size=None):
    top = spec.max_unscaled
    values = st.integers(-top, top) | st.sampled_from([0, 1, -1, top, -top])
    if size is None:
        return draw(st.lists(values, max_size=12))
    return draw(st.lists(values, min_size=size, max_size=size))


@st.composite
def literals(draw, spec, values, signed=True):
    """0-6 fractional digits; near stored values, or past the precision."""
    digits = draw(st.integers(0, 6))
    if values and draw(st.booleans()):
        base = draw(st.sampled_from(values))
        shift = digits - spec.scale
        value = base * 10**shift if shift >= 0 else base // 10**-shift
        value += draw(st.integers(-2, 2))
    else:
        bound = 10 ** (spec.precision - spec.scale + digits + 1)
        value = draw(st.integers(-bound, bound))
    if not signed:
        value = abs(value)
    return decimal_text(value, digits)


def expected_mask(values, spec, op, literal):
    target = Fraction(str(literal))
    return [COMPARE[op](Fraction(v, 10**spec.scale), target) for v in values]


def sql_literal(text):
    """The text as SQL, and the literal the parser makes of it."""
    literal = float(text) if "." in text else int(text)
    assume("e" not in str(literal))  # exponent forms are not decimal literals
    return text, literal


class TestAgainstRationals:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_plain_filter(self, data):
        spec = data.draw(st.sampled_from([DecimalSpec(30, 3), DecimalSpec(25, 0)]) | specs())
        values = data.draw(column_values(spec))
        literal = data.draw(literals(spec, values))
        op = data.draw(st.sampled_from(OPS))
        column = Column.decimal_from_unscaled("a", values, spec)
        expected = expected_mask(values, spec, op, literal)
        got = physical._evaluate_predicate(column, Comparison("a", op, literal))
        assert got.tolist() == expected
        assert reference.decimal_predicate(column, op, literal).tolist() == expected

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_codec_zone_maps_and_encoded_compare(self, data):
        spec = data.draw(specs())
        values = data.draw(column_values(spec))
        literal = data.draw(literals(spec, values))
        op = data.draw(st.sampled_from(OPS))
        codec = data.draw(st.sampled_from(["chosen", "dinf"]))
        chunk_rows = data.draw(st.integers(1, 4))
        column = Column.decimal_from_unscaled("a", values, spec)
        if codec == "dinf":
            assume(dinf.supports(spec.max_unscaled))
            column = column.with_codec(OrderPreservingCodec(), chunk_rows)
        else:
            column = column.with_codec(choose_codec(spec, values), chunk_rows)
        column.encoding()
        predicate = Comparison("a", op, literal)
        expected = np.array(expected_mask(values, spec, op, literal), dtype=bool)
        encoded = physical._evaluate_predicate_encoded(column, predicate)
        if encoded is not None:
            assert encoded.tolist() == expected.tolist()
        skip = physical._zone_skip_mask(Relation("t", [column]), [predicate])
        if skip is not None:
            assert not (skip & expected).any()
        stats = TableStats.from_relation(Relation("t", [column]))
        fraction = stats.zone_fraction(predicate)
        if fraction is not None and values:
            if fraction == 0.0:
                assert not expected.any()
            if fraction == 1.0:
                assert expected.all()

    @given(data=st.data())
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
    )
    def test_pushed_down_join_predicate(self, data):
        spec = data.draw(specs())
        values = data.draw(column_values(spec, size=data.draw(st.integers(1, 8))))
        text, literal = sql_literal(data.draw(literals(spec, values, signed=False)))
        op = data.draw(st.sampled_from(OPS))
        probe = Relation("u", [Column.integers("j", list(range(len(values))))])
        db = database(probe, table(values, spec))
        sql = f"SELECT j FROM u JOIN t ON j = k WHERE a {op} {text}"
        got = sorted(row[0] for row in db.execute(sql).rows)
        mask = expected_mask(values, spec, op, literal)
        assert got == [k for k, keep in enumerate(mask) if keep]

    @given(data=st.data())
    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
    )
    def test_simplified_conjunct_pairs(self, data):
        spec = data.draw(specs())
        values = data.draw(column_values(spec, size=data.draw(st.integers(1, 8))))
        first = data.draw(literals(spec, values, signed=False))
        second = first if data.draw(st.booleans()) else data.draw(
            literals(spec, values, signed=False)
        )
        (text1, literal1), (text2, literal2) = sql_literal(first), sql_literal(second)
        op1, op2 = data.draw(st.sampled_from(OPS)), data.draw(st.sampled_from(OPS))
        db = database(table(values, spec))
        sql = f"SELECT k FROM t WHERE a {op1} {text1} AND a {op2} {text2}"
        got = sorted(row[0] for row in db.execute(sql).rows)
        mask = [
            x and y
            for x, y in zip(
                expected_mask(values, spec, op1, literal1),
                expected_mask(values, spec, op2, literal2),
            )
        ]
        assert got == [k for k, keep in enumerate(mask) if keep]
