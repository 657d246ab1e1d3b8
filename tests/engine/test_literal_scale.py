"""WHERE literals with more fractional digits than their DECIMAL column.

A literal is compared with the column's values exactly: ``a >= 0.055`` on
a ``DECIMAL(4, 2)`` column keeps 0.06 and drops 0.05, ``a = 0.055`` matches
nothing, and ``a < 100`` matches every row although 100 does not fit the
type.  Every path that compares a literal -- the plain filter, an
order-preserving codec's zone maps and encoded compare, a join's pushed-down
build-side predicate, predicate simplification, HAVING and the cost model --
must agree with a comparison of exact rationals.  The SQL parser keeps a
number literal exactly as written, so no digit is lost before it compares.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.decimal import dinf
from repro.core.decimal.context import DecimalSpec
from repro.core.decimal.convert import literal_comparison
from repro.engine import Database
from repro.engine.plan import physical, reference
from repro.engine.plan.cost import TableStats
from repro.engine.sql.ast_nodes import Comparison
from repro.errors import ConversionError
from repro.storage.codecs import ForCodec, OrderPreservingCodec, choose_codec
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

    @pytest.mark.parametrize(
        "where,expected",
        [
            ("a = 123456789012.345678", ["123456789012.345678"]),
            ("a >= 123456789012.345679", ["123456789012.345679"]),
            ("a > 0.000005", ["123456789012.345678", "123456789012.345679"]),
            ("a < 0.00000001", []),
            ("a > 123456789012.3456785", ["123456789012.345679"]),
        ],
    )
    def test_literals_are_read_exactly(self, where, expected):
        db = Database()
        db.create_table(
            "t",
            {"a": "DECIMAL(18, 6)", "c": "INT"},
            rows=[("123456789012.345678", 1), ("123456789012.345679", 2)],
        )
        rows = db.execute(f"SELECT a FROM t WHERE {where}").rows
        assert [str(a) for (a,) in rows] == expected

    def test_having_reads_a_tiny_literal_exactly(self):
        db = Database()
        db.create_table(
            "t",
            {"a": "DECIMAL(18, 6)", "c": "INT"},
            rows=[("0.000005", 1), ("0.000006", 2)],
        )
        sql = "SELECT c, SUM(a) AS s FROM t GROUP BY c HAVING s > 0.000005"
        assert [c for c, _ in db.execute(sql).rows] == [2]
        sql = "SELECT c, SUM(a) AS s FROM t GROUP BY c HAVING s > 0.0000050"
        assert [c for c, _ in db.execute(sql).rows] == [2]

    def test_explain_prints_the_literal_as_written(self):
        db = database(table())
        text = "\n".join(db.explain("SELECT a FROM t WHERE a >= 0.0000001").operators)
        assert "a >= 0.0000001" in text

    def test_unparseable_literals_still_raise(self):
        with pytest.raises(ConversionError, match="not a decimal literal"):
            physical._evaluate_predicate(table().column("a"), Comparison("a", "<", "x"))


class TestLiteralMeetsColumnType:
    """``storage.schema.literal_operand`` decides every non-DECIMAL case too."""

    @pytest.fixture()
    def db(self):
        db = Database()
        db.create_table(
            "t",
            {"q": "INT", "d": "DATE", "x": "DOUBLE", "s": "CHAR(3)"},
            rows=[(2, 5, 0.1, "ab"), (3, 6, 0.25, "b"), (9, 40, 1.5, "abc")],
        )
        return db

    @pytest.mark.parametrize(
        "where,expected",
        [
            ("q > 2.5", [3, 9]),
            ("q = 2.5", []),
            ("q <> 2.5", [2, 3, 9]),
            ("q <= 3.0", [2, 3]),
            ("q < 100000000000000000000", [2, 3, 9]),
            ("d = 5.5", []),
            ("d >= 5.5", [3, 9]),
            ("d < 6", [2]),
            ("d >= '1992-01-07'", [3, 9]),
            ("x = 0.1", [2]),
            ("x < 0.25", [2]),
            ("x >= 0.250", [3, 9]),
            ("s = 'ab'", [2]),
            ("s > 'ab'", [3, 9]),
        ],
    )
    def test_filter(self, db, where, expected):
        assert [q for (q,) in db.execute(f"SELECT q FROM t WHERE {where}").rows] == expected

    @pytest.mark.parametrize("where", ["x = 'abc'", "d = '1998-13-45'", "q < 'x'"])
    def test_unreadable_literal_is_a_conversion_error(self, db, where):
        with pytest.raises(ConversionError):
            db.execute(f"SELECT q FROM t WHERE {where}")

    def test_quoted_number_meets_double(self, db):
        assert db.execute("SELECT q FROM t WHERE x = '0.25'").rows == [(3,)]

    def test_int_bounds_simplify_exactly(self, db):
        operators = db.explain("SELECT q FROM t WHERE q >= 3 AND q <= 3.0").operators
        assert any("Filter [q = 3]" in op for op in operators)
        operators = db.explain("SELECT q FROM t WHERE q > 3.5 AND q <= 3").operators
        assert any("Filter [FALSE]" in op for op in operators)


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
    """Up to 20 digits on each side of the point: near a stored value,
    tiny (7 or more leading fractional zeros), or any magnitude."""
    digits = draw(st.integers(0, 20))
    shape = draw(st.sampled_from(["near", "tiny", "any"]))
    if shape == "near" and values:
        base = draw(st.sampled_from(values))
        shift = digits - spec.scale
        value = base * 10**shift if shift >= 0 else base // 10**-shift
        value += draw(st.integers(-2, 2))
    elif shape == "tiny" and digits >= 8:
        value = draw(st.integers(1, 10 ** (digits - 7) - 1))
    else:
        bound = 10 ** (draw(st.integers(0, 20)) + digits) - 1
        value = draw(st.integers(-bound, bound))
    if not signed or draw(st.booleans()):
        value = abs(value)
    return decimal_text(value, digits)


def expected_mask(values, spec, op, literal):
    target = Fraction(str(literal))
    return [COMPARE[op](Fraction(v, 10**spec.scale), target) for v in values]


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
        codec = data.draw(st.sampled_from(["chosen", "dinf", "for"]))
        chunk_rows = data.draw(st.integers(1, 4))
        column = Column.decimal_from_unscaled("a", values, spec)
        if codec == "dinf":
            assume(dinf.supports(spec.max_unscaled))
            column = column.with_codec(OrderPreservingCodec(), chunk_rows)
        elif codec == "for":
            column = column.with_codec(ForCodec(), chunk_rows)
        else:
            column = column.with_codec(choose_codec(spec, values), chunk_rows)
        column.encoding()
        predicate = Comparison("a", op, literal)
        expected = np.array(expected_mask(values, spec, op, literal), dtype=bool)
        encoded = physical._evaluate_predicate_encoded(column, predicate)
        if encoded is not None:
            assert encoded.tolist() == expected.tolist()
        # Lanes, then encoded bytes for a literal past int64, then limbs.
        assert physical._evaluate_predicate(column, predicate).tolist() == expected.tolist()
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
    @settings(max_examples=60, deadline=None)
    def test_pushed_down_join_predicate(self, data):
        spec = data.draw(specs())
        values = data.draw(column_values(spec, size=data.draw(st.integers(1, 8))))
        text = data.draw(literals(spec, values, signed=False))
        op = data.draw(st.sampled_from(OPS))
        probe = Relation("u", [Column.integers("j", list(range(len(values))))])
        db = database(probe, table(values, spec))
        sql = f"SELECT j FROM u JOIN t ON j = k WHERE a {op} {text}"
        got = sorted(row[0] for row in db.execute(sql).rows)
        mask = expected_mask(values, spec, op, text)
        assert got == [k for k, keep in enumerate(mask) if keep]

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_simplified_conjunct_pairs(self, data):
        spec = data.draw(specs())
        values = data.draw(column_values(spec, size=data.draw(st.integers(1, 8))))
        first = data.draw(literals(spec, values, signed=False))
        second = first if data.draw(st.booleans()) else data.draw(
            literals(spec, values, signed=False)
        )
        op1, op2 = data.draw(st.sampled_from(OPS)), data.draw(st.sampled_from(OPS))
        db = database(table(values, spec))
        sql = f"SELECT k FROM t WHERE a {op1} {first} AND a {op2} {second}"
        got = sorted(row[0] for row in db.execute(sql).rows)
        mask = [
            x and y
            for x, y in zip(
                expected_mask(values, spec, op1, first),
                expected_mask(values, spec, op2, second),
            )
        ]
        assert got == [k for k, keep in enumerate(mask) if keep]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_having(self, data):
        spec = data.draw(specs())
        values = data.draw(column_values(spec, size=data.draw(st.integers(1, 8))))
        groups = data.draw(st.integers(1, 3))
        sums = [sum(values[g::groups]) for g in range(groups)]
        text = data.draw(literals(spec, sums, signed=False))
        op = data.draw(st.sampled_from(OPS))
        relation = Relation(
            "t",
            [
                Column.integers("g", [k % groups for k in range(len(values))]),
                Column.decimal_from_unscaled("a", values, spec),
            ],
        )
        db = database(relation)
        sql = f"SELECT g, SUM(a) AS s FROM t GROUP BY g HAVING s {op} {text}"
        got = sorted(row[0] for row in db.execute(sql).rows)
        target = Fraction(text)
        expected = [
            g
            for g, total in enumerate(sums)
            if g < len(values) and COMPARE[op](Fraction(total, 10**spec.scale), target)
        ]
        assert got == expected
