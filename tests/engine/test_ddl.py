"""Tests for the create_table convenience DDL."""

from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decimal.context import DecimalSpec
from repro.core.decimal.convert import literal_to_unscaled
from repro.engine import Database
from repro.engine.ddl import build_relation, parse_type
from repro.errors import ConversionError, SchemaError
from repro.storage.schema import CharType, DateType, DecimalType, DoubleType, IntType


class TestParseType:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("DECIMAL(10, 2)", DecimalType(DecimalSpec(10, 2))),
            ("decimal(35,5)", DecimalType(DecimalSpec(35, 5))),
            ("CHAR(8)", CharType(8)),
            ("DOUBLE", DoubleType()),
            ("INT", IntType()),
            ("BIGINT", IntType()),
            ("DATE", DateType()),
        ],
    )
    def test_strings(self, text, expected):
        assert parse_type(text) == expected

    def test_spec_object(self):
        assert parse_type(DecimalSpec(5, 1)) == DecimalType(DecimalSpec(5, 1))

    def test_rejects_junk(self):
        with pytest.raises(SchemaError):
            parse_type("VARCHAR")
        with pytest.raises(SchemaError):
            parse_type(42)


class TestBuildRelation:
    def test_literals_convert(self):
        relation = build_relation(
            "t",
            {"amount": "DECIMAL(12, 4)", "tag": "CHAR(3)", "n": "INT"},
            rows=[("1.5", "abc", 1), (-2, "de", 2), (0.25, "xyz", 3)],
        )
        assert relation.column("amount").unscaled() == [15000, -20000, 2500]
        assert relation.column("n").data.tolist() == [1, 2, 3]

    def test_empty_rows(self):
        relation = build_relation("t", {"a": "DECIMAL(4, 0)"})
        assert relation.rows == 0

    def test_arity_mismatch(self):
        with pytest.raises(SchemaError):
            build_relation("t", {"a": "INT", "b": "INT"}, rows=[(1,)])

    def test_overflowing_literal(self):
        with pytest.raises(ConversionError):
            build_relation("t", {"a": "DECIMAL(3, 2)"}, rows=[("99.99",)])

    def test_repeated_literals_convert_once_per_type(self):
        relation = build_relation(
            "t", {"a": "DECIMAL(6, 2)"}, rows=[("1.5",), (1,), ("1.5",), (1.0,), (1,)]
        )
        assert relation.column("a").unscaled() == [150, 100, 150, 100, 100]
        # ``True == 1`` and both hash alike: a seen 1 must not let True in.
        with pytest.raises(ConversionError, match="booleans"):
            build_relation("t", {"a": "DECIMAL(6, 2)"}, rows=[(1,), (True,)])
        with pytest.raises(ConversionError, match="unsupported literal type"):
            build_relation("t", {"a": "DECIMAL(6, 2)"}, rows=[(1,), ([1],)])


class TestRowLengths:
    """Every row holds one value per column, or the batch is refused."""

    def test_a_long_row_is_refused(self):
        with pytest.raises(SchemaError, match="row 0 has 3 values but the schema has 2"):
            build_relation("t", {"a": "INT", "b": "INT"}, rows=[(1, 2, 3), (4, 5)])
        db = Database()
        with pytest.raises(SchemaError, match="row 0 has 3 values"):
            db.create_table("t", {"a": "INT", "b": "INT"}, rows=[(1, 2, 3), (4, 5)])
        assert "t" not in db.catalog

    def test_a_short_row_is_refused(self):
        with pytest.raises(SchemaError, match="row 1 has 1 values but the schema has 2"):
            build_relation("t", {"a": "INT", "b": "INT"}, rows=[(1, 2), (3,)])

    def test_rows_may_come_from_a_generator(self):
        relation = build_relation("t", {"a": "INT"}, rows=((k,) for k in range(3)))
        assert relation.column("a").data.tolist() == [0, 1, 2]

    def test_an_empty_batch_builds_no_rows(self):
        assert build_relation("t", {"a": "INT", "b": "INT"}, rows=[]).rows == 0

    def test_a_ragged_append_keeps_the_old_rows(self):
        db = Database()
        db.create_table("t", {"v": "DECIMAL(6, 2)", "n": "INT"}, rows=[("1.5", 1)])
        before = db.catalog.get("t")
        with pytest.raises(SchemaError, match="row 1 has 3 values"):
            db.append("t", [("2.5", 2), ("3.5", 3, "extra")])
        assert db.catalog.get("t") is before
        db.append("t", [])
        assert [str(v) for (v,) in db.execute("SELECT v FROM t").rows] == ["1.50"]
        db.append("t", [("2.5", 2)])
        assert db.execute("SELECT SUM(v) FROM t").scalar.unscaled == 400


#: The DECIMAL types the literal property runs at: one word, int64 lanes
#: at scale 0, and two specs past int64.
LITERAL_SPECS = [DecimalSpec(3, 2), DecimalSpec(12, 0), DecimalSpec(38, 10), DecimalSpec(60, 2)]

DIGITS = st.text(alphabet="0123456789", max_size=70)
#: ``[space][sign][digits][.digits][space]`` with any part empty.
LITERAL_TEXTS = st.builds(
    lambda lead, sign, whole, fraction, trail: (
        lead + sign + whole + ("" if fraction is None else "." + fraction) + trail
    ),
    st.sampled_from(["", " ", "\t", "\u00a0"]),
    st.sampled_from(["", "+", "-"]),
    DIGITS,
    st.none() | DIGITS,
    st.sampled_from(["", " ", "\n"]),
) | st.sampled_from(
    ["1.", ".5", "+.5", "-0.00", "", ".", "-", "1_0", "1e5", "\u0661\u0662.\u0665",
     "\uff11\uff12", "\u00b2", "0x1F", "1.2.3"]
)
HOST_VALUES = (
    st.integers(-(10**65), 10**65)
    | st.floats()
    | st.decimals()
    | st.booleans()
    | st.just([1])
)


@st.composite
def literal_columns(draw):
    """One column of literals drawn from a small pool, so that values
    repeat; half the columns hold only text, the rest mix in host values."""
    values = LITERAL_TEXTS if draw(st.booleans()) else LITERAL_TEXTS | HOST_VALUES
    pool = draw(st.lists(values, min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), max_size=12))


class TestLiteralConversion:
    """``build_relation`` converts every literal as ``literal_to_unscaled``
    does, or fails as it does on the first value it rejects."""

    @given(st.sampled_from(LITERAL_SPECS), literal_columns())
    @settings(max_examples=400, deadline=None)
    def test_build_relation_converts_like_literal_to_unscaled(self, spec, values):
        expected, error = [], None
        for value in values:
            try:
                negative, magnitude = literal_to_unscaled(value, spec)
            except Exception as exc:  # compared with build_relation's below
                error = exc
                break
            expected.append(-magnitude if negative else magnitude)
        rows = [(value,) for value in values]
        if error is None:
            assert build_relation("t", {"a": spec}, rows).column("a").unscaled() == expected
            return
        with pytest.raises(type(error)) as raised:
            build_relation("t", {"a": spec}, rows)
        assert type(raised.value) is type(error)
        assert str(raised.value) == str(error)

    def test_each_literal_form(self):
        spec = DecimalSpec(6, 2)
        values = [" -1.5 ", "1.", ".5", "+.5", "-0.00", "\u0661\u0662", 3, 0.25, Decimal("-2.50")]
        relation = build_relation("t", {"a": spec}, [(value,) for value in values])
        assert relation.column("a").unscaled() == [-150, 100, 50, 50, 0, 1200, 300, 25, -250]


class TestDatabaseIntegration:
    def test_create_and_query(self):
        db = Database()
        db.create_table(
            "accounts",
            {"balance": "DECIMAL(20, 4)", "owner": "CHAR(8)"},
            rows=[("1234.5678", "alice"), (99, "bob"), ("-0.5", "carol")],
        )
        result = db.execute("SELECT SUM(balance) FROM accounts")
        assert str(result.scalar) == "1333.0678"

        grouped = db.execute(
            "SELECT owner, SUM(balance * 2) FROM accounts GROUP BY owner ORDER BY owner"
        )
        assert [row[0] for row in grouped.rows] == ["alice", "bob", "carol"]
        assert grouped.rows[2][1].unscaled == -10000  # -0.5 * 2 at scale 4

    def test_replace(self):
        db = Database()
        db.create_table("t", {"a": "INT"}, rows=[(1,)])
        db.create_table("t", {"a": "INT"}, rows=[(2,)], replace=True)
        assert db.execute("SELECT a FROM t").rows == [(2,)]
