"""Column types for the storage layer.

The reproduction needs DECIMAL (the star of the paper), DOUBLE (the fast
but inexact comparison type of Figure 1), and the handful of scalar types
TPC-H requires (integers, dates, chars).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Tuple, Union

from repro.core.decimal.context import DecimalSpec
from repro.core.decimal.convert import literal_comparison, literal_text, scaled_comparison
from repro.errors import ConversionError, SchemaError


@dataclass(frozen=True)
class DecimalType:
    """A fixed-point ``DECIMAL(p, s)`` column type."""

    spec: DecimalSpec

    @classmethod
    def of(cls, precision: int, scale: int) -> "DecimalType":
        return cls(DecimalSpec(precision, scale))

    @property
    def bytes_per_value(self) -> int:
        return self.spec.compact_bytes

    def __str__(self) -> str:
        return str(self.spec)


@dataclass(frozen=True)
class DoubleType:
    """IEEE 754 binary64 -- fast, but cannot represent 0.1 exactly."""

    @property
    def bytes_per_value(self) -> int:
        return 8

    def __str__(self) -> str:
        return "DOUBLE"


@dataclass(frozen=True)
class IntType:
    """64-bit integer."""

    @property
    def bytes_per_value(self) -> int:
        return 8

    def __str__(self) -> str:
        return "BIGINT"


@dataclass(frozen=True)
class DateType:
    """Date stored as days since epoch."""

    @property
    def bytes_per_value(self) -> int:
        return 4

    def __str__(self) -> str:
        return "DATE"


@dataclass(frozen=True)
class CharType:
    """Fixed-width character data."""

    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise SchemaError(f"CHAR width must be positive, got {self.width}")

    @property
    def bytes_per_value(self) -> int:
        return self.width

    def __str__(self) -> str:
        return f"CHAR({self.width})"


ColumnType = Union[DecimalType, DoubleType, IntType, DateType, CharType]


def is_decimal(column_type: ColumnType) -> bool:
    """Whether a column type is DECIMAL."""
    return isinstance(column_type, DecimalType)


#: Day 0 of a DATE column (the TPC-H epoch here).
_DATE_EPOCH = datetime.date(1992, 1, 1)

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def literal_operand(op: str, literal, column_type: ColumnType) -> Union[bool, Tuple[str, object]]:
    """How ``column <op> literal`` compares with a column's stored values.

    The one rule for every place a literal meets a column: the filter,
    zone maps, the encoded compare, predicate simplification and the cost
    model.  Returns ``(op, value)`` in the column's storage domain, or a
    constant verdict (``True``: every row matches, ``False``: none).

    * DECIMAL: the unscaled integer at the column's scale
      (:func:`~repro.core.decimal.convert.literal_comparison`);
    * INT, and DATE against a number: exactly, at scale 0 on int64, so
      ``q > 2.5`` is ``q > 2`` and ``q = 2.5`` matches nothing;
    * DATE against a quoted date: its day number;
    * CHAR: the text, space-padded to the width as stored;
    * DOUBLE: the literal as a float, the precision the column has (an
      exact literal would make ``d = 0.1`` miss a stored 0.1).

    Raises ``ConversionError`` when the literal cannot be read as the
    column's type.
    """
    if isinstance(column_type, DecimalType):
        return literal_comparison(op, literal, column_type.spec)
    if isinstance(column_type, CharType):
        return op, literal_text(literal).ljust(column_type.width).encode()
    try:
        if isinstance(column_type, DoubleType):
            return op, float(literal)
        if isinstance(column_type, DateType) and isinstance(literal, str):
            return op, (datetime.date.fromisoformat(literal) - _DATE_EPOCH).days
    except ValueError as error:
        raise ConversionError(f"{literal!r} is not a {column_type} literal") from error
    return scaled_comparison(op, literal, 0, _INT64_MIN, _INT64_MAX)
