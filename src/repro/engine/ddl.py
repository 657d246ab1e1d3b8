"""Convenience DDL: build relations from Python literals.

``Database.create_table`` accepts a schema of type strings and rows of
host literals, handling the literal -> unscaled conversion so users never
touch limb arrays:

    db.create_table(
        "accounts",
        {"balance": "DECIMAL(20, 4)", "owner": "CHAR(8)", "opened": "INT"},
        rows=[("1234.5678", "alice", 1), (99, "bob", 2)],
    )
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Union

from repro.core.decimal.context import DecimalSpec
from repro.core.decimal.convert import literal_to_unscaled
from repro.errors import SchemaError
from repro.storage.column import Column
from repro.storage.relation import Relation
from repro.storage.schema import (
    CharType,
    ColumnType,
    DateType,
    DecimalType,
    DoubleType,
    IntType,
)

_DECIMAL_RE = re.compile(r"^DECIMAL\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)$", re.IGNORECASE)
_CHAR_RE = re.compile(r"^CHAR\s*\(\s*(\d+)\s*\)$", re.IGNORECASE)

TypeSpec = Union[str, ColumnType, DecimalSpec]


def parse_type(spec: TypeSpec) -> ColumnType:
    """Turn a type string (or a ready-made type object) into a ColumnType."""
    if isinstance(spec, DecimalSpec):
        return DecimalType(spec)
    if isinstance(spec, (DecimalType, DoubleType, IntType, DateType, CharType)):
        return spec
    if not isinstance(spec, str):
        raise SchemaError(f"unsupported type spec {spec!r}")
    text = spec.strip()
    match = _DECIMAL_RE.match(text)
    if match:
        return DecimalType(DecimalSpec(int(match.group(1)), int(match.group(2))))
    match = _CHAR_RE.match(text)
    if match:
        return CharType(int(match.group(1)))
    upper = text.upper()
    if upper in ("DOUBLE", "FLOAT8"):
        return DoubleType()
    if upper in ("INT", "BIGINT", "INTEGER"):
        return IntType()
    if upper == "DATE":
        return DateType()
    raise SchemaError(f"unsupported column type {spec!r}")


def build_relation(
    name: str,
    schema: Dict[str, TypeSpec],
    rows: Sequence[Sequence] = (),
) -> Relation:
    """Build a relation from a schema and rows of host literals.

    Every row must hold one value per schema column: the first that does
    not raises :class:`~repro.errors.SchemaError`.
    """
    types = {column: parse_type(spec) for column, spec in schema.items()}
    rows = list(rows)
    for index, row in enumerate(rows):
        if len(row) != len(types):
            raise SchemaError(
                f"row {index} has {len(row)} values but the schema has {len(types)} columns"
            )
    columns: List[Column] = []
    transposed = list(zip(*rows)) if rows else [[] for _ in types]
    for (column_name, column_type), values in zip(types.items(), transposed):
        values = list(values)
        if isinstance(column_type, DecimalType):
            unscaled = _unscaled_values(values, column_type.spec)
            columns.append(Column.decimal_from_unscaled(column_name, unscaled, column_type.spec))
        elif isinstance(column_type, CharType):
            columns.append(Column.chars(column_name, [str(v) for v in values], column_type.width))
        elif isinstance(column_type, DoubleType):
            columns.append(Column.doubles(column_name, [float(v) for v in values]))
        elif isinstance(column_type, DateType):
            columns.append(Column.dates(column_name, [int(v) for v in values]))
        else:
            columns.append(Column.integers(column_name, [int(v) for v in values]))
    return Relation(name, columns)


def _unscaled_values(values: Sequence, spec: DecimalSpec) -> List[int]:
    """Signed unscaled ints of host literals, each distinct literal converted once.

    Appended batches repeat values (prices, quantities, flags), so the
    conversion is memoized per column.  A column of ``str`` keys on the
    text; otherwise the key holds the literal's type: ``True == 1`` with
    equal hashes, and a value-only key would let a boolean through once
    ``1`` had converted (booleans are rejected).
    """
    by_text = set(map(type, values)) <= {str}
    converted: Dict[object, int] = {}
    unscaled = []
    for value in values:
        key = value if by_text else (type(value), value)
        try:
            result = converted[key]
        except KeyError:
            result = converted[key] = _signed(value, spec)
        except TypeError:  # unhashable: the conversion itself says why
            result = _signed(value, spec)
        unscaled.append(result)
    return unscaled


def _signed(value, spec: DecimalSpec) -> int:
    negative, magnitude = literal_to_unscaled(value, spec)
    return -magnitude if negative else magnitude
