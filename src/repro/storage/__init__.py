"""Columnar storage: schemas, relations, generators, codecs."""

from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.persist import load_relation, save_relation
from repro.storage.relation import Relation
from repro.storage.schema import (
    CharType,
    ColumnType,
    DateType,
    DecimalType,
    DoubleType,
    IntType,
    is_decimal,
)

__all__ = [
    "Catalog",
    "CharType",
    "Column",
    "ColumnType",
    "DateType",
    "DecimalType",
    "DoubleType",
    "IntType",
    "Relation",
    "load_relation",
    "save_relation",
    "is_decimal",
]
