"""Row-at-a-time result oracle over Python ints.

Every benchmark query is checked against this module, which shares no code
with the engine's operators, kernels or decimal library.  It reads the
registered relations straight from their storage bytes (the compact
layout: little-endian magnitude, sign in the top bit of the last byte) and
evaluates each query one row at a time with Python ints, following the
documented section III-B3 scale rules:

* ``a + b`` / ``a - b``: operands aligned to ``max(s1, s2)``;
* ``a * b``: scale ``s1 + s2``;
* ``a / b``: scale ``s1 + 4``, the quotient's magnitude truncated;
* ``AVG(x)``: ``SUM(x) / COUNT`` under the division rule;
* a constant takes the scale of its shortest exact form.

Results are compared as ``(unscaled, scale)`` pairs, so a value with the
right number at the wrong scale is a mismatch too.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Extra fractional digits of every quotient (section III-B3).
DIVISION_EXTRA_SCALE = 4

#: Dates are stored as days since this epoch.
EPOCH = datetime.date(1992, 1, 1)


@dataclass(frozen=True)
class Dec:
    """An exact decimal result: ``unscaled / 10**scale``."""

    unscaled: int
    scale: int

    def __str__(self) -> str:
        sign = "-" if self.unscaled < 0 else ""
        digits = str(abs(self.unscaled)).rjust(self.scale + 1, "0")
        if not self.scale:
            return sign + digits
        return f"{sign}{digits[:-self.scale]}.{digits[-self.scale:]}"


def days(text: str) -> int:
    """``'YYYY-MM-DD'`` as days since :data:`EPOCH`."""
    return (datetime.date.fromisoformat(text) - EPOCH).days


def parse_decimal(text: str) -> Dec:
    """A decimal literal as written, e.g. ``'12.50'`` -> ``Dec(1250, 2)``."""
    negative = text.startswith("-")
    whole, _, fraction = text.lstrip("-").partition(".")
    unscaled = int(whole + fraction)
    return Dec(-unscaled if negative else unscaled, len(fraction))


def _align(value: Dec, scale: int) -> int:
    return value.unscaled * 10 ** (scale - value.scale)


def _truncated_quotient(dividend: int, divisor: int) -> int:
    magnitude = abs(dividend) // abs(divisor)
    return -magnitude if (dividend < 0) != (divisor < 0) else magnitude


# ------------------------------------------------------------------ tables


class Table:
    """One relation as Python values; DECIMAL columns hold unscaled ints."""

    def __init__(self, names: Sequence[str], scales: Dict[str, int]):
        self.names = list(names)
        self.index = {name: position for position, name in enumerate(self.names)}
        #: Scale of each DECIMAL column; other columns are absent.
        self.scales = dict(scales)
        self.rows: List[tuple] = []

    @classmethod
    def from_relation(cls, relation) -> "Table":
        """Decode a registered relation from its storage bytes."""
        names, scales, columns = [], {}, []
        for column in relation.columns:
            names.append(column.name)
            kind = type(column.column_type).__name__
            if kind == "DecimalType":
                scales[column.name] = column.column_type.spec.scale
                columns.append(_decode_compact(column.data))
            elif kind == "CharType":
                columns.append([raw.decode().rstrip() for raw in column.data.tolist()])
            else:
                columns.append(column.data.tolist())
        table = cls(names, scales)
        table.rows = list(zip(*columns))
        return table

    def append_literals(self, rows: Sequence[Sequence]) -> None:
        """Append host-literal rows (the form ``Database.append`` takes)."""
        for row in rows:
            converted = []
            for name, value in zip(self.names, row):
                scale = self.scales.get(name)
                if scale is None:
                    converted.append(value)
                else:
                    converted.append(_align(parse_decimal(str(value)), scale))
            self.rows.append(tuple(converted))

    def column(self, name: str) -> List:
        position = self.index[name]
        return [row[position] for row in self.rows]


def _decode_compact(data) -> List[int]:
    """Signed unscaled ints from an ``(N, Lb)`` compact byte matrix."""
    width = data.shape[1]
    sign_bit = 1 << (8 * width - 1)
    raw = data.tobytes()
    values = []
    for start in range(0, len(raw), width):
        word = int.from_bytes(raw[start : start + width], "little")
        values.append(-(word ^ sign_bit) if word & sign_bit else word)
    return values


# ------------------------------------------------------------- expressions

#: Expression trees: ``("col", name)``, ``("lit", Dec)`` or
#: ``(op, left, right)`` with ``op`` one of ``+ - * /``.
Expr = tuple


def col(name: str) -> Expr:
    return ("col", name)


def lit(text: str) -> Expr:
    """A constant, typed by its shortest exact form as the JIT types it
    (``2.50`` is ``DECIMAL(2, 1)``, ``10.0`` is ``DECIMAL(2, 0)``)."""
    value = parse_decimal(text)
    unscaled, scale = value.unscaled, value.scale
    while scale and unscaled % 10 == 0:
        unscaled, scale = unscaled // 10, scale - 1
    return ("lit", Dec(unscaled, scale))


def render(expr: Expr) -> str:
    """SQL text; every binary node is parenthesised to pin the tree."""
    kind = expr[0]
    if kind == "col":
        return expr[1]
    if kind == "lit":
        return str(expr[1])
    return f"({render(expr[1])} {kind} {render(expr[2])})"


def expr_source(expr: Expr, table: Table) -> Tuple[str, int]:
    """Python source computing one row's unscaled value (row ``r``), and its scale."""
    kind = expr[0]
    if kind == "col":
        return f"r[{table.index[expr[1]]}]", table.scales[expr[1]]
    if kind == "lit":
        return f"({expr[1].unscaled})", expr[1].scale
    left, left_scale = expr_source(expr[1], table)
    right, right_scale = expr_source(expr[2], table)
    if kind in "+-":
        scale = max(left_scale, right_scale)
        return (
            f"({left} * {10 ** (scale - left_scale)} {kind} {right} * {10 ** (scale - right_scale)})",
            scale,
        )
    if kind == "*":
        return f"({left} * {right})", left_scale + right_scale
    if kind == "/":
        factor = 10 ** (right_scale + DIVISION_EXTRA_SCALE)
        return f"_quotient({left} * {factor}, {right})", left_scale + DIVISION_EXTRA_SCALE
    raise ValueError(f"unknown expression node {kind!r}")


def compile_expr(expr: Expr, table: Table) -> Tuple[Callable[[tuple], int], int]:
    """``(row -> unscaled int, result scale)`` for one expression tree."""
    source, scale = expr_source(expr, table)
    return eval(f"lambda r: {source}", {"_quotient": _truncated_quotient}), scale


# ---------------------------------------------------------- single tables


@dataclass(frozen=True)
class Item:
    """One SELECT item: ``func(expr) AS alias``; ``func`` None projects."""

    alias: str
    func: Optional[str]
    expr: Optional[Expr]

    def sql(self) -> str:
        if self.func == "COUNT":
            return f"COUNT(*) AS {self.alias}"
        body = render(self.expr)
        return f"{self.func}({body}) AS {self.alias}" if self.func else f"{body} AS {self.alias}"


@dataclass(frozen=True)
class TableQuery:
    """A single-table SELECT the oracle evaluates and renders as SQL.

    ``where`` holds ``(column, op, literal)`` conjuncts; the literal is a
    :class:`Dec` for DECIMAL columns, a day number for dates (rendered as
    ISO text) or a string.  Grouped output lists the group columns, then
    the items, one row per group in key order when ``order_by_keys``.
    """

    table: str
    items: Tuple[Item, ...]
    where: Tuple[Tuple[str, str, object], ...] = ()
    group_by: Tuple[str, ...] = ()
    order_by_keys: bool = False

    @property
    def aggregated(self) -> bool:
        return any(item.func for item in self.items)

    @property
    def ordered(self) -> bool:
        """Whether the engine's row order is part of the answer."""
        return self.order_by_keys or not self.aggregated

    def sql(self) -> str:
        select = [*self.group_by, *(item.sql() for item in self.items)]
        text = f"SELECT {', '.join(select)} FROM {self.table}"
        if self.where:
            text += " WHERE " + " AND ".join(
                f"{name} {op} {_render_literal(value)}" for name, op, value in self.where
            )
        if self.group_by:
            text += " GROUP BY " + ", ".join(self.group_by)
            if self.order_by_keys:
                text += " ORDER BY " + ", ".join(self.group_by)
        return text

    def evaluate(self, table: Table) -> List[tuple]:
        """The exact answer over every row of ``table``."""
        return self.answers(table, [len(table.rows)])[0]

    def answers(self, table: Table, prefixes: Sequence[int]) -> List[List[tuple]]:
        """The exact answer over each leading ``prefixes[i]`` rows, in one pass.

        Snapshots of a table that only grows by appends are its prefixes,
        so one pass with running group states answers every snapshot.
        """
        keep = _row_filter(self.where, table)
        compiled = [
            compile_expr(item.expr, table) if item.expr is not None else (None, 0)
            for item in self.items
        ]
        stops = sorted(set(prefixes))
        if not self.aggregated:
            kept, cut = [], {}
            for stop, start in zip(stops, [0, *stops]):
                kept.extend(
                    tuple(Dec(fn(row), scale) for fn, scale in compiled)
                    for row in table.rows[start:stop]
                    if keep(row)
                )
                cut[stop] = len(kept)
            return [kept[: cut[stop]] for stop in prefixes]
        keys = [table.index[name] for name in self.group_by]
        states: Dict[tuple, List] = {}
        snapshot = {}
        for stop, start in zip(stops, [0, *stops]):
            for row in table.rows[start:stop]:
                if not keep(row):
                    continue
                key = tuple(row[k] for k in keys)
                state = states.get(key)
                if state is None:
                    state = states[key] = [_initial(item.func) for item in self.items]
                for position, (item, (fn, _)) in enumerate(zip(self.items, compiled)):
                    state[position] = _step(item.func, state[position], fn, row)
            snapshot[stop] = self._finish(states, compiled)
        return [snapshot[stop] for stop in prefixes]

    def _finish(self, states: Dict[tuple, List], compiled) -> List[tuple]:
        if not states and not self.group_by:
            raise ValueError("aggregate over no rows")
        ordered = sorted(states) if self.order_by_keys else list(states)
        return [
            key + tuple(
                _result(item.func, value, scale)
                for item, value, (_, scale) in zip(self.items, states[key], compiled)
            )
            for key in ordered
        ]


def _render_literal(value) -> str:
    if isinstance(value, Dec):
        return str(value)
    if isinstance(value, int):
        return f"'{EPOCH + datetime.timedelta(days=value)}'"
    return f"'{value}'"


def _row_filter(where, table: Table) -> Callable[[tuple], bool]:
    """One row's WHERE verdict; DECIMAL comparisons align scales exactly."""
    terms = []
    for name, op, value in where:
        op = {"=": "==", "<>": "!="}.get(op, op)
        if isinstance(value, Dec):
            scale = max(value.scale, table.scales[name])
            factor = 10 ** (scale - table.scales[name])
            terms.append(f"r[{table.index[name]}] * {factor} {op} {_align(value, scale)}")
        else:
            terms.append(f"r[{table.index[name]}] {op} {value!r}")
    return eval(f"lambda r: {' and '.join(terms) or 'True'}")


def _initial(func: Optional[str]):
    return [0, 0] if func == "AVG" else 0 if func in ("SUM", "COUNT") else None


def _step(func: str, state, fn, row):
    if func == "COUNT":
        return state + 1
    value = fn(row)
    if func == "SUM":
        return state + value
    if func == "AVG":
        return [state[0] + value, state[1] + 1]
    if func == "MIN":
        return value if state is None or value < state else state
    if func == "MAX":
        return value if state is None or value > state else state
    raise ValueError(f"unknown aggregate {func!r}")


def _result(func: str, state, scale: int) -> Dec:
    if func == "COUNT":
        return Dec(state, 0)
    if func == "AVG":
        total, count = state
        return Dec(
            _truncated_quotient(total * 10**DIVISION_EXTRA_SCALE, count),
            scale + DIVISION_EXTRA_SCALE,
        )
    return Dec(state, scale)


# ------------------------------------------------------------ TPC-H specs

#: TPC-H Q1 as ``repro.workloads.tpch_queries.Q1_SQL`` states it.
Q1 = TableQuery(
    table="lineitem",
    items=(
        Item("sum_qty", "SUM", col("l_quantity")),
        Item("sum_base_price", "SUM", col("l_extendedprice")),
        Item("sum_disc_price", "SUM", ("*", col("l_extendedprice"), ("-", lit("1"), col("l_discount")))),
        Item(
            "sum_charge",
            "SUM",
            (
                "*",
                ("*", col("l_extendedprice"), ("-", lit("1"), col("l_discount"))),
                ("+", lit("1"), col("l_tax")),
            ),
        ),
        Item("avg_qty", "AVG", col("l_quantity")),
        Item("avg_price", "AVG", col("l_extendedprice")),
        Item("avg_disc", "AVG", col("l_discount")),
        Item("count_order", "COUNT", None),
    ),
    where=(("l_shipdate", "<=", days("1998-09-02")),),
    group_by=("l_returnflag", "l_linestatus"),
    order_by_keys=True,
)

#: TPC-H Q6 as ``Q6_SQL`` states it.
Q6 = TableQuery(
    table="lineitem",
    items=(Item("revenue", "SUM", ("*", col("l_extendedprice"), col("l_discount"))),),
    where=(
        ("l_shipdate", ">=", days("1994-01-01")),
        ("l_shipdate", "<", days("1995-01-01")),
        ("l_discount", ">=", parse_decimal("0.05")),
        ("l_discount", "<=", parse_decimal("0.07")),
        ("l_quantity", "<", parse_decimal("24")),
    ),
)


@dataclass(frozen=True)
class Ranked:
    """Groups ``key -> revenue`` answered as ``ORDER BY revenue DESC LIMIT n``.

    Ties make several row orders correct, so :func:`compare` checks that
    every returned row is a true group, that revenues never increase, and
    that the returned revenues are exactly the top ``limit`` ones.
    """

    groups: Dict[object, Dec]
    limit: Optional[int]


def _revenue_terms(tables: Dict[str, Table]):
    """``(scale, [(l_orderkey, l_extendedprice * (1 - l_discount), l_returnflag)])``."""
    lineitem = tables["lineitem"]
    price_scale = lineitem.scales["l_extendedprice"]
    discount_scale = lineitem.scales["l_discount"]
    one = 10**discount_scale
    terms = [
        (orderkey, price * (one - discount), flag)
        for orderkey, price, discount, flag in zip(
            lineitem.column("l_orderkey"),
            lineitem.column("l_extendedprice"),
            lineitem.column("l_discount"),
            lineitem.column("l_returnflag"),
        )
    ]
    return price_scale + discount_scale, terms


def q3(tables: Dict[str, Table]) -> Ranked:
    """Q3_SQL: BUILDING customers' orders before 1995-03-15, top 10."""
    segment = dict(zip(tables["customer"].column("c_custkey"), tables["customer"].column("c_mktsegment")))
    cutoff = days("1995-03-15")
    eligible = {
        key
        for key, custkey, date in zip(
            tables["orders"].column("o_orderkey"),
            tables["orders"].column("o_custkey"),
            tables["orders"].column("o_orderdate"),
        )
        if date < cutoff and segment.get(custkey) == "BUILDING"
    }
    scale, terms = _revenue_terms(tables)
    revenue: Dict[int, int] = {}
    for orderkey, term, _flag in terms:
        if orderkey in eligible:
            revenue[orderkey] = revenue.get(orderkey, 0) + term
    return Ranked({key: Dec(value, scale) for key, value in revenue.items()}, 10)


def q5(tables: Dict[str, Table]) -> Ranked:
    """Q5_SQL: revenue per nation of 1994 orders, all nations."""
    nation = dict(zip(tables["nation"].column("n_nationkey"), tables["nation"].column("n_name")))
    customer_nation = dict(
        zip(tables["customer"].column("c_custkey"), tables["customer"].column("c_nationkey"))
    )
    lo, hi = days("1994-01-01"), days("1995-01-01")
    order_nation = {}
    for key, custkey, date in zip(
        tables["orders"].column("o_orderkey"),
        tables["orders"].column("o_custkey"),
        tables["orders"].column("o_orderdate"),
    ):
        if lo <= date < hi and custkey in customer_nation and customer_nation[custkey] in nation:
            order_nation[key] = nation[customer_nation[custkey]]
    scale, terms = _revenue_terms(tables)
    revenue: Dict[str, int] = {}
    for orderkey, term, _flag in terms:
        name = order_nation.get(orderkey)
        if name is not None:
            revenue[name] = revenue.get(name, 0) + term
    return Ranked({key: Dec(value, scale) for key, value in revenue.items()}, None)


def q10(tables: Dict[str, Table]) -> Ranked:
    """Q10_SQL: returned-item revenue per customer, Q4 1993 orders, top 20."""
    customers = set(tables["customer"].column("c_custkey"))
    lo, hi = days("1993-10-01"), days("1994-01-01")
    order_customer = {
        key: custkey
        for key, custkey, date in zip(
            tables["orders"].column("o_orderkey"),
            tables["orders"].column("o_custkey"),
            tables["orders"].column("o_orderdate"),
        )
        if lo <= date < hi and custkey in customers
    }
    scale, terms = _revenue_terms(tables)
    revenue: Dict[int, int] = {}
    for orderkey, term, flag in terms:
        custkey = order_customer.get(orderkey)
        if custkey is not None and flag == "R":
            revenue[custkey] = revenue.get(custkey, 0) + term
    return Ranked({key: Dec(value, scale) for key, value in revenue.items()}, 20)


# -------------------------------------------------------------- comparing


def canonical_rows(rows) -> List[tuple]:
    """Engine result rows with DECIMAL values as :class:`Dec`."""
    return [tuple(_canonical(value) for value in row) for row in rows]


def _canonical(value):
    spec = getattr(value, "spec", None)
    if spec is not None:
        return Dec(value.unscaled, spec.scale)
    return value


def compare(expected, actual: List[tuple], ordered: bool = True) -> Optional[str]:
    """None when ``actual`` (canonical rows) answers ``expected``, else why not.

    ``expected`` is a row list (compared in order when ``ordered``, as a
    multiset otherwise) or a :class:`Ranked` answer.
    """
    if isinstance(expected, Ranked):
        return _compare_ranked(expected, actual)
    if ordered:
        if actual == expected:
            return None
    elif sorted(actual, key=repr) == sorted(expected, key=repr):
        return None
    if len(actual) != len(expected):
        return f"{len(actual)} rows, expected {len(expected)}"
    for position, (got, want) in enumerate(zip(actual, expected)):
        if got != want:
            return f"row {position}: got {_show(got)}, expected {_show(want)}"
    return "rows differ in order"


def _compare_ranked(expected: Ranked, actual: List[tuple]) -> Optional[str]:
    want = sorted(expected.groups.values(), key=lambda d: d.unscaled, reverse=True)
    if expected.limit is not None:
        want = want[: expected.limit]
    if len(actual) != len(want):
        return f"{len(actual)} rows, expected {len(want)}"
    seen = set()
    for position, row in enumerate(actual):
        key, revenue = row
        if expected.groups.get(key) != revenue or key in seen:
            return f"row {position}: got {_show(row)}, expected {expected.groups.get(key)}"
        seen.add(key)
    if [row[1] for row in actual] != want:
        return "revenues are not the top values in descending order"
    return None


def _show(row) -> str:
    return "(" + ", ".join(str(value) for value in row) + ")"
