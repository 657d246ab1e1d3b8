"""Logical plan nodes (paper Figure 3: SQL -> logical plan -> physical plan).

The logical plan is deliberately small: a list of relational operators,
bottom-up (scan first), over the query's select items, whose expression
trees the JIT engine compiles at physical planning time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.engine.sql.ast_nodes import Comparison, Join, OrderKey, Query, SelectItem


@dataclass
class LogicalNode:
    """Base logical operator."""


@dataclass
class LogicalScan(LogicalNode):
    table: str
    columns: List[str]  # the columns the query actually touches


@dataclass
class LogicalJoin(LogicalNode):
    join: Join
    right_columns: List[str]  # the joined table's columns shipped to the device
    #: WHERE conjuncts pushed into the build side: evaluated while the
    #: joined table is scanned, so only surviving rows cross PCIe.
    right_predicates: List[Comparison] = field(default_factory=list)


@dataclass
class LogicalFilter(LogicalNode):
    predicates: List[Comparison]
    #: Set when predicate merging proved the conjuncts unsatisfiable: the
    #: filter yields zero rows without evaluating anything.
    always_false: bool = False


@dataclass
class LogicalProject(LogicalNode):
    items: List[SelectItem]
    #: Columns carried through the projection unselected (ORDER BY keys not
    #: in the SELECT list); a LogicalDrop above the sort removes them.
    carry: List[str] = field(default_factory=list)


@dataclass
class LogicalDrop(LogicalNode):
    """Remove carried columns once their consumer (the sort) has run."""

    columns: List[str]


@dataclass
class LogicalAggregate(LogicalNode):
    aggregates: List[SelectItem]
    group_by: List[str] = field(default_factory=list)


@dataclass
class LogicalHaving(LogicalNode):
    """HAVING: a filter over the aggregated batch (aliases resolve there)."""

    predicates: List[Comparison]


@dataclass
class LogicalSort(LogicalNode):
    keys: List[OrderKey]


@dataclass
class LogicalLimit(LogicalNode):
    count: int


def build_logical_plan(
    query: Query,
    available_columns: List[str],
    joined_columns: "Optional[dict]" = None,
) -> List[LogicalNode]:
    """Turn a parsed query into its logical operators, bottom-up (scan first).

    Nodes get copies of the query's lists, so a rewrite rule that edits a
    node in place never edits the query (the session plan cache re-plans
    from a cached one).

    ``joined_columns`` maps each JOINed table name to its column list so
    column references resolve across every relation in the query.
    """
    joined_columns = joined_columns or {}
    # Columns named in any ON clause must survive from whichever relation
    # owns them (a later join's left key may come from an earlier join).
    on_columns = [c for join in query.joins for c in (join.left_column, join.right_column)]
    referenced = _referenced_columns(query, available_columns)
    for column in on_columns:
        if column in available_columns and column not in referenced:
            referenced.append(column)
    nodes: List[LogicalNode] = [LogicalScan(query.table, referenced)]
    for join in query.joins:
        right_available = joined_columns.get(join.table, [])
        right_needed = _referenced_columns(query, right_available)
        for column in on_columns:
            if column in right_available and column not in right_needed:
                right_needed.append(column)
        nodes.append(LogicalJoin(join, right_needed))
    if query.where:
        nodes.append(LogicalFilter(list(query.where)))
    if query.has_aggregates:
        nodes.append(LogicalAggregate(list(query.select_items), list(query.group_by)))
        if query.having:
            nodes.append(LogicalHaving(list(query.having)))
    else:
        nodes.append(LogicalProject(list(query.select_items)))
    if query.order_by:
        nodes.append(LogicalSort(list(query.order_by)))
    if query.limit is not None:
        nodes.append(LogicalLimit(query.limit))
    return nodes


def _referenced_columns(query: Query, available: List[str]) -> List[str]:
    """Columns the query touches, in catalog order (drives scan/PCIe cost)."""
    mentioned = set()
    for item in query.select_items:
        mentioned.update(item.columns)
    for predicate in list(query.where) + list(query.having):
        mentioned.add(predicate.column)
        if predicate.column_rhs is not None:
            mentioned.add(predicate.column_rhs)
    mentioned.update(query.group_by)
    for key in query.order_by:
        if key.column in available:
            mentioned.add(key.column)
    return [name for name in available if name in mentioned]
