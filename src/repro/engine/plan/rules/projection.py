"""Projection-side rules: sort-key retention and column pruning.

``SortKeyRetentionRule`` is a *correctness* pass and always runs: a
``SELECT a FROM r ORDER BY k`` plan must carry ``k`` through the
projection (it is not a select item) and drop it again once the sort has
consumed it.  ``ProjectionPruningRule`` is the optimisation counterpart:
any column no operator above references is removed from the scan and from
join ship sets, which directly shrinks the simulated scan/PCIe volume the
streaming residency model charges.
"""

from __future__ import annotations

from typing import List, Set

from repro.engine.plan.logical import (
    LogicalAggregate,
    LogicalDrop,
    LogicalFilter,
    LogicalHaving,
    LogicalJoin,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalSort,
)
from repro.engine.plan.rules import RewriteRule


def _node_references(node: LogicalNode, candidates: Set[str]) -> Set[str]:
    """Columns of ``candidates`` that ``node`` itself consumes."""
    used: Set[str] = set()
    if isinstance(node, (LogicalFilter, LogicalHaving)):
        for predicate in node.predicates:
            used.add(predicate.column)
            if predicate.column_rhs is not None:
                used.add(predicate.column_rhs)
    elif isinstance(node, LogicalJoin):
        used.add(node.join.left_column)
        used.add(node.join.right_column)
    elif isinstance(node, LogicalProject):
        for item in node.items:
            used.update(item.columns)
        used.update(node.carry)
    elif isinstance(node, LogicalAggregate):
        for item in node.aggregates:
            used.update(item.columns)
        used.update(node.group_by)
    elif isinstance(node, LogicalSort):
        used.update(key.column for key in node.keys)
    return used & candidates if candidates else used


class SortKeyRetentionRule(RewriteRule):
    """Carry ORDER BY keys through the projection, drop them after the sort."""

    name = "sort-key-retention"

    def apply(self, nodes: List[LogicalNode], stats=None):
        project_index = next(
            (i for i, node in enumerate(nodes) if isinstance(node, LogicalProject)), None
        )
        sort_index = next(
            (i for i, node in enumerate(nodes) if isinstance(node, LogicalSort)), None
        )
        if project_index is None or sort_index is None or sort_index < project_index:
            return None
        project = nodes[project_index]
        sort = nodes[sort_index]
        outputs = {item.name for item in project.items}
        below: Set[str] = set()
        for node in nodes[:project_index]:
            if isinstance(node, LogicalScan):
                below.update(node.columns)
            elif isinstance(node, LogicalJoin):
                below.update(node.right_columns)
        missing = [
            key.column
            for key in sort.keys
            if key.column not in outputs
            and key.column not in project.carry
            and key.column in below
        ]
        if not missing:
            return None
        project.carry = list(project.carry) + missing
        drop_index = sort_index + 1
        if drop_index < len(nodes) and isinstance(nodes[drop_index], LogicalDrop):
            drop = nodes[drop_index]
            drop.columns = list(drop.columns) + missing
        else:
            nodes = nodes[:drop_index] + [LogicalDrop(list(missing))] + nodes[drop_index:]
        return nodes, f"carried sort key(s) {', '.join(missing)} through the projection"


class ProjectionPruningRule(RewriteRule):
    """Remove columns nothing above references from scan / join ship sets."""

    name = "projection-pruning"

    def apply(self, nodes: List[LogicalNode], stats=None):
        pruned: List[str] = []
        for index, node in enumerate(nodes):
            if isinstance(node, LogicalScan):
                keep = self._needed_above(nodes, index, set(node.columns))
                dropped = [c for c in node.columns if c not in keep]
                if dropped:
                    node.columns = [c for c in node.columns if c in keep]
                    pruned.extend(f"{c} (scan)" for c in dropped)
            elif isinstance(node, LogicalJoin):
                candidates = set(node.right_columns)
                keep = self._needed_above(nodes, index, candidates)
                # The build key must reach the device for the probe itself.
                keep.add(node.join.right_column)
                dropped = [c for c in node.right_columns if c not in keep]
                if dropped:
                    node.right_columns = [c for c in node.right_columns if c in keep]
                    pruned.extend(f"{c} ({node.join.table} ship set)" for c in dropped)
        if not pruned:
            return None
        return nodes, "pruned " + ", ".join(pruned)

    @staticmethod
    def _needed_above(nodes: List[LogicalNode], index: int, candidates: Set[str]) -> Set[str]:
        needed: Set[str] = set()
        for node in nodes[index + 1 :]:
            needed |= _node_references(node, candidates)
        # The node's own join keys count too (the scan feeds the probe key).
        node = nodes[index]
        if isinstance(node, LogicalJoin):
            needed.add(node.join.right_column)
        return needed
