"""Rewrite-rule engine over the logical plan (DBSim ``planners/rules`` style).

A :class:`RewriteRule` inspects the bottom-up logical node list and either
returns a rewritten list plus a human-readable detail, or ``None`` when it
has nothing to do.  :func:`apply_rules` drives the rule set to a fixpoint
and records a :class:`RewriteEvent` per firing -- the trace EXPLAIN prints
under ``rewrites:``.  Each event also carries structural before/after
snapshots of the node list (:func:`snapshot_nodes`) so the plan analyzer's
rewrite-soundness pass (``repro.analysis.plan.rewrite_audit``) can verify
rule-specific invariants after the fact; the snapshots are plain tuples
because the rules mutate nodes in place.

The stock rule set:

* :class:`~repro.engine.plan.rules.predicates.PredicateSimplifyRule` --
  dedupe / range-tighten / contradiction-prove WHERE conjuncts;
* :class:`~repro.engine.plan.rules.join_order.JoinReorderRule` -- reorder
  multi-join runs by estimated intermediate cardinality (statistics-fed,
  aggregate-gated for bit-exactness);
* :class:`~repro.engine.plan.rules.pushdown.FilterPushdownRule` -- move
  conjuncts below joins, and into a join's build side where possible;
* :class:`~repro.engine.plan.rules.projection.SortKeyRetentionRule` --
  carry ORDER BY keys through the projection (always on: correctness);
* :class:`~repro.engine.plan.rules.projection.ProjectionPruningRule` --
  drop unreferenced columns from scan and join ship sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.engine.plan.logical import (
    LogicalAggregate,
    LogicalDrop,
    LogicalFilter,
    LogicalHaving,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalSort,
)

#: A structural snapshot of one logical node: a plain tuple whose first
#: element names the node kind.  Predicates appear as
#: ``(column, op, str(literal), column_rhs)`` 4-tuples so the audit pass
#: can reason about conjunct multisets and column placement without
#: holding references to the (mutable) live nodes.
NodeSnapshot = Tuple[object, ...]


def _predicate_snapshot(predicate) -> Tuple[str, str, str, Optional[str]]:
    return (
        predicate.column,
        predicate.op,
        str(predicate.literal),
        predicate.column_rhs,
    )


def snapshot_nodes(nodes: List[LogicalNode]) -> Tuple[NodeSnapshot, ...]:
    """Deep-copy the *structure* of a bottom-up node list into tuples.

    Taken eagerly before/after each rule firing because every stock rule
    mutates nodes in place (pushdown sets ``join.right_predicates``,
    pruning shrinks ``scan.columns`` ...), so a list of node references
    would silently reflect later rewrites.
    """
    snapshots: List[NodeSnapshot] = []
    for node in nodes:
        if isinstance(node, LogicalScan):
            snapshots.append(("scan", node.table, tuple(node.columns)))
        elif isinstance(node, LogicalJoin):
            snapshots.append(
                (
                    "join",
                    node.join.table,
                    node.join.left_column,
                    node.join.right_column,
                    tuple(node.right_columns),
                    tuple(_predicate_snapshot(p) for p in node.right_predicates),
                )
            )
        elif isinstance(node, LogicalFilter):
            snapshots.append(
                (
                    "filter",
                    tuple(_predicate_snapshot(p) for p in node.predicates),
                    node.always_false,
                )
            )
        elif isinstance(node, LogicalHaving):
            snapshots.append(
                ("having", tuple(_predicate_snapshot(p) for p in node.predicates))
            )
        elif isinstance(node, LogicalProject):
            snapshots.append(
                (
                    "project",
                    tuple(item.name for item in node.items),
                    tuple(str(item.expression) for item in node.items),
                    tuple(node.carry),
                )
            )
        elif isinstance(node, LogicalDrop):
            snapshots.append(("drop", tuple(node.columns)))
        elif isinstance(node, LogicalAggregate):
            snapshots.append(
                (
                    "aggregate",
                    tuple(item.name for item in node.aggregates),
                    tuple(str(item.expression) for item in node.aggregates),
                    tuple(node.group_by),
                )
            )
        elif isinstance(node, LogicalSort):
            snapshots.append(
                ("sort", tuple((key.column, key.ascending) for key in node.keys))
            )
        elif isinstance(node, LogicalLimit):
            snapshots.append(("limit", node.count))
        else:  # pragma: no cover - future node kinds degrade gracefully
            snapshots.append(("node", type(node).__name__))
    return tuple(snapshots)


@dataclass
class RewriteEvent:
    """One rule firing: which rule, what it changed, and plan snapshots
    bracketing the change (consumed by the rewrite-soundness audit)."""

    rule: str
    detail: str
    before: Optional[Tuple[NodeSnapshot, ...]] = None
    after: Optional[Tuple[NodeSnapshot, ...]] = None

    def format(self) -> str:
        return f"{self.rule}: {self.detail}"


class RewriteRule:
    """Base class: transform the bottom-up node list or decline."""

    name = "rewrite"

    def apply(
        self, nodes: List[LogicalNode], stats=None
    ) -> Optional[Tuple[List[LogicalNode], str]]:
        raise NotImplementedError


#: Safety bound on fixpoint iteration; every stock rule is idempotent so
#: two passes normally suffice.
MAX_PASSES = 8


def apply_rules(
    nodes: List[LogicalNode],
    rules: List[RewriteRule],
    stats=None,
) -> Tuple[List[LogicalNode], List[RewriteEvent]]:
    """Run ``rules`` to a fixpoint over the node list."""
    events: List[RewriteEvent] = []
    before = snapshot_nodes(nodes)
    for _ in range(MAX_PASSES):
        fired = False
        for rule in rules:
            result = rule.apply(nodes, stats)
            if result is not None:
                nodes, detail = result
                after = snapshot_nodes(nodes)
                events.append(RewriteEvent(rule.name, detail, before, after))
                before = after
                fired = True
        if not fired:
            break
    return nodes, events


def default_rules(optimize: bool = True) -> List[RewriteRule]:
    """The stock rule set; with ``optimize=False`` only the always-on
    correctness passes (sort-key retention) remain."""
    from repro.engine.plan.rules.join_order import JoinReorderRule
    from repro.engine.plan.rules.predicates import PredicateSimplifyRule
    from repro.engine.plan.rules.projection import (
        ProjectionPruningRule,
        SortKeyRetentionRule,
    )
    from repro.engine.plan.rules.pushdown import FilterPushdownRule

    if not optimize:
        return [SortKeyRetentionRule()]
    return [
        PredicateSimplifyRule(),
        # Before pushdown: the reorder hoists interleaved loose filters
        # above the joins, and pushdown re-sinks them on the same pass.
        JoinReorderRule(),
        FilterPushdownRule(),
        SortKeyRetentionRule(),
        ProjectionPruningRule(),
    ]
