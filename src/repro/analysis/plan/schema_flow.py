"""Schema-dataflow pass over physical plans (``PLAN*`` rules).

Walks the operator chain with the set of columns available in the flowing
batch -- exactly the dictionary each operator's ``run`` would see -- and
proves that every column an operator consumes is produced upstream.  The
historical plan-shape bugs this pass turns into static findings: projection
pruning dropping a column a later Filter/Having/Sort needs, sort-key
retention failing to survive to the Sort node, and the planner pushing a
zone predicate the adjacent filter never owned.

Rules:

* ``PLAN001`` (error): an operator consumes a column that is not available
  at its position (missing from the batch, or -- with statistics -- not a
  stored column of the relation it reads).
* ``PLAN002`` (error): an ORDER BY key is missing at the Sort node (the
  sort-key-retention contract is broken).
* ``PLAN003`` (warning): a Drop names a column that is not present (a
  needed-column drop surfaces as ``PLAN001`` at the consumer instead).
* ``PLAN004`` (error): a zone predicate pushed to the scan is not a sound
  subset of the adjacent filter's literal conjuncts.
* ``PLAN005`` (error): malformed chain shape (no leading scan, or a second
  scan mid-chain).
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Set

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.engine.plan.physical import (
    AggregateOp,
    DropOp,
    FilterOp,
    GroupAggregateOp,
    HashJoinOp,
    LimitOp,
    NestedLoopJoinOp,
    ProjectOp,
    ScanOp,
    SortOp,
)

MISSING_COLUMN = "PLAN001"
SORT_KEY_LOST = "PLAN002"
DROP_UNKNOWN = "PLAN003"
UNSOUND_ZONE_PUSHDOWN = "PLAN004"
MALFORMED_CHAIN = "PLAN005"

_JOIN_OPS = (HashJoinOp, NestedLoopJoinOp)


def check_schema_flow(plan_ops, stats=None, label: str = "") -> List[Diagnostic]:
    """Run the schema-dataflow pass; returns its diagnostics."""
    findings: List[Diagnostic] = []

    def report(
        rule: str, severity: Severity, message: str, position: Optional[int] = None
    ) -> None:
        findings.append(
            Diagnostic(rule, severity, message, kernel=label, instruction=position)
        )

    ops = list(plan_ops)
    if not ops:
        report(MALFORMED_CHAIN, Severity.ERROR, "plan has no operators")
        return findings
    if not isinstance(ops[0], ScanOp):
        report(
            MALFORMED_CHAIN,
            Severity.ERROR,
            f"plan does not start with a scan ({type(ops[0]).__name__})",
            0,
        )

    available: Set[str] = set()

    def require(column: str, what: str, position: int) -> None:
        if column not in available:
            report(
                MISSING_COLUMN,
                Severity.ERROR,
                f"{what} consumes column {column!r} which is not available "
                f"(have: {sorted(available)})",
                position,
            )

    for position, op in enumerate(ops):
        if isinstance(op, ScanOp):
            if position != 0:
                report(
                    MALFORMED_CHAIN,
                    Severity.ERROR,
                    "scan appears mid-chain (only position 0 reads storage)",
                    position,
                )
            available = set(op.columns)
            if stats is not None:
                for name in op.columns:
                    if name not in stats.main.column_types:
                        report(
                            MISSING_COLUMN,
                            Severity.ERROR,
                            f"scan reads column {name!r} which is not a stored "
                            "column of the scanned relation",
                            position,
                        )
            _check_zone_pushdown(op, ops, stats, report, position)
        elif isinstance(op, FilterOp):
            for predicate in op.predicates:
                require(predicate.column, "filter", position)
                if predicate.column_rhs is not None:
                    require(predicate.column_rhs, "filter", position)
        elif isinstance(op, _JOIN_OPS):
            require(op.join.left_column, f"join on {op.join.table}", position)
            right = stats.table(op.join.table) if stats is not None else None
            if right is not None:
                for name in (op.join.right_column, *op.right_columns):
                    if name not in right.column_types:
                        report(
                            MISSING_COLUMN,
                            Severity.ERROR,
                            f"join reads column {name!r} which is not a stored "
                            f"column of {op.join.table!r}",
                            position,
                        )
                for predicate in op.right_predicates:
                    for name in filter(None, (predicate.column, predicate.column_rhs)):
                        if name not in right.column_types:
                            report(
                                MISSING_COLUMN,
                                Severity.ERROR,
                                f"build-side predicate {predicate} reads column "
                                f"{name!r} which is not a stored column of "
                                f"{op.join.table!r}",
                                position,
                            )
            available |= set(op.right_columns)
        elif isinstance(op, ProjectOp):
            produced: Set[str] = set()
            for item in op.items:
                for name in item.columns:
                    require(name, f"projection {item.text!r}", position)
                produced.add(item.name)
            for name in op.carry:
                require(name, "projection carry", position)
            available = produced | (set(op.carry) & available)
        elif isinstance(op, AggregateOp):
            for item in op.items:
                for name in item.columns:
                    require(name, f"aggregate {item.expression}", position)
            available = {item.name for item in op.items}
        elif isinstance(op, GroupAggregateOp):
            for name in op.group_by:
                require(name, "group by", position)
            for item in op.items:
                for name in item.columns:
                    require(name, f"aggregate {item.expression}", position)
            available = (set(op.group_by) & available) | {
                item.name for item in op.items
            }
        elif isinstance(op, SortOp):
            for key in op.keys:
                if key.column not in available:
                    report(
                        SORT_KEY_LOST,
                        Severity.ERROR,
                        f"ORDER BY key {key.column!r} did not survive to the "
                        f"sort (have: {sorted(available)}); sort-key retention "
                        "is broken",
                        position,
                    )
        elif isinstance(op, DropOp):
            for name in op.columns:
                if name not in available:
                    report(
                        DROP_UNKNOWN,
                        Severity.WARNING,
                        f"drop names column {name!r} which is not present",
                        position,
                    )
            available -= set(op.columns)
        elif isinstance(op, LimitOp):
            pass
        else:
            report(
                MALFORMED_CHAIN,
                Severity.ERROR,
                f"unknown physical operator {type(op).__name__}",
                position,
            )
    return findings


def _check_zone_pushdown(scan: ScanOp, ops, stats, report, position: int) -> None:
    """``PLAN004``: zone predicates must be a sound subset of the filter.

    The contract of ``planner._push_zone_predicates``: the scan's pruning
    predicates are exactly a sub-multiset of the *literal* conjuncts of the
    immediately-following filter (which still computes the exact mask), and
    each names a stored column of the scanned relation -- the zone index is
    keyed by storage columns, not batch columns.
    """
    if not scan.predicates:
        return
    adjacent = ops[1] if len(ops) > 1 else None
    if not isinstance(adjacent, FilterOp) or adjacent.always_false:
        report(
            UNSOUND_ZONE_PUSHDOWN,
            Severity.ERROR,
            f"scan carries {len(scan.predicates)} zone predicate(s) but the "
            "next operator is not a live filter re-checking them",
            position,
        )
        return
    remaining = Counter(
        str(p) for p in adjacent.predicates if p.column_rhs is None
    )
    for predicate in scan.predicates:
        if predicate.column_rhs is not None:
            report(
                UNSOUND_ZONE_PUSHDOWN,
                Severity.ERROR,
                f"column-column predicate {predicate} pushed to zone maps "
                "(zone pruning is literal-only)",
                position,
            )
            continue
        if remaining[str(predicate)] <= 0:
            report(
                UNSOUND_ZONE_PUSHDOWN,
                Severity.ERROR,
                f"zone predicate {predicate} is not among the adjacent "
                "filter's literal conjuncts (pruning could drop rows the "
                "query keeps)",
                position,
            )
        else:
            remaining[str(predicate)] -= 1
        if stats is not None and predicate.column not in stats.main.column_types:
            report(
                UNSOUND_ZONE_PUSHDOWN,
                Severity.ERROR,
                f"zone predicate {predicate} names {predicate.column!r}, "
                "not a stored column of the scanned relation",
                position,
            )
