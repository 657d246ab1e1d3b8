"""Predicate merge / simplification over WHERE conjunct lists.

Conjuncts on the same column are tightened exactly the way execution
would compare them: each literal is canonicalised through the *column's*
storage type (DECIMAL literals to unscaled integers at the column scale,
dates to epoch days, CHARs to width-padded bytes), so ``a >= 5 AND a >= 3``
keeps only ``a >= 5``, ``a >= 5 AND a <= 5`` becomes ``a = 5``, and a
provably empty range marks the filter ``always_false`` -- the constant
folder's compile-time-evaluation discipline (section III-D2) applied to
predicates instead of expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.decimal.convert import literal_comparison
from repro.engine.plan.logical import LogicalFilter, LogicalNode
from repro.engine.plan.rules import RewriteRule
from repro.engine.sql.ast_nodes import Comparison
from repro.errors import ReproError
from repro.storage.schema import CharType, DateType, DecimalType


def _canonical(predicate: Comparison, column_type) -> Optional[Tuple[str, object]]:
    """Map a literal conjunct to the ``(op, value)`` execution compares.

    A DECIMAL literal becomes an unscaled integer at the column scale,
    with the operator execution uses for it (a literal with more
    fractional digits than the column compares as ``<= q`` or ``> q``;
    see :func:`~repro.core.decimal.convert.literal_comparison`).  Returns
    ``None`` when the literal cannot be canonicalised (unknown column type,
    conversion failure, or a comparison no stored value can decide
    otherwise) -- in which case the predicate is left alone.
    """
    op, literal = predicate.op, predicate.literal
    if column_type is None:
        return None
    try:
        if isinstance(column_type, DecimalType):
            comparison = literal_comparison(op, literal, column_type.spec)
            return None if isinstance(comparison, bool) else comparison
        if isinstance(column_type, DateType):
            from repro.engine.plan.physical import _parse_date

            return (op, _parse_date(literal) if isinstance(literal, str) else int(literal))
        if isinstance(column_type, CharType):
            return (op, str(literal).ljust(column_type.width).encode())
        if isinstance(literal, (int, float)) and not isinstance(literal, bool):
            return (op, literal)
    except (ReproError, ValueError):
        return None
    return None


@dataclass
class _Bound:
    value: object
    inclusive: bool
    predicate: Comparison


class PredicateSimplifyRule(RewriteRule):
    """Dedupe, range-tighten and contradiction-prove filter conjuncts."""

    name = "predicate-simplify"

    def apply(self, nodes: List[LogicalNode], stats=None):
        changed_details: List[str] = []
        for node in nodes:
            if not isinstance(node, LogicalFilter) or node.always_false:
                continue
            simplified = self._simplify(node.predicates, stats)
            if simplified is None:
                continue
            predicates, always_false = simplified
            before = len(node.predicates)
            node.predicates = predicates
            node.always_false = always_false
            if always_false:
                changed_details.append("proved a conjunct set unsatisfiable")
            else:
                changed_details.append(f"{before} conjuncts -> {len(predicates)}")
        if not changed_details:
            return None
        return nodes, "; ".join(changed_details)

    # ----------------------------------------------------------- internals

    def _simplify(self, predicates: List[Comparison], stats):
        deduped: List[Comparison] = []
        seen = set()
        for predicate in predicates:
            key = (predicate.column, predicate.op, predicate.literal, predicate.column_rhs)
            if key in seen:
                continue
            seen.add(key)
            deduped.append(predicate)

        # Group canonicalisable single-column literal predicates by column.
        values = {}
        groups = {}
        for predicate in deduped:
            if predicate.column_rhs is not None:
                continue
            column_type = stats.column_type(predicate.column) if stats else None
            canonical = _canonical(predicate, column_type)
            if canonical is None:
                continue
            values[id(predicate)] = canonical
            groups.setdefault(predicate.column, []).append(predicate)

        kept = {}  # id(predicate) -> Comparison to emit in its place (or None to drop)
        for column, members in groups.items():
            if len(members) < 2:
                continue
            merged = self._merge(column, members, values)
            if merged is None:
                continue
            if merged == "contradiction":
                return [], True
            kept.update(merged)

        if not kept and len(deduped) == len(predicates):
            return None
        result = []
        for predicate in deduped:
            if id(predicate) in kept:
                replacement = kept[id(predicate)]
                if replacement is not None:
                    result.append(replacement)
            else:
                result.append(predicate)
        if len(result) == len(predicates) and not kept:
            return None
        return result, False

    def _merge(self, column: str, members: List[Comparison], values):
        """Merge one column's conjuncts; returns a per-predicate replacement
        map, ``"contradiction"``, or ``None`` (nothing to do)."""
        lower: Optional[_Bound] = None
        upper: Optional[_Bound] = None
        eq: Optional[_Bound] = None
        neqs: List[_Bound] = []
        for predicate in members:
            op, value = values[id(predicate)]
            if op == "=":
                if eq is not None and eq.value != value:
                    return "contradiction"
                if eq is None:
                    eq = _Bound(value, True, predicate)
            elif op == "<>":
                neqs.append(_Bound(value, False, predicate))
            elif op in (">", ">="):
                inclusive = op == ">="
                if (
                    lower is None
                    or value > lower.value
                    or (value == lower.value and not inclusive and lower.inclusive)
                ):
                    lower = _Bound(value, inclusive, predicate)
            elif op in ("<", "<="):
                inclusive = op == "<="
                if (
                    upper is None
                    or value < upper.value
                    or (value == upper.value and not inclusive and upper.inclusive)
                ):
                    upper = _Bound(value, inclusive, predicate)

        survivors = {}
        if eq is not None:
            if lower is not None and (
                eq.value < lower.value or (eq.value == lower.value and not lower.inclusive)
            ):
                return "contradiction"
            if upper is not None and (
                eq.value > upper.value or (eq.value == upper.value and not upper.inclusive)
            ):
                return "contradiction"
            if any(neq.value == eq.value for neq in neqs):
                return "contradiction"
            survivors[id(eq.predicate)] = eq.predicate
        else:
            if lower is not None and upper is not None:
                if lower.value > upper.value:
                    return "contradiction"
                if lower.value == upper.value:
                    if not (lower.inclusive and upper.inclusive):
                        return "contradiction"
                    if any(neq.value == lower.value for neq in neqs):
                        return "contradiction"
                    # a >= v AND a <= v  ->  a = v (other conjuncts implied)
                    survivors[id(lower.predicate)] = Comparison(
                        column, "=", lower.predicate.literal
                    )
                    lower = upper = None
                    neqs = []
            if lower is not None:
                survivors[id(lower.predicate)] = lower.predicate
            if upper is not None:
                survivors[id(upper.predicate)] = upper.predicate
            for neq in neqs:
                redundant = (
                    lower is not None
                    and (
                        neq.value < lower.value
                        or (neq.value == lower.value and not lower.inclusive)
                    )
                ) or (
                    upper is not None
                    and (
                        neq.value > upper.value
                        or (neq.value == upper.value and not upper.inclusive)
                    )
                )
                if not redundant and id(neq.predicate) not in survivors:
                    survivors[id(neq.predicate)] = neq.predicate

        replacements = {}
        for predicate in members:
            replacement = survivors.get(id(predicate))
            if replacement is not predicate:
                replacements[id(predicate)] = replacement
        return replacements or None
