"""Plan-level static analyzer.

Three passes over a planned query, mirroring the kernel analyzer's
structure-gates-the-rest design (:mod:`repro.analysis.analyzer`):

1. :mod:`schema_flow` -- ``PLAN*``: every column an operator consumes is
   produced upstream; sort keys survive to the Sort; zone pushdown is a
   sound subset of the adjacent filter.
2. :mod:`precision` -- ``PREC*``: DECIMAL(p, s) proofs over the kernels
   the planner compiled and the aggregates they feed; every expression's
   plan-level interval proof is cross-checked against the kernel range
   pass so the two proof layers can never silently disagree.
3. :mod:`rewrite_audit` -- ``RULE*``: a differential soundness audit of
   every optimizer rewrite, replayed from before/after snapshots.

Findings reuse :class:`repro.analysis.diagnostics.AnalysisReport`: the
``kernel`` field carries the plan label and ``instruction`` the operator
position, so ``Diagnostic.format`` output reads naturally for plans too.

Planning does not run it: ``Database.explain`` runs it over the plan it
prints, and ``python -m repro.analysis --plans`` sweeps the workload
queries through EXPLAIN in CI.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.diagnostics import AnalysisReport
from repro.analysis.plan.precision import check_precision_flow
from repro.analysis.plan.rewrite_audit import check_rewrites
from repro.analysis.plan.schema_flow import check_schema_flow

__all__ = [
    "analyze_plan",
    "check_schema_flow",
    "check_precision_flow",
    "check_rewrites",
]


def analyze_plan(
    plan,
    *,
    stats=None,
    label: Optional[str] = None,
) -> AnalysisReport:
    """Run every plan-level pass over a physical plan.

    ``plan`` is a :class:`repro.engine.plan.planner.PhysicalPlan` (any
    iterable of operators with optional ``events`` works, which is what
    the seeded-bug unit tests exploit).  The precision pass runs only on
    a schema-clean plan: proving register widths for columns that do not
    exist would just duplicate every ``PLAN001`` as noise.  The rewrite
    audit is independent of both and always runs.
    """
    name = label or "plan"
    report = AnalysisReport(kernel=name)
    ops = list(plan)
    report.extend(check_schema_flow(ops, stats=stats, label=name))
    if not report.has_errors:
        report.extend(check_precision_flow(ops, stats, label=name))
    report.extend(check_rewrites(getattr(plan, "events", []), stats=stats, label=name))
    return report
