"""Diagnostics framework for the kernel IR static analyzer.

Every analysis pass reports through :class:`Diagnostic`: a stable rule id
(``RANGE001``, ``LIFE004``, ...), a severity, the kernel name, and the
offending instruction index when one exists.  Passes *collect* everything
they find instead of bailing at the first violation; callers decide whether
errors are fatal (the JIT pipeline on ``STRUCT*``, the CI sweep gates) or
informational (EXPLAIN output).

Rule id registry (the full table lives in DESIGN.md):

========  ========  ====================================================
prefix    pass      meaning
========  ========  ====================================================
STRUCT*   structure structural/spec consistency (the original verifier)
RANGE*    ranges    interval analysis: overflow proofs, width lints,
                    statically-proven division fast paths
LIFE*     lifetime  def-use/lifetime checks against the register pool
SCHED*    schedule  alignment-scheduling and constant-folding lints
========  ========  ====================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class Severity(enum.Enum):
    """How bad a diagnostic is.

    ``ERROR`` means the kernel is provably or potentially unsound (a
    register can overflow, a released register is read); the CI gates
    fail on these.  ``WARNING`` flags wasted resources or
    missed optimisations; ``INFO`` records proven facts (e.g. a division
    fast path is statically guaranteed).
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analysis pass."""

    rule: str
    severity: Severity
    message: str
    kernel: str = ""
    #: Index into ``KernelIR.instructions``; ``None`` for kernel-level
    #: findings (e.g. "no StoreResult") and tree-level schedule lints.
    instruction: Optional[int] = None

    def format(self) -> str:
        location = self.kernel or "<kernel>"
        if self.instruction is not None:
            location += f"[{self.instruction}]"
        return f"{self.severity.value}[{self.rule}] {location}: {self.message}"


@dataclass
class AnalysisReport:
    """All diagnostics the analyzer produced for one kernel."""

    kernel: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Instruction index -> statically proven Div/Mod route ("native64" or
    #: "short"), filled in by the range pass.
    fast_paths: Dict[int, str] = field(default_factory=dict)

    def add(
        self,
        rule: str,
        severity: Severity,
        message: str,
        instruction: Optional[int] = None,
    ) -> None:
        self.diagnostics.append(
            Diagnostic(rule, severity, message, kernel=self.kernel, instruction=instruction)
        )

    def extend(self, diagnostics: List[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> List[Diagnostic]:
        return self.by_severity(Severity.INFO)

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def rules(self) -> List[str]:
        """Distinct rule ids present, in first-appearance order."""
        seen: List[str] = []
        for diagnostic in self.diagnostics:
            if diagnostic.rule not in seen:
                seen.append(diagnostic.rule)
        return seen

    def format(self, min_severity: Severity = Severity.INFO) -> str:
        """Render one line per diagnostic at or above ``min_severity``."""
        order = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}
        cutoff = order[min_severity]
        lines = [
            d.format() for d in self.diagnostics if order[d.severity] <= cutoff
        ]
        return "\n".join(lines)
