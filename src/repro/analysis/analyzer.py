"""Multi-pass driver for the kernel IR static analyzer.

``analyze_kernel`` runs the passes in dependency order -- structure first
(the later passes index registers and assume spec-consistent instructions),
then ranges, lifetime and the IR schedule lint; the tree-level schedule
lint runs whenever the caller supplies the optimised expression tree.
Structural errors short-circuit the IR passes: analysing a kernel whose
registers are undefined would only produce noise.

``apply_fast_paths`` feeds the range pass's proven division facts back
into the IR: Div/Mod instructions whose single-word or 64-bit route is
statically guaranteed are re-emitted with ``fast_path`` set, which the
executor uses to skip the per-row size dispatch entirely.  The input
kernel is never modified -- a rewritten *copy* is returned -- because the
kernel may already be held by the (shared, cross-session) kernel cache,
where an in-place instruction-list mutation would be visible to every
other holder.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.analysis.diagnostics import AnalysisReport
from repro.analysis.lifetime import check_lifetime
from repro.analysis.ranges import analyze_ranges
from repro.analysis.schedule import check_schedule_ir, check_schedule_tree
from repro.analysis.structure import check_structure
from repro.core.jit import ir
from repro.core.jit.expr_ast import Expr


def analyze_kernel(kernel: ir.KernelIR, tree: Optional[Expr] = None) -> AnalysisReport:
    """Run every analysis pass over one kernel and collect the findings."""
    report = AnalysisReport(kernel=kernel.name)
    report.extend(check_structure(kernel))
    if not report.has_errors:
        range_findings, fast_paths = analyze_ranges(kernel)
        report.extend(range_findings)
        report.fast_paths = fast_paths
        report.extend(check_lifetime(kernel))
        report.extend(check_schedule_ir(kernel))
    if tree is not None:
        report.extend(check_schedule_tree(tree, kernel.name))
    return report


def apply_fast_paths(kernel: ir.KernelIR, fast_paths: Dict[int, str]) -> ir.KernelIR:
    """Annotate Div/Mod instructions with statically proven routes.

    Returns a new kernel (a fresh instruction tuple with the annotated
    sites replaced, and no cost profiles yet), or the input kernel itself
    when nothing changed.  Kernels and instructions are frozen, so the
    input, which may be shared through the kernel cache, stays as it was.
    """
    instructions = list(kernel.instructions)
    rewritten = 0
    for position, path in fast_paths.items():
        instruction = instructions[position]
        if not isinstance(instruction, (ir.DivOp, ir.ModOp)):
            continue
        if instruction.fast_path == path:
            continue
        instructions[position] = dataclasses.replace(instruction, fast_path=path)
        rewritten += 1
    if not rewritten:
        return kernel
    return dataclasses.replace(kernel, instructions=tuple(instructions))
