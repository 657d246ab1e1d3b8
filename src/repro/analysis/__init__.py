"""Static analysis of generated kernel IR.

Multi-pass analyzer proving the paper's section III-B3 soundness claim
(inferred specs make generated kernels overflow-free) and linting the
optimiser's output.  See DESIGN.md for the pass order, the rule id table
and the soundness argument; ``python -m repro.analysis`` sweeps every
workload kernel and is wired into CI as a gate.
"""

from repro.analysis.analyzer import analyze_kernel, apply_fast_paths, gate_kernel
from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "Severity",
    "analyze_kernel",
    "apply_fast_paths",
    "gate_kernel",
]
