"""Interval/range analysis pass (``RANGE*`` rules).

Propagates exact ``[lo, hi]`` signed unscaled-value bounds through every
instruction, starting from column specs (a ``DECIMAL(p, s)`` column holds
values in ``[-(10**p - 1), 10**p - 1]``) and constants (a point interval).
The transfer functions below over-approximate the executor's semantics
(`repro.core.decimal.vectorized`), so every derived bound is sound: the
actual register value always lies inside the computed interval.

Three kinds of facts fall out:

* ``RANGE001`` (error): a register's interval can exceed its allocated
  ``2**(32*Lw) - 1`` word container -- the kernel can overflow, so the
  section III-B3 claim ("inference makes generated kernels overflow-free")
  would be violated.  The CI sweep proves this never fires on workload
  kernels.
* ``RANGE002`` (warning): an arithmetic result provably fits fewer 32-bit
  words than its spec allocates -- wasted register/shared-memory budget
  (cf. the occupancy model).
* ``RANGE003``/``RANGE004`` (info): a Div/Mod site where the single-word
  short-division or whole-column 64-bit fast path is statically guaranteed
  for *every* row.  These facts feed back into codegen
  (:func:`repro.analysis.analyzer.apply_fast_paths`) so the executor can
  skip the per-row size dispatch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.core.decimal.context import WORD_BASE, WORD_BITS, DecimalSpec
from repro.core.jit import ir

POSSIBLE_OVERFLOW = "RANGE001"
OVER_ALLOCATED = "RANGE002"
SHORT_DIVISOR = "RANGE003"
NATIVE64 = "RANGE004"

#: Largest value the whole-column uint64 fast path can hold per lane.
_UINT64_MAX = (1 << 64) - 1

Interval = Tuple[int, int]


def _words_for(magnitude: int) -> int:
    """32-bit words needed to hold an unsigned magnitude."""
    if magnitude <= 0:
        return 1
    return (magnitude.bit_length() + WORD_BITS - 1) // WORD_BITS


def _container_limit(spec: DecimalSpec) -> int:
    """Largest magnitude the fixed ``Lw``-word register array can hold."""
    return (1 << (WORD_BITS * spec.words)) - 1


def _magnitude(interval: Interval) -> int:
    lo, hi = interval
    return max(abs(lo), abs(hi))


def _min_divisor_magnitude(interval: Interval) -> int:
    """Smallest *nonzero* magnitude a divisor interval can take.

    Zero divisors raise at runtime before any quotient is produced, so the
    quotient bound only has to cover nonzero divisors.  When the interval
    straddles zero the smallest nonzero magnitude is 1.
    """
    lo, hi = interval
    if lo > 0:
        return lo
    if hi < 0:
        return -hi
    return 1


def _mul_interval(a: Interval, b: Interval) -> Interval:
    products = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
    return (min(products), max(products))


def _div_interval(a: Interval, b: Interval, factor: int) -> Interval:
    """Bound of ``trunc((a * factor) / b)`` (magnitude divide, sign xor)."""
    bound = (_magnitude(a) * factor) // _min_divisor_magnitude(b)
    lo, hi = -bound, bound
    if a[0] >= 0 and b[0] >= 0:
        lo = 0
    elif a[1] <= 0 and b[0] >= 0:
        hi = 0
    elif a[0] >= 0 and b[1] <= 0:
        hi = 0
    elif a[1] <= 0 and b[1] <= 0:
        lo = 0
    return (lo, hi)


def _mod_interval(a: Interval, b: Interval) -> Interval:
    """Bound of C-style modulo: ``|r| < |b|`` and the sign follows ``a``."""
    divisor_max = max(_magnitude(b), 1)
    bound = min(_magnitude(a), divisor_max - 1)
    if a[0] >= 0:
        return (0, bound)
    if a[1] <= 0:
        return (-bound, 0)
    return (-bound, bound)


def _rescale_interval(interval: Interval, src_scale: int, dst_scale: int) -> Interval:
    """Bound of any rounding mode: ``floor(x) <= round*(x) <= ceil(x)``.

    All four modes (trunc/round/ceil/floor) are monotone and bracketed by
    floor/ceil of the exact rational, so ``[floor(lo/D), ceil(hi/D)]`` is a
    sound (if slightly loose) interval for every mode at once.
    """
    drop = src_scale - dst_scale
    if drop == 0:
        return interval
    if drop < 0:
        factor = 10**-drop
        return (interval[0] * factor, interval[1] * factor)
    divisor = 10**drop
    lo = interval[0] // divisor  # floor
    hi = -((-interval[1]) // divisor)  # ceil
    return (lo, hi)


def _abs_interval(interval: Interval) -> Interval:
    lo, hi = interval
    if lo >= 0:
        return (lo, hi)
    if hi <= 0:
        return (-hi, -lo)
    return (0, max(-lo, hi))


def analyze_ranges(
    kernel: ir.KernelIR,
) -> Tuple[List[Diagnostic], Dict[int, str]]:
    """Run the interval analysis over a structurally valid kernel.

    Returns ``(diagnostics, fast_paths)`` where ``fast_paths`` maps an
    instruction index of a Div/Mod site to the statically guaranteed route
    (``"native64"`` or ``"short"``).
    """
    findings: List[Diagnostic] = []
    fast_paths: Dict[int, str] = {}
    intervals: Dict[int, Interval] = {}
    scales: Dict[int, int] = {}

    def report(rule: str, severity: Severity, message: str, position: int) -> None:
        findings.append(
            Diagnostic(rule, severity, message, kernel=kernel.name, instruction=position)
        )

    for position, instruction in enumerate(kernel.instructions):
        interval: Optional[Interval] = None
        arithmetic = False

        if isinstance(instruction, ir.LoadColumn):
            bound = instruction.spec.max_unscaled
            interval = (-bound, bound)
        elif isinstance(instruction, ir.LoadConst):
            value = -instruction.unscaled if instruction.negative else instruction.unscaled
            interval = (value, value)
        elif isinstance(instruction, ir.Align):
            src = intervals[instruction.src]
            factor = 10**instruction.exponent
            interval = (src[0] * factor, src[1] * factor)
            arithmetic = True
        elif isinstance(instruction, ir.AddOp):
            a, b = intervals[instruction.a], intervals[instruction.b]
            interval = (a[0] + b[0], a[1] + b[1])
            arithmetic = True
        elif isinstance(instruction, ir.SubOp):
            a, b = intervals[instruction.a], intervals[instruction.b]
            interval = (a[0] - b[1], a[1] - b[0])
            arithmetic = True
        elif isinstance(instruction, ir.NegOp):
            src = intervals[instruction.src]
            interval = (-src[1], -src[0])
        elif isinstance(instruction, ir.MulOp):
            interval = _mul_interval(intervals[instruction.a], intervals[instruction.b])
            arithmetic = True
        elif isinstance(instruction, ir.DivOp):
            a, b = intervals[instruction.a], intervals[instruction.b]
            factor = 10**instruction.prescale
            interval = _div_interval(a, b, factor)
            arithmetic = True
            path = _division_fast_path(a, b, factor)
            if path is not None:
                fast_paths[position] = path
                _report_fast_path(report, path, b, position)
        elif isinstance(instruction, ir.ModOp):
            a, b = intervals[instruction.a], intervals[instruction.b]
            interval = _mod_interval(a, b)
            arithmetic = True
            path = _division_fast_path(a, b, 1)
            if path is not None:
                fast_paths[position] = path
                _report_fast_path(report, path, b, position)
        elif isinstance(instruction, ir.AbsOp):
            interval = _abs_interval(intervals[instruction.src])
        elif isinstance(instruction, ir.SignOp):
            src = intervals[instruction.src]
            interval = (-1 if src[0] < 0 else 0, 1 if src[1] > 0 else 0)
        elif isinstance(instruction, ir.RescaleOp):
            interval = _rescale_interval(
                intervals[instruction.src],
                scales[instruction.src],
                instruction.spec.scale,
            )
            arithmetic = True
        elif isinstance(instruction, ir.StoreResult):
            stored = intervals[instruction.src]
            limit = _container_limit(kernel.result_spec)
            if _magnitude(stored) > limit:
                report(
                    POSSIBLE_OVERFLOW,
                    Severity.ERROR,
                    f"stored result bound {_magnitude(stored)} exceeds the "
                    f"{kernel.result_spec.words}-word result container",
                    position,
                )
            continue
        else:  # pragma: no cover - structure pass rejects unknown instructions
            continue

        intervals[instruction.dst] = interval
        scales[instruction.dst] = instruction.spec.scale
        magnitude = _magnitude(interval)
        limit = _container_limit(instruction.spec)
        if magnitude > limit:
            report(
                POSSIBLE_OVERFLOW,
                Severity.ERROR,
                f"r{instruction.dst} bound {magnitude} exceeds its "
                f"{instruction.spec.words}-word container "
                f"({type(instruction).__name__}, {instruction.spec})",
                position,
            )
            # Clamp so downstream bounds stay meaningful: the executor wraps
            # (or raises) at the container, never exceeds it.
            intervals[instruction.dst] = (-limit, limit)
        elif arithmetic and _words_for(magnitude) < instruction.spec.words:
            report(
                OVER_ALLOCATED,
                Severity.WARNING,
                f"r{instruction.dst} provably fits {_words_for(magnitude)} "
                f"word(s) but {instruction.spec} allocates {instruction.spec.words}",
                position,
            )

    return findings, fast_paths


def _division_fast_path(a: Interval, b: Interval, factor: int) -> Optional[str]:
    """The statically guaranteed Div/Mod route, if any.

    Mirrors the dynamic dispatch in ``vectorized.div``/``mod``: the
    whole-column uint64 route needs the pre-scaled dividend *and* the
    divisor to fit uint64 in every row; the short route needs every divisor
    to fit a single 32-bit word.
    """
    dividend_max = _magnitude(a)
    divisor_max = _magnitude(b)
    if (
        factor <= _UINT64_MAX
        and dividend_max <= _UINT64_MAX // factor
        and divisor_max <= _UINT64_MAX
    ):
        return "native64"
    if divisor_max < WORD_BASE:
        return "short"
    return None


def _report_fast_path(report, path: str, b: Interval, position: int) -> None:
    if path == "native64":
        report(
            NATIVE64,
            Severity.INFO,
            "whole-column 64-bit divide statically guaranteed "
            "(pre-scaled dividend and divisor both fit uint64)",
            position,
        )
    else:
        report(
            SHORT_DIVISOR,
            Severity.INFO,
            f"single-word short division statically guaranteed "
            f"(divisor magnitude <= {_magnitude(b)} < 2**32)",
            position,
        )
