"""Structural verification pass (``STRUCT*`` rules).

Collects every violation through the diagnostics framework instead of
raising on the first one: registers defined before use, instruction specs
consistent with the operation semantics (alignment exponents match the
scale change, add/sub operands scale-aligned, division prescale/result
scales follow the section III-B3 rules), and exactly one result stored.

Later passes (ranges, lifetime) assume a structurally valid kernel, so the
analyzer driver skips them when this pass reports errors, and the JIT
pipeline raises :class:`~repro.errors.CodegenError` with the first finding.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.core.decimal.context import DecimalSpec
from repro.core.jit import ir

#: Rule ids, keyed by what went wrong (the DESIGN.md table mirrors this).
UNDEFINED_REGISTER = "STRUCT001"
UNREGISTERED_COLUMN = "STRUCT002"
BAD_CONSTANT = "STRUCT003"
BAD_ALIGN = "STRUCT004"
UNALIGNED_ADD = "STRUCT005"
BAD_MUL_SCALE = "STRUCT006"
BAD_DIV_SCALE = "STRUCT007"
BAD_MOD_SCALE = "STRUCT008"
BAD_FUNC_SPEC = "STRUCT009"
BAD_STORE = "STRUCT010"
UNKNOWN_INSTRUCTION = "STRUCT011"


def check_structure(kernel: ir.KernelIR) -> List[Diagnostic]:
    """Collect every structural violation in a kernel (empty = valid)."""
    findings: List[Diagnostic] = []
    defined: Dict[int, DecimalSpec] = {}
    stores = 0

    def report(rule: str, message: str, position: int) -> None:
        findings.append(
            Diagnostic(rule, Severity.ERROR, message, kernel=kernel.name, instruction=position)
        )

    def require(register: int, instruction: ir.Instruction, position: int) -> Optional[DecimalSpec]:
        if register not in defined:
            report(
                UNDEFINED_REGISTER,
                f"{type(instruction).__name__} reads undefined register r{register}",
                position,
            )
            return None
        return defined[register]

    for position, instruction in enumerate(kernel.instructions):
        if isinstance(instruction, ir.LoadColumn):
            if instruction.column not in kernel.input_columns:
                report(
                    UNREGISTERED_COLUMN,
                    f"LoadColumn references unregistered column {instruction.column!r}",
                    position,
                )
            defined[instruction.dst] = instruction.spec
        elif isinstance(instruction, ir.LoadConst):
            if instruction.unscaled < 0:
                report(BAD_CONSTANT, "LoadConst magnitude must be non-negative", position)
            elif not instruction.spec.fits(instruction.unscaled):
                report(
                    BAD_CONSTANT,
                    f"constant {instruction.unscaled} does not fit {instruction.spec}",
                    position,
                )
            defined[instruction.dst] = instruction.spec
        elif isinstance(instruction, ir.Align):
            source = require(instruction.src, instruction, position)
            if instruction.exponent <= 0:
                report(BAD_ALIGN, "Align exponent must be positive", position)
            elif source is not None and (
                source.scale + instruction.exponent != instruction.spec.scale
            ):
                report(
                    BAD_ALIGN,
                    f"Align scale mismatch: {source.scale} + {instruction.exponent} "
                    f"!= {instruction.spec.scale}",
                    position,
                )
            defined[instruction.dst] = instruction.spec
        elif isinstance(instruction, (ir.AddOp, ir.SubOp)):
            left = require(instruction.a, instruction, position)
            right = require(instruction.b, instruction, position)
            if (
                left is not None
                and right is not None
                and (left.scale != right.scale or left.scale != instruction.spec.scale)
            ):
                report(
                    UNALIGNED_ADD,
                    f"{type(instruction).__name__} operands not scale-aligned: "
                    f"{left.scale}/{right.scale} -> {instruction.spec.scale}",
                    position,
                )
            defined[instruction.dst] = instruction.spec
        elif isinstance(instruction, ir.NegOp):
            require(instruction.src, instruction, position)
            defined[instruction.dst] = instruction.spec
        elif isinstance(instruction, ir.MulOp):
            left = require(instruction.a, instruction, position)
            right = require(instruction.b, instruction, position)
            if (
                left is not None
                and right is not None
                and left.scale + right.scale != instruction.spec.scale
            ):
                report(
                    BAD_MUL_SCALE,
                    f"MulOp scale mismatch: {left.scale} + {right.scale} "
                    f"!= {instruction.spec.scale}",
                    position,
                )
            defined[instruction.dst] = instruction.spec
        elif isinstance(instruction, ir.DivOp):
            dividend = require(instruction.a, instruction, position)
            divisor = require(instruction.b, instruction, position)
            if divisor is not None and instruction.prescale != divisor.scale + 4:
                report(
                    BAD_DIV_SCALE,
                    f"DivOp prescale {instruction.prescale} != divisor scale "
                    f"{divisor.scale} + 4",
                    position,
                )
            if dividend is not None and instruction.spec.scale != dividend.scale + 4:
                report(
                    BAD_DIV_SCALE,
                    f"DivOp result scale {instruction.spec.scale} != dividend "
                    f"scale {dividend.scale} + 4",
                    position,
                )
            defined[instruction.dst] = instruction.spec
        elif isinstance(instruction, ir.ModOp):
            left = require(instruction.a, instruction, position)
            right = require(instruction.b, instruction, position)
            if (
                left is not None
                and right is not None
                and (left.scale or right.scale or instruction.spec.scale)
            ):
                report(BAD_MOD_SCALE, "ModOp requires integer (scale-0) operands", position)
            defined[instruction.dst] = instruction.spec
        elif isinstance(instruction, ir.AbsOp):
            source = require(instruction.src, instruction, position)
            if source is not None and source != instruction.spec:
                report(BAD_FUNC_SPEC, "AbsOp must preserve its operand's spec", position)
            defined[instruction.dst] = instruction.spec
        elif isinstance(instruction, ir.SignOp):
            require(instruction.src, instruction, position)
            if instruction.spec != DecimalSpec(1, 0):
                report(BAD_FUNC_SPEC, "SignOp result must be DECIMAL(1, 0)", position)
            defined[instruction.dst] = instruction.spec
        elif isinstance(instruction, ir.RescaleOp):
            require(instruction.src, instruction, position)
            if instruction.mode not in ("trunc", "round", "ceil", "floor"):
                report(BAD_FUNC_SPEC, f"unknown rescale mode {instruction.mode!r}", position)
            elif instruction.mode in ("ceil", "floor") and instruction.spec.scale != 0:
                report(BAD_FUNC_SPEC, "CEIL/FLOOR results must have scale 0", position)
            defined[instruction.dst] = instruction.spec
        elif isinstance(instruction, ir.StoreResult):
            stored = require(instruction.src, instruction, position)
            if stored is not None and stored != kernel.result_spec:
                report(
                    BAD_STORE,
                    f"stored spec {stored} != kernel result spec {kernel.result_spec}",
                    position,
                )
            stores += 1
        else:
            report(
                UNKNOWN_INSTRUCTION,
                f"unknown instruction {type(instruction).__name__}",
                position,
            )

    if stores != 1:
        findings.append(
            Diagnostic(
                BAD_STORE,
                Severity.ERROR,
                f"kernel must store exactly one result, found {stores}",
                kernel=kernel.name,
            )
        )
    return findings
