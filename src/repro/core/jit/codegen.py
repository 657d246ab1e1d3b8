"""Kernel code generation from optimised expression trees.

Walks a type-annotated binary expression tree and emits :class:`KernelIR`:
loads (compact -> register expansion), alignment multiplies, arithmetic
ops sized by the inferred specs, and the compact store.  Also renders a
CUDA-like source listing equivalent to the paper's Listing 1, which the
examples and docs display.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.decimal.context import DecimalSpec
from repro.core.decimal.inference import div_prescale
from repro.core.jit import ir
from repro.core.jit.expr_ast import (
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    Literal,
    UnaryOp,
)
from repro.errors import CodegenError

#: SQL function -> RescaleOp mode.
_RESCALE_MODES = {"ROUND": "round", "TRUNC": "trunc", "CEIL": "ceil", "FLOOR": "floor"}

#: Widest subtree (in 32-bit words) the CSE pass will keep resident.
CSE_MAX_PINNED_WORDS = 6


class _Emitter:
    """Single-pass tree walker producing IR and tracking register pressure."""

    def __init__(self, runtime_constants: bool = False, cse: bool = False) -> None:
        self.instructions: List[ir.Instruction] = []
        self.columns: Dict[str, DecimalSpec] = {}
        self.runtime_constants = runtime_constants
        self.cse = cse
        self._next_register = 0
        self._live_words = 0
        self.peak_words = 0
        #: Release schedule for the lifetime analyzer: register id -> index
        #: of the last instruction emitted before it went back to the pool.
        self.released_after: Dict[int, int] = {}
        #: Column-load CSE: each referenced column is loaded exactly once
        #: (Listing 1 declares one register variable per column).
        self._column_registers: Dict[str, int] = {}
        self._register_specs: Dict[int, DecimalSpec] = {}
        #: Full common-subexpression elimination (an extension beyond the
        #: paper): structurally identical subtrees share one register.
        self._subtree_registers: Dict[str, int] = {}
        self._pinned: set = set()
        self._reuse_counts: Dict[str, int] = {}

    def count_subtrees(self, node: Expr) -> None:
        """First pass: count structurally identical binary subtrees."""
        if isinstance(node, BinaryOp):
            key = f"{node.to_sql()}::{node.spec}"
            self._reuse_counts[key] = self._reuse_counts.get(key, 0) + 1
            if self._reuse_counts[key] > 1:
                return  # children of a shared subtree are counted once
        for child in node.children():
            self.count_subtrees(child)

    def fresh(self, spec: DecimalSpec) -> int:
        register = self._next_register
        self._next_register += 1
        self._register_specs[register] = spec
        self._live_words += spec.words
        self.peak_words = max(self.peak_words, self._live_words)
        return register

    def release(self, register: int) -> None:
        """Free a temporary register; pinned registers stay live."""
        if register in self._pinned or register in self._column_registers.values():
            return
        spec = self._register_specs.get(register)
        if spec is not None:
            self._live_words -= spec.words
            del self._register_specs[register]
            self.released_after[register] = len(self.instructions) - 1

    def emit(self, node: Expr) -> int:
        if node.spec is None:
            raise CodegenError("codegen requires a type-annotated tree")
        if self.cse and isinstance(node, BinaryOp):
            key = f"{node.to_sql()}::{node.spec}"
            if key in self._subtree_registers:
                return self._subtree_registers[key]
            register = self._emit_binary(node)
            # Only keep registers for subtrees that actually recur AND are
            # narrow: pinning wide values trades occupancy (register
            # pressure) for the saved ALU work and quickly loses -- the
            # ext_cse benchmark quantifies this trade-off.
            if (
                self._reuse_counts.get(key, 0) > 1
                and node.spec.words <= CSE_MAX_PINNED_WORDS
            ):
                self._subtree_registers[key] = register
                self._pinned.add(register)
            return register
        if isinstance(node, ColumnRef):
            if node.name in self._column_registers:
                return self._column_registers[node.name]
            register = self.fresh(node.spec)
            self.instructions.append(ir.LoadColumn(register, node.spec, node.name))
            self.columns.setdefault(node.name, node.spec)
            # Column registers stay live for the whole kernel (never freed).
            self._column_registers[node.name] = register
            return register
        if isinstance(node, Literal):
            spec = node.spec
            unscaled = abs(int(node.value * 10**spec.scale))
            register = self.fresh(spec)
            self.instructions.append(
                ir.LoadConst(
                    register, spec, node.value < 0, unscaled,
                    runtime_convert=self.runtime_constants,
                )
            )
            return register
        if isinstance(node, UnaryOp):
            operand = self.emit(node.operand)
            register = self.fresh(node.spec)
            self.instructions.append(ir.NegOp(register, node.spec, operand))
            self.release(operand)
            return register
        if isinstance(node, BinaryOp):
            return self._emit_binary(node)
        if isinstance(node, FuncCall):
            argument = self.emit(node.argument)
            register = self.fresh(node.spec)
            if node.function == "ABS":
                self.instructions.append(ir.AbsOp(register, node.spec, argument))
            elif node.function == "SIGN":
                self.instructions.append(ir.SignOp(register, node.spec, argument))
            else:
                self.instructions.append(
                    ir.RescaleOp(register, node.spec, argument, _RESCALE_MODES[node.function])
                )
            self.release(argument)
            return register
        raise CodegenError(f"cannot generate code for {type(node).__name__}")

    def _emit_binary(self, node: BinaryOp) -> int:
        left_reg = self.emit(node.left)
        right_reg = self.emit(node.right)
        left_spec, right_spec = node.left.spec, node.right.spec
        if node.op in ("+", "-"):
            left_reg = self._align(left_reg, left_spec, node.spec.scale)
            right_reg = self._align(right_reg, right_spec, node.spec.scale)
            op_class = ir.AddOp if node.op == "+" else ir.SubOp
            register = self.fresh(node.spec)
            self.instructions.append(op_class(register, node.spec, left_reg, right_reg))
        elif node.op == "*":
            register = self.fresh(node.spec)
            self.instructions.append(ir.MulOp(register, node.spec, left_reg, right_reg))
        elif node.op == "/":
            register = self.fresh(node.spec)
            self.instructions.append(
                ir.DivOp(register, node.spec, left_reg, right_reg, div_prescale(right_spec))
            )
        elif node.op == "%":
            register = self.fresh(node.spec)
            self.instructions.append(ir.ModOp(register, node.spec, left_reg, right_reg))
        else:
            raise CodegenError(f"unsupported operator {node.op!r}")
        self.release(left_reg)
        self.release(right_reg)
        return register

    def _align(self, register: int, spec: DecimalSpec, scale: int) -> int:
        """Emit an alignment multiply when the operand scale is smaller.

        Only upward alignment appears in generated code; the inference rule
        makes every addition's result scale the max of its operands'.
        """
        if spec.scale >= scale:
            return register
        exponent = scale - spec.scale
        aligned_spec = DecimalSpec(spec.precision + exponent, scale)
        aligned = self.fresh(aligned_spec)
        self.instructions.append(ir.Align(aligned, aligned_spec, register, exponent))
        self.release(register)
        return aligned


def generate_kernel(
    expr: Expr,
    name: str = "calc_expr",
    tpi: int = 1,
    runtime_constants: bool = False,
    cse: bool = False,
) -> ir.KernelIR:
    """Generate a kernel for a type-annotated binary expression tree.

    The kernel has no ``source`` yet: ``compile_expression`` renders it
    (:func:`render_source`) once the analyzer's fast-path routes are in.
    """
    emitter = _Emitter(runtime_constants=runtime_constants, cse=cse)
    if cse:
        emitter.count_subtrees(expr)
    result_register = emitter.emit(expr)
    emitter.instructions.append(ir.StoreResult(result_register, expr.spec, result_register))
    return ir.KernelIR(
        name=name,
        expression_sql=expr.to_sql(),
        instructions=tuple(emitter.instructions),
        input_columns=emitter.columns,
        result_spec=expr.spec,
        register_words=emitter.peak_words,
        tpi=tpi,
        released_after=dict(emitter.released_after),
    )


def render_source(kernel: ir.KernelIR) -> str:
    """Render a CUDA-like listing of the kernel (cf. the paper's Listing 1)."""
    lines = [
        f"__global__ void {kernel.name}(ColIter *input, int tupleNum, char *output) {{",
        "    int stride = blockDim.x * gridDim.x;",
        "    int tid = blockIdx.x * blockDim.x + threadIdx.x;",
        "    for (int i = tid; i < tupleNum; i += stride) {",
    ]
    column_index = {name: i for i, name in enumerate(kernel.input_columns)}
    for instruction in kernel.instructions:
        lw = instruction.spec.words
        if isinstance(instruction, ir.LoadColumn):
            idx = column_index[instruction.column]
            lines.append(
                f"        Decimal<{lw}> r{instruction.dst}((cDecimal*)(input[{idx}][i]), "
                f"{instruction.spec.scale});  // {instruction.column} {instruction.spec}"
            )
        elif isinstance(instruction, ir.LoadConst):
            sign = "-" if instruction.negative else ""
            lines.append(
                f"        Decimal<{lw}> r{instruction.dst} = {sign}{instruction.unscaled}_dec;"
                f"  // constant, {instruction.spec}"
            )
        elif isinstance(instruction, ir.Align):
            lines.append(
                f"        Decimal<{lw}> r{instruction.dst} = r{instruction.src} << "
                f"{instruction.exponent};  // align x10^{instruction.exponent}"
            )
        elif isinstance(instruction, ir.AddOp):
            lines.append(f"        Decimal<{lw}> r{instruction.dst} = r{instruction.a} + r{instruction.b};")
        elif isinstance(instruction, ir.SubOp):
            lines.append(f"        Decimal<{lw}> r{instruction.dst} = r{instruction.a} - r{instruction.b};")
        elif isinstance(instruction, ir.NegOp):
            lines.append(f"        Decimal<{lw}> r{instruction.dst} = -r{instruction.src};")
        elif isinstance(instruction, ir.MulOp):
            lines.append(f"        Decimal<{lw}> r{instruction.dst} = r{instruction.a} * r{instruction.b};")
        elif isinstance(instruction, ir.DivOp):
            note = f"  // {instruction.fast_path} fast path" if instruction.fast_path else ""
            lines.append(
                f"        Decimal<{lw}> r{instruction.dst} = (r{instruction.a} << "
                f"{instruction.prescale}) / r{instruction.b};{note}"
            )
        elif isinstance(instruction, ir.ModOp):
            note = f"  // {instruction.fast_path} fast path" if instruction.fast_path else ""
            lines.append(
                f"        Decimal<{lw}> r{instruction.dst} = "
                f"r{instruction.a} % r{instruction.b};{note}"
            )
        elif isinstance(instruction, ir.AbsOp):
            lines.append(f"        Decimal<{lw}> r{instruction.dst} = r{instruction.src}.abs();")
        elif isinstance(instruction, ir.SignOp):
            lines.append(f"        Decimal<{lw}> r{instruction.dst} = r{instruction.src}.sign();")
        elif isinstance(instruction, ir.RescaleOp):
            lines.append(
                f"        Decimal<{lw}> r{instruction.dst} = r{instruction.src}."
                f"rescale_{instruction.mode}({instruction.spec.scale});"
            )
        elif isinstance(instruction, ir.StoreResult):
            lb = instruction.spec.compact_bytes
            lines.append(
                f"        r{instruction.src}.toCompact(output + i * (size_t){lb}, {lb});"
            )
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines)
