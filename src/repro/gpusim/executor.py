"""Kernel executor: runs kernel IR over DECIMAL columns, bit-exactly.

This is the simulated device's data plane.  Each IR instruction maps to a
vectorised decimal operation from ``repro.core.decimal.vectorized`` -- the
numpy lanes stand in for SIMT threads -- and the control plane charges the
roofline timing model for the launch.  The result is both the exact output
column (verifiable against an oracle) and a :class:`KernelRun` report with
the simulated time breakdown.

**Int64 lanes.**  Decimal data usually carries far fewer digits than its
type (a DECIMAL(285,2) price still fits 24 bits), so a register is held as
one int64 column while an exact magnitude bound shows that its values fit
both 63 bits and the register's declared precision.  Loads take the bound
their vector carries (:meth:`DecimalVector.lane_bound`), constants from
their literal, and each instruction propagates it (``a+b``, ``a*b``,
``*10**k``, a measured quotient); the store hands it to the result
vector.  A constant stays one 0-d lane that numpy broadcasts, and becomes
a full column only where a limb step, a division dividend or the store
needs one.  Within
those bounds the limb operations can neither raise nor wrap, so both paths
compute the same integers; any instruction whose bound or type does not
allow lanes runs the limb operation instead, over planes rebuilt from the
lanes, and keeps every limb-path value, spec and error.  This is a host
strategy only: :func:`kernel_time` still charges the declared ``Lw``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Union

import numpy as np

from repro.core.decimal import inference
from repro.core.decimal import vectorized as vz
from repro.core.decimal.context import DecimalSpec
from repro.core.decimal.vectorized import DecimalVector
from repro.core.jit import ir
from repro.errors import ExecutionError, UnsupportedInstructionError
from repro.gpusim.device import DEFAULT_DEVICE, GpuDevice
from repro.gpusim.timing import KernelTiming, kernel_time

_INT64_MAX = (1 << 63) - 1


@dataclass
class KernelRun:
    """Result of executing one kernel over a batch of tuples."""

    result: DecimalVector
    timing: KernelTiming
    kernel: ir.KernelIR


@dataclass(frozen=True)
class _Lanes:
    """A register held as int64: ``bound`` >= every ``|value|``, <= ``_limit(spec)``.

    ``values`` holds one lane per row, or is 0-d for a constant.
    """

    values: np.ndarray
    spec: DecimalSpec
    bound: int


_Register = Union[DecimalVector, _Lanes]


def execute(
    kernel: ir.KernelIR,
    columns: Mapping[str, Union[np.ndarray, DecimalVector]],
    tuples: int,
    device: GpuDevice = DEFAULT_DEVICE,
    simulate_tuples: Optional[int] = None,
) -> KernelRun:
    """Execute a kernel.

    ``columns`` maps column names to compact ``(N, Lb)`` uint8 arrays, or
    to register-form :class:`DecimalVector` columns (the engine passes its
    cached expansions, whose memoized int64 lanes the loads then reuse).
    The data plane runs over the actual N rows supplied; ``simulate_tuples``
    (default N) is the tuple count the *timing* model charges for, which is
    how benchmarks evaluate a sample of rows for correctness while costing
    the paper's 10-million-row relations (the model is linear in N).
    """
    registers: Dict[int, _Register] = {}
    rows = tuples
    result: Optional[DecimalVector] = None

    for instruction in kernel.instructions:
        if isinstance(instruction, ir.StoreResult):
            result = _vector(registers[instruction.src], rows)
            continue
        register: Optional[_Register]
        if isinstance(instruction, ir.LoadColumn):
            vector = _load(columns, instruction, rows)
            register = _lane_load(vector)
            if register is None:
                register = vector
        else:
            register = _lane_step(instruction, registers, rows)
            if register is None:
                register = _limb_step(instruction, registers, rows)
        registers[instruction.dst] = register

    if result is None:
        raise ExecutionError("kernel has no StoreResult instruction")

    timing = kernel_time(kernel, simulate_tuples if simulate_tuples is not None else rows, device)
    return KernelRun(result=result, timing=timing, kernel=kernel)


def _load(
    columns: Mapping[str, Union[np.ndarray, DecimalVector]],
    instruction: ir.LoadColumn,
    rows: int,
) -> DecimalVector:
    try:
        data = columns[instruction.column]
    except KeyError:
        raise ExecutionError(f"kernel input column {instruction.column!r} missing") from None
    length = data.rows if isinstance(data, DecimalVector) else data.shape[0]
    if length != rows:
        raise ExecutionError(
            f"column {instruction.column!r} has {length} rows, expected {rows}"
        )
    if not isinstance(data, DecimalVector):
        return DecimalVector.from_compact(data, instruction.spec)
    if data.spec != instruction.spec:
        raise ExecutionError(
            f"column {instruction.column!r} is {data.spec}, expected {instruction.spec}"
        )
    return data


def _vector(register: _Register, rows: int) -> DecimalVector:
    """The register as a ``rows``-row vector, keeping its lanes and their
    bound (lanes rebuild the limb path's exact planes)."""
    if isinstance(register, _Lanes):
        return DecimalVector.from_int64(
            _column(register.values, rows), register.spec, bound=register.bound
        )
    return register


def _column(values: np.ndarray, rows: int) -> np.ndarray:
    """Lane ``values`` as one lane per row: a 0-d constant is broadcast."""
    return np.full(rows, values, dtype=np.int64) if values.ndim == 0 else values


def _limit(spec: DecimalSpec) -> int:
    """Largest magnitude a lane register of ``spec`` may hold."""
    return _INT64_MAX if spec.precision >= 19 else 10**spec.precision - 1


def _lane_load(vector: DecimalVector) -> Optional[_Lanes]:
    """The loaded column as lanes, if its bound fits 63 bits and its type."""
    bound = vector.lane_bound()
    if bound is None or bound > _limit(vector.spec):
        return None
    return _Lanes(vector.to_int64(), vector.spec, bound)


def _lane_step(
    instruction: ir.Instruction, registers: Dict[int, _Register], rows: int
) -> Optional[_Lanes]:
    """Run ``instruction`` on int64 lanes, or None where limbs must run it.

    Each rule admits exactly the cases in which the limb operation computes
    the same integers without truncating (``with_spec`` to another scale),
    raising, or wrapping (a quotient beyond its container, DESIGN.md §6).
    """
    spec = instruction.spec
    if isinstance(instruction, ir.LoadConst):
        magnitude = instruction.unscaled
        # A negative zero stays on limbs, which keep its sign plane.
        if not 0 <= magnitude <= _limit(spec) or (instruction.negative and not magnitude):
            return None
        value = -magnitude if instruction.negative else magnitude
        return _Lanes(np.array(value, dtype=np.int64), spec, magnitude)
    if isinstance(instruction, (ir.Align, ir.NegOp, ir.AbsOp)):
        source = registers[instruction.src]
        if not isinstance(source, _Lanes):
            return None
        if isinstance(instruction, ir.NegOp):  # keeps the source's spec, as vz.neg
            return _Lanes(np.negative(source.values), source.spec, source.bound)
        if isinstance(instruction, ir.AbsOp):
            return _Lanes(np.abs(source.values), source.spec, source.bound)
        exponent = instruction.exponent
        if exponent < 0 or spec.scale != source.spec.scale + exponent:
            return None
        factor = 10**exponent
        bound = source.bound * factor
        if factor > _INT64_MAX or bound > _limit(spec):
            return None
        return _Lanes(source.values * factor if exponent else source.values, spec, bound)
    if not isinstance(instruction, (ir.AddOp, ir.SubOp, ir.MulOp, ir.DivOp)):
        return None  # ModOp, SignOp, RescaleOp
    a, b = registers[instruction.a], registers[instruction.b]
    if not (isinstance(a, _Lanes) and isinstance(b, _Lanes)):
        return None
    if isinstance(instruction, ir.MulOp):
        typed = inference.mul_result(a.spec, b.spec)
        bound = a.bound * b.bound
        if spec.scale != typed.scale or bound > min(_limit(typed), _limit(spec)):
            return None
        return _Lanes(a.values * b.values, spec, bound)
    if isinstance(instruction, ir.DivOp):
        return _lane_div(a, b, spec, rows)
    typed = inference.add_result(a.spec, b.spec)
    factor_a = 10 ** (typed.scale - a.spec.scale)
    factor_b = 10 ** (typed.scale - b.spec.scale)
    bound = a.bound * factor_a + b.bound * factor_b
    if (
        spec.scale != typed.scale
        or max(factor_a, factor_b) > _INT64_MAX
        or bound > min(_limit(typed), _limit(spec))
    ):
        return None
    left = a.values * factor_a if factor_a != 1 else a.values
    right = b.values * factor_b if factor_b != 1 else b.values
    values = left - right if isinstance(instruction, ir.SubOp) else left + right
    return _Lanes(values, spec, bound)


def _lane_div(a: _Lanes, b: _Lanes, spec: DecimalSpec, rows: int) -> Optional[_Lanes]:
    """Truncating division of magnitudes, as the limb path divides.

    The sign is ``sign_a XOR sign_b`` (numpy's ``//`` would floor negative
    quotients).  A zero divisor, or a quotient beyond its type, stays on
    limbs: they raise the same error, or wrap into the same container.
    The quotient is computed in place over a full column of ``rows``
    dividends.
    """
    typed = inference.div_result(a.spec, b.spec)
    factor = 10 ** inference.div_prescale(b.spec)
    if spec.scale != typed.scale or max(a.bound, 1) * factor > _INT64_MAX:
        return None
    if not b.values.all():
        return None
    quotient = np.abs(_column(a.values, rows)) * factor
    quotient //= np.abs(b.values)
    bound = int(quotient.max()) if quotient.size else 0
    if bound > min(_limit(typed), _limit(spec)):
        return None
    np.negative(quotient, where=(a.values < 0) != (b.values < 0), out=quotient)
    return _Lanes(quotient, spec, bound)


def _limb_step(
    instruction: ir.Instruction, registers: Dict[int, _Register], rows: int
) -> DecimalVector:
    """Run ``instruction`` on limb planes (every type, value and error)."""

    def operand(register: int) -> DecimalVector:
        return _vector(registers[register], rows)

    if isinstance(instruction, ir.LoadConst):
        from repro.core.decimal import words as w

        limbs = w.from_int(instruction.unscaled, instruction.spec.words)
        return DecimalVector.broadcast(instruction.negative, limbs, instruction.spec, rows)
    if isinstance(instruction, ir.Align):
        source = operand(instruction.src)
        return source.rescale(source.spec.scale + instruction.exponent).with_spec(
            instruction.spec
        )
    if isinstance(instruction, ir.AddOp):
        return vz.add(operand(instruction.a), operand(instruction.b)).with_spec(instruction.spec)
    if isinstance(instruction, ir.SubOp):
        return vz.sub(operand(instruction.a), operand(instruction.b)).with_spec(instruction.spec)
    if isinstance(instruction, ir.NegOp):
        return vz.neg(operand(instruction.src))
    if isinstance(instruction, ir.MulOp):
        return vz.mul(operand(instruction.a), operand(instruction.b)).with_spec(instruction.spec)
    if isinstance(instruction, ir.DivOp):
        value = vz.div(
            operand(instruction.a), operand(instruction.b), fast_path=instruction.fast_path
        )
        return _coerce_container(value, instruction.spec)
    if isinstance(instruction, ir.ModOp):
        value = vz.mod(
            operand(instruction.a), operand(instruction.b), fast_path=instruction.fast_path
        )
        return value.with_spec(instruction.spec)
    if isinstance(instruction, ir.AbsOp):
        return vz.absolute(operand(instruction.src))
    if isinstance(instruction, ir.SignOp):
        return vz.sign(operand(instruction.src))
    if isinstance(instruction, ir.RescaleOp):
        return vz.rescale_with_mode(operand(instruction.src), instruction.spec, instruction.mode)
    raise UnsupportedInstructionError(type(instruction).__name__)


def _coerce_container(value: DecimalVector, spec) -> DecimalVector:
    """Redeclare a division result at the kernel's register spec.

    Division results may wrap (see ``DecimalVector.from_unscaled_container``);
    the stored spec is the compile-time one regardless.
    """
    if value.spec == spec:
        return value
    return DecimalVector.from_unscaled_container(
        [u for u in value.to_unscaled()], spec
    ) if value.spec.scale == spec.scale else value.with_spec(spec)
