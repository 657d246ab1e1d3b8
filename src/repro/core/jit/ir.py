"""Kernel intermediate representation emitted by the JIT code generator.

A generated GPU kernel (Listing 1 of the paper) does three things per tuple:
expand compact operands into word-aligned register arrays, evaluate the
expression with fixed-width multi-word arithmetic, and write the result back
in compact form.  The IR below captures exactly those steps; the GPU
simulator both *executes* the instructions (producing bit-exact results via
``repro.core.decimal.vectorized``) and *costs* them (mapping each to PTX
instruction counts and memory traffic).

Registers are virtual: ``dst``/``src`` are integer ids, and each register
holds a sign plus an ``Lw``-word array whose width comes from the
instruction's ``spec``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.core.decimal.context import DecimalSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.analysis.diagnostics import AnalysisReport


@dataclass(frozen=True)
class Instruction:
    """Base class for kernel IR instructions."""

    dst: int
    spec: DecimalSpec


@dataclass(frozen=True)
class LoadColumn(Instruction):
    """Read a compact column value and expand it to register form."""

    column: str


@dataclass(frozen=True)
class LoadConst(Instruction):
    """Materialise a DECIMAL constant.

    With constant construction enabled (section III-D2) the conversion from
    the literal text happens at compile time and this costs nothing at
    runtime; with it disabled, ``runtime_convert`` marks that every tuple
    pays the string/int -> DECIMAL conversion (the Figure 11 baseline).
    """

    negative: bool
    unscaled: int
    runtime_convert: bool = False


@dataclass(frozen=True)
class Align(Instruction):
    """Scale-alignment multiply: ``dst = src * 10**exponent``."""

    src: int
    exponent: int


@dataclass(frozen=True)
class AddOp(Instruction):
    """Signed addition of two aligned registers (add.cc/addc chain)."""

    a: int
    b: int


@dataclass(frozen=True)
class SubOp(Instruction):
    """Signed subtraction of two aligned registers."""

    a: int
    b: int


@dataclass(frozen=True)
class NegOp(Instruction):
    """Sign flip."""

    src: int


@dataclass(frozen=True)
class MulOp(Instruction):
    """Multi-word multiplication (schoolbook mad chain)."""

    a: int
    b: int


@dataclass(frozen=True)
class DivOp(Instruction):
    """Division with dividend prescale (section III-B3 / III-C2).

    ``fast_path`` is a statically proven size class from the range
    analyzer: ``"native64"`` (pre-scaled dividend and divisor fit uint64 in
    every row) or ``"short"`` (divisor fits one 32-bit word in every row).
    ``None`` means the executor dispatches per row.
    """

    a: int
    b: int
    prescale: int
    fast_path: Optional[str] = None


@dataclass(frozen=True)
class ModOp(Instruction):
    """Integer modulo.

    ``fast_path`` as on :class:`DivOp` (the modulo routes mirror ``div``'s
    size classes, without the dividend prescale).
    """

    a: int
    b: int
    fast_path: Optional[str] = None


@dataclass(frozen=True)
class AbsOp(Instruction):
    """Magnitude copy (clears the sign byte)."""

    src: int


@dataclass(frozen=True)
class SignOp(Instruction):
    """Three-way sign: -1, 0 or 1 as DECIMAL(1, 0)."""

    src: int


@dataclass(frozen=True)
class RescaleOp(Instruction):
    """Scale change with an explicit rounding mode (ROUND/TRUNC/CEIL/FLOOR).

    ``mode`` is one of ``trunc``, ``round`` (half-up), ``ceil``, ``floor``;
    the target scale is ``spec.scale``.
    """

    src: int
    mode: str


@dataclass(frozen=True)
class StoreResult(Instruction):
    """Pack a register back to the compact output column."""

    src: int


@dataclass(frozen=True)
class Traffic:
    """A kernel's global-memory traffic per tuple, in compact bytes."""

    bytes_read: int
    bytes_written: int
    #: Column loads and result stores that move those bytes.
    accesses: int


@dataclass(frozen=True)
class KernelIR:
    """A compiled expression kernel.

    ``instructions`` evaluate one expression; ``input_columns`` maps the
    referenced column names to their specs; ``result_spec`` is the inferred
    output.  ``register_words`` is the peak number of 32-bit value words
    live at once per thread, which drives the occupancy model.

    Frozen: a kernel is shared through the kernel cache and priced from
    :attr:`profiles`, so an edit builds a new one with
    :func:`dataclasses.replace` (which starts with no profiles).
    ``instructions`` is a tuple; a list handed in is converted.
    """

    name: str
    expression_sql: str
    instructions: Tuple[Instruction, ...]
    input_columns: Dict[str, DecimalSpec]
    result_spec: DecimalSpec
    register_words: int
    source: str = ""
    tpi: int = 1
    #: Register pool release schedule recorded by the emitter: register id
    #: -> index of the instruction after which it was returned to the pool.
    #: Register ids are single-assignment, so one index per id suffices.
    #: ``None`` (hand-built kernels) disables the pool-based lifetime
    #: checks.
    released_after: Optional[Dict[int, int]] = None
    #: Diagnostics attached by the JIT pipeline's analyzer run (the import
    #: is type-checking-only to keep this module free of upward runtime
    #: dependencies).
    analysis: Optional["AnalysisReport"] = field(default=None, repr=False, compare=False)
    #: Per-device cost profiles, filled on a kernel's first pricing for a
    #: device by :func:`repro.gpusim.timing.kernel_profile`.
    profiles: Dict[Any, Any] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if not isinstance(self.instructions, tuple):
            object.__setattr__(self, "instructions", tuple(self.instructions))

    def traffic(self) -> Traffic:
        """What each tuple moves through global memory: one walk of the
        loads and stores."""
        read = written = accesses = 0
        for instruction in self.instructions:
            if isinstance(instruction, LoadColumn):
                read += instruction.spec.compact_bytes
            elif isinstance(instruction, StoreResult):
                written += instruction.spec.compact_bytes
            else:
                continue
            accesses += 1
        return Traffic(read, written, accesses)

    @property
    def bytes_read_per_tuple(self) -> int:
        """Compact input bytes each tuple loads from global memory."""
        return self.traffic().bytes_read

    @property
    def bytes_written_per_tuple(self) -> int:
        """Compact output bytes each tuple stores."""
        return self.traffic().bytes_written

    def count(self, kind) -> int:
        """Number of IR instructions of a given type."""
        return sum(1 for instruction in self.instructions if isinstance(instruction, kind))

    def alignment_ops(self) -> int:
        """Runtime alignment multiplications per tuple (Figure 10's metric)."""
        return self.count(Align)
