"""End-to-end tests for statically-routed division/modulo kernels.

The acceptance bar for the analyzer's feedback loop: a kernel whose
divisor is statically proven single-word (or uint64-safe) executes the
annotated route bit-exactly against both the dynamic dispatcher and the
preserved row-loop reference.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis import analyze_kernel
from repro.core.decimal import reference
from repro.core.decimal import vectorized as vz
from repro.core.decimal import words as w
from repro.core.decimal.context import DecimalSpec
from repro.core.decimal.vectorized import DecimalVector
from repro.core.jit import ir
from repro.core.jit.pipeline import compile_expression


def _strip_fast_paths(kernel: ir.KernelIR) -> ir.KernelIR:
    return dataclasses.replace(
        kernel,
        instructions=[
            dataclasses.replace(i, fast_path=None)
            if isinstance(i, (ir.DivOp, ir.ModOp))
            else i
            for i in kernel.instructions
        ],
    )


class TestBitExactExecution:
    @pytest.mark.parametrize(
        "expression,spec,path",
        [
            ("x / 7", DecimalSpec(9, 2), "native64"),
            ("x / 120", DecimalSpec(30, 2), "short"),
            ("x % 97", DecimalSpec(30, 0), "short"),
        ],
    )
    def test_static_route_matches_dynamic_and_reference(self, expression, spec, path):
        compiled = compile_expression(expression, {"x": spec})
        [op] = [
            i
            for i in compiled.kernel.instructions
            if isinstance(i, (ir.DivOp, ir.ModOp))
        ]
        assert op.fast_path == path

        rng = np.random.default_rng(7)
        cap = min(spec.max_unscaled, 10**24)
        # Compose wide magnitudes from two int64-sized draws (numpy caps at
        # int64) so the wide specs actually exercise multi-word dividends.
        low = rng.integers(0, 10**12, 257)
        high = rng.integers(0, max(cap // 10**12, 1), 257)
        values = [
            (int(h) * 10**12 + int(v)) % cap * (1 if i % 2 else -1)
            for i, (h, v) in enumerate(zip(high, low))
        ]
        values[0] = 0
        values[1] = cap - 1

        # The limb routes directly: the executor would run these narrow
        # values on int64 lanes and never reach the routes under test.
        load, const = compiled.kernel.instructions[:2]
        assert isinstance(load, ir.LoadColumn) and isinstance(const, ir.LoadConst)
        dividend = DecimalVector.from_unscaled(values, load.spec)
        divisor = DecimalVector.broadcast(
            const.negative, w.from_int(const.unscaled, const.spec.words), const.spec, len(values)
        )
        if isinstance(op, ir.DivOp):
            operation, rowloop = vz.div, reference.div_rowloop
        else:
            operation, rowloop = vz.mod, reference.mod_rowloop
        static = operation(dividend, divisor, fast_path=op.fast_path)
        dynamic = operation(dividend, divisor)
        expected = rowloop(dividend, divisor)

        for other in (dynamic, expected):
            assert static.spec == other.spec
            assert np.array_equal(static.words, other.words)
            assert np.array_equal(
                np.asarray(static.negative, bool), np.asarray(other.negative, bool)
            )

    def test_static_short_division_matches_rowloop_reference(self):
        # The raw vectorised route against the preserved pre-vectorisation
        # row loop, on operands where ``short`` is the proven class.
        spec_a = DecimalSpec(30, 2)
        spec_b = DecimalSpec(5, 0)
        rng = np.random.default_rng(11)
        a_vals = [int(v) * 10**12 - 5 * 10**13 for v in rng.integers(0, 10**6, 200)]
        b_vals = [int(v) for v in rng.integers(1, 9999, 200)]
        a = DecimalVector.from_unscaled(a_vals, spec_a)
        b = DecimalVector.from_unscaled(b_vals, spec_b)

        static = vz.div(a, b, fast_path="short")
        rowloop = reference.div_rowloop(a, b)
        assert np.array_equal(static.words, rowloop.words)
        assert np.array_equal(
            np.asarray(static.negative, bool), np.asarray(rowloop.negative, bool)
        )


class TestStrictMode:
    """Compile never raises on a kernel's analyzer errors; the analyzer
    reports them."""

    def test_default_mode_attaches_report_without_raising(self):
        compiled = compile_expression(
            "x / y", {"x": DecimalSpec(9, 2), "y": DecimalSpec(5, 0)}
        )
        report = analyze_kernel(compiled.kernel, tree=compiled.tree)
        assert report.has_errors  # column divisor can overflow


class TestApplyFastPathsImmutability:
    def test_input_kernel_is_never_mutated(self):
        from repro.analysis import apply_fast_paths
        from repro.analysis.ranges import analyze_ranges

        compiled = compile_expression("x / 7", {"x": DecimalSpec(9, 2)})
        # A cache-shaped scenario: the same kernel object is held by two
        # parties; annotating one holder's view must not leak to the other.
        shared = _strip_fast_paths(compiled.kernel)
        original_instructions = shared.instructions
        original_items = tuple(shared.instructions)
        _findings, fast_paths = analyze_ranges(shared)
        assert fast_paths  # the x / 7 divisor is statically provable

        annotated = apply_fast_paths(shared, fast_paths)
        assert annotated is not shared
        assert annotated.instructions is not shared.instructions
        # The shared holder's view is bit-identical to before the rewrite.
        assert shared.instructions is original_instructions
        assert shared.instructions == original_items
        assert all(
            op.fast_path is None
            for op in shared.instructions
            if isinstance(op, (ir.DivOp, ir.ModOp))
        )
        # ... while the returned copy carries the proven routes.
        assert any(
            op.fast_path
            for op in annotated.instructions
            if isinstance(op, (ir.DivOp, ir.ModOp))
        )

    def test_no_change_returns_the_same_kernel(self):
        from repro.analysis import apply_fast_paths
        from repro.analysis.ranges import analyze_ranges

        compiled = compile_expression("x / 7", {"x": DecimalSpec(9, 2)})
        _findings, fast_paths = analyze_ranges(compiled.kernel)
        # The pipeline already applied these routes: re-applying is a no-op
        # and must not copy.
        assert apply_fast_paths(compiled.kernel, fast_paths) is compiled.kernel
