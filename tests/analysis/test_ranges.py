"""Tests for the interval/range analysis pass (overflow proofs, fast paths)."""

from repro.analysis import analyze_kernel
from repro.analysis.ranges import (
    NATIVE64,
    OVER_ALLOCATED,
    POSSIBLE_OVERFLOW,
    SHORT_DIVISOR,
    _abs_interval,
    _div_interval,
    _mod_interval,
    _rescale_interval,
    analyze_ranges,
)
from repro.core.decimal.context import DecimalSpec
from repro.core.jit import codegen, ir
from repro.core.jit.pipeline import compile_expression


def _kernel(instructions, input_columns, result_spec, name="adversarial"):
    return ir.KernelIR(
        name=name,
        instructions=instructions,
        input_columns=input_columns,
        result_spec=result_spec,
        register_words=sum(i.spec.words for i in instructions),
    )


class TestAdversarialOverflow:
    def test_under_allocated_product_is_an_error(self):
        # DECIMAL(10, 0) allocates two words, but the product of two such
        # columns can reach ~1e20, which needs three: the analyzer must
        # refuse to certify this hand-built kernel.
        spec = DecimalSpec(10, 0)
        kernel = _kernel(
            [
                ir.LoadColumn(0, spec, "a"),
                ir.LoadColumn(1, spec, "b"),
                ir.MulOp(2, spec, 0, 1),
                ir.StoreResult(2, spec, 2),
            ],
            {"a": spec, "b": spec},
            spec,
        )
        report = analyze_kernel(kernel)
        assert report.has_errors
        assert POSSIBLE_OVERFLOW in report.rules()
        [finding] = report.errors
        assert finding.instruction == 2
        assert "2-word container" in finding.message

    def test_column_divisor_can_overflow_the_inferred_container(self):
        # A column divisor's interval includes +/-1 (scale 0), so x / y can
        # exceed DECIMAL division's inferred result container -- a true
        # positive the dynamic engine handles by wrapping at the container.
        compiled = compile_expression(
            "x / y", {"x": DecimalSpec(9, 2), "y": DecimalSpec(5, 0)}
        )
        report = analyze_kernel(compiled.kernel, tree=compiled.tree)
        assert POSSIBLE_OVERFLOW in report.rules()
        # Proven fast-path facts are reported, but never applied to the IR
        # while the kernel has range errors.
        assert all(
            op.fast_path is None
            for op in compiled.kernel.instructions
            if isinstance(op, ir.DivOp)
        )

    def test_generated_addition_kernels_are_overflow_free(self):
        for expression in ("a + b", "a - b * 3", "(a + b) * (a - b)"):
            compiled = compile_expression(
                expression, {"a": DecimalSpec(10, 2), "b": DecimalSpec(8, 1)}
            )
            assert not analyze_kernel(compiled.kernel, tree=compiled.tree).has_errors, expression


class TestOverAllocation:
    def test_wide_spec_for_small_sum_warns(self):
        narrow = DecimalSpec(3, 0)
        wide = DecimalSpec(38, 0)
        kernel = _kernel(
            [
                ir.LoadColumn(0, narrow, "a"),
                ir.LoadColumn(1, narrow, "b"),
                ir.AddOp(2, wide, 0, 1),
                ir.StoreResult(2, wide, 2),
            ],
            {"a": narrow, "b": narrow},
            wide,
        )
        report = analyze_kernel(kernel)
        assert not report.has_errors
        assert OVER_ALLOCATED in report.rules()
        [finding] = [d for d in report.warnings if d.rule == OVER_ALLOCATED]
        assert "fits 1 word(s)" in finding.message

    def test_loads_are_not_flagged(self):
        # Only arithmetic results are width-linted: a load's width is the
        # column's declared type, not the analyzer's business.
        wide = DecimalSpec(38, 0)
        kernel = _kernel(
            [ir.LoadColumn(0, wide, "a"), ir.StoreResult(0, wide, 0)],
            {"a": wide},
            wide,
        )
        findings, _ = analyze_ranges(kernel)
        assert findings == []


class TestDivisionFastPaths:
    def test_native64_for_narrow_constant_division(self):
        compiled = compile_expression("x / 7", {"x": DecimalSpec(9, 2)})
        [div] = [i for i in compiled.kernel.instructions if isinstance(i, ir.DivOp)]
        assert div.fast_path == "native64"
        report = analyze_kernel(compiled.kernel, tree=compiled.tree)
        assert NATIVE64 in report.rules()
        assert not report.has_errors

    def test_short_for_wide_dividend_single_word_divisor(self):
        compiled = compile_expression("x / 120", {"x": DecimalSpec(30, 2)})
        [div] = [i for i in compiled.kernel.instructions if isinstance(i, ir.DivOp)]
        assert div.fast_path == "short"
        assert SHORT_DIVISOR in analyze_kernel(compiled.kernel, tree=compiled.tree).rules()

    def test_modulo_routes_mirror_division(self):
        narrow = compile_expression("x % 97", {"x": DecimalSpec(9, 0)})
        wide = compile_expression("x % 97", {"x": DecimalSpec(30, 0)})
        [mod_narrow] = [i for i in narrow.kernel.instructions if isinstance(i, ir.ModOp)]
        [mod_wide] = [i for i in wide.kernel.instructions if isinstance(i, ir.ModOp)]
        assert mod_narrow.fast_path == "native64"
        assert mod_wide.fast_path == "short"

    def test_annotation_appears_in_rendered_source(self):
        compiled = compile_expression("x / 120", {"x": DecimalSpec(30, 2)})
        assert "// short fast path" in codegen.render_source(compiled.kernel)


class TestIntervalTransfer:
    def test_div_interval_uses_min_nonzero_divisor(self):
        assert _div_interval((-100, 100), (-5, 5), 10) == (-1000, 1000)
        assert _div_interval((0, 100), (2, 5), 1) == (0, 50)
        assert _div_interval((-100, 0), (2, 5), 1) == (-50, 0)

    def test_mod_interval_sign_follows_dividend(self):
        assert _mod_interval((0, 50), (-7, 7)) == (0, 6)
        assert _mod_interval((-50, -1), (-7, 7)) == (-6, 0)
        assert _mod_interval((-10, 50), (-7, 7)) == (-6, 6)
        # Small dividends tighten the bound below |b| - 1.
        assert _mod_interval((0, 3), (0, 1000)) == (0, 3)

    def test_rescale_interval_brackets_all_modes(self):
        assert _rescale_interval((-15, 27), 2, 0) == (-1, 1)
        assert _rescale_interval((100, 199), 2, 0) == (1, 2)
        assert _rescale_interval((-7, 7), 0, 2) == (-700, 700)

    def test_abs_interval(self):
        assert _abs_interval((-5, 3)) == (0, 5)
        assert _abs_interval((2, 9)) == (2, 9)
        assert _abs_interval((-9, -2)) == (2, 9)
