"""Tests for the schedule lint (misordered sums, surviving constant subtrees)."""

from repro.analysis import analyze_kernel
from repro.analysis.schedule import CONSTANT_SUBTREE, MISORDERED_SUM, check_schedule_ir
from repro.core.decimal.context import DecimalSpec
from repro.core.jit import ir
from repro.core.jit.pipeline import JitOptions, compile_expression

SCHEMA = {"a": DecimalSpec(8, 0), "b": DecimalSpec(8, 0), "c": DecimalSpec(8, 4)}


class TestMisorderedSums:
    def test_unscheduled_chain_warns(self):
        compiled = compile_expression(
            "a + c + b", SCHEMA, JitOptions(alignment_scheduling=False)
        )
        report = analyze_kernel(compiled.kernel, tree=compiled.tree)
        assert MISORDERED_SUM in report.rules()
        assert not report.has_errors  # wasted alignments, not wrong answers

    def test_scheduled_chain_is_clean(self):
        compiled = compile_expression("a + c + b", SCHEMA)
        assert MISORDERED_SUM not in analyze_kernel(compiled.kernel, tree=compiled.tree).rules()

    def test_already_optimal_order_is_clean(self):
        compiled = compile_expression(
            "a + b + c", SCHEMA, JitOptions(alignment_scheduling=False)
        )
        assert MISORDERED_SUM not in analyze_kernel(compiled.kernel, tree=compiled.tree).rules()


class TestSurvivingConstants:
    def test_constant_product_in_ir_warns(self):
        spec = DecimalSpec(4, 0)
        kernel = ir.KernelIR(
            name="hand",
            instructions=[
                ir.LoadConst(0, spec, False, 2),
                ir.LoadConst(1, spec, False, 3),
                ir.MulOp(2, spec, 0, 1),
                ir.StoreResult(2, spec, 2),
            ],
            input_columns={},
            result_spec=spec,
            register_words=3,
        )
        [finding] = [
            d for d in check_schedule_ir(kernel) if d.rule == CONSTANT_SUBTREE
        ]
        assert finding.instruction == 2

    def test_folded_pipeline_kernels_are_clean(self):
        compiled = compile_expression("a + 2 * 3", {"a": DecimalSpec(8, 0)})
        assert CONSTANT_SUBTREE not in analyze_kernel(compiled.kernel, tree=compiled.tree).rules()
        # The optimiser folded 2 * 3 before emission: no MulOp remains.
        assert compiled.kernel.count(ir.MulOp) == 0
