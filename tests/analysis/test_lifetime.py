"""Tests for the def-use/lifetime pass (dead code, pool discipline)."""

import dataclasses

from repro.analysis import analyze_kernel
from repro.analysis.lifetime import (
    DEAD_STORE,
    DOUBLE_DEFINE,
    PEAK_WORDS_MISMATCH,
    UNUSED_LOAD,
    USE_AFTER_RELEASE,
    check_lifetime,
)
from repro.core.decimal.context import DecimalSpec
from repro.core.jit import ir
from repro.core.jit.pipeline import JitOptions, compile_expression

SPEC = DecimalSpec(6, 1)


def _kernel(instructions, released_after=None, register_words=8):
    return ir.KernelIR(
        name="hand",
        instructions=instructions,
        input_columns={"a": SPEC, "b": SPEC},
        result_spec=instructions[-1].spec,
        register_words=register_words,
        released_after=released_after,
    )


class TestDeadCode:
    def test_dead_store(self):
        kernel = _kernel(
            [
                ir.LoadColumn(0, SPEC, "a"),
                ir.LoadColumn(1, SPEC, "b"),
                ir.AddOp(2, DecimalSpec(7, 1), 0, 1),  # computed, never read
                ir.StoreResult(0, SPEC, 0),
            ]
        )
        findings = check_lifetime(kernel)
        assert DEAD_STORE in {d.rule for d in findings}
        [dead] = [d for d in findings if d.rule == DEAD_STORE]
        assert dead.instruction == 2

    def test_unused_load(self):
        kernel = _kernel(
            [
                ir.LoadColumn(0, SPEC, "a"),
                ir.LoadColumn(1, SPEC, "b"),  # never read
                ir.StoreResult(0, SPEC, 0),
            ]
        )
        findings = check_lifetime(kernel)
        assert UNUSED_LOAD in {d.rule for d in findings}

    def test_double_define_is_an_error(self):
        kernel = _kernel(
            [
                ir.LoadColumn(0, SPEC, "a"),
                ir.LoadColumn(0, SPEC, "b"),  # redefines r0
                ir.StoreResult(0, SPEC, 0),
            ]
        )
        [double] = [d for d in check_lifetime(kernel) if d.rule == DOUBLE_DEFINE]
        assert double.instruction == 1

    def test_use_after_release_is_an_error(self):
        kernel = _kernel(
            [
                ir.LoadColumn(0, SPEC, "a"),
                ir.NegOp(1, SPEC, 0),
                ir.NegOp(2, SPEC, 0),  # r0 was released after instruction 1
                ir.StoreResult(2, SPEC, 2),
            ],
            released_after={0: 1, 1: 3},
        )
        findings = check_lifetime(kernel)
        [stale] = [d for d in findings if d.rule == USE_AFTER_RELEASE]
        assert stale.instruction == 2


class TestGeneratedKernels:
    def test_compiled_kernels_are_clean(self):
        for expression in ("a + b", "a * b - 2", "a / 3 + b"):
            for options in (JitOptions(), JitOptions(subexpression_elimination=True)):
                kernel = compile_expression(
                    expression,
                    {"a": DecimalSpec(10, 2), "b": DecimalSpec(8, 1)},
                    options,
                ).kernel
                assert check_lifetime(kernel) == [], expression

    def test_tampered_register_words_flags_peak_mismatch(self):
        kernel = compile_expression(
            "a + b", {"a": DecimalSpec(10, 2), "b": DecimalSpec(8, 1)}
        ).kernel
        kernel = dataclasses.replace(kernel, register_words=kernel.register_words + 3)
        report = analyze_kernel(kernel)
        assert PEAK_WORDS_MISMATCH in report.rules()
        assert not report.has_errors  # a width misestimate is waste, not unsoundness
