"""Tests for the kernel IR structural verifier (``check_structure``) and
the JIT pipeline's refusal of structurally broken kernels."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.structure import check_structure
from repro.core.decimal.context import DecimalSpec
from repro.core.jit import codegen, ir
from repro.core.jit.pipeline import JitOptions, compile_expression
from repro.errors import CodegenError

SCHEMA = {"a": DecimalSpec(10, 2), "b": DecimalSpec(8, 1)}


def valid_kernel():
    return compile_expression("a + b * 2", SCHEMA).kernel


def first_finding(kernel) -> str:
    findings = check_structure(kernel)
    assert findings, "kernel should be structurally broken"
    return findings[0].message


class TestAcceptsGeneratedKernels:
    @pytest.mark.parametrize(
        "expression",
        ["a + b", "a - b", "a * b", "a / b", "-a + 1.5", "a + b + a * (b - 2)"],
    )
    def test_generated_kernels_verify(self, expression):
        kernel = compile_expression(expression, SCHEMA).kernel
        assert check_structure(kernel) == []

    def test_modulo_kernel(self):
        schema = {"x": DecimalSpec(18, 0), "n": DecimalSpec(18, 0)}
        assert check_structure(compile_expression("x * x % n", schema).kernel) == []

    @given(st.sampled_from(["a+b", "a*b+1", "(a-b)*(a+b)", "a/b+a"]))
    @settings(max_examples=10, deadline=None)
    def test_option_variants_verify(self, expression):
        for options in (
            JitOptions(),
            JitOptions(alignment_scheduling=False),
            JitOptions(subexpression_elimination=True),
            JitOptions(constant_construction=False, constant_alignment=False),
        ):
            kernel = compile_expression(expression, SCHEMA, options).kernel
            assert check_structure(kernel) == []


class TestRejectsBrokenKernels:
    def test_undefined_register(self):
        kernel = valid_kernel()
        kernel = dataclasses.replace(
            kernel,
            instructions=(ir.AddOp(99, DecimalSpec(4, 0), 50, 51), *kernel.instructions),
        )
        assert "undefined register" in first_finding(kernel)

    def test_unaligned_addition(self):
        spec_a = DecimalSpec(6, 2)
        spec_b = DecimalSpec(6, 1)
        kernel = ir.KernelIR(
            name="bad",
            expression_sql="a + b",
            instructions=[
                ir.LoadColumn(0, spec_a, "a"),
                ir.LoadColumn(1, spec_b, "b"),
                ir.AddOp(2, DecimalSpec(7, 2), 0, 1),  # b never aligned
                ir.StoreResult(2, DecimalSpec(7, 2), 2),
            ],
            input_columns={"a": spec_a, "b": spec_b},
            result_spec=DecimalSpec(7, 2),
            register_words=3,
        )
        assert "not scale-aligned" in first_finding(kernel)

    def test_missing_store(self):
        kernel = valid_kernel()
        kernel = dataclasses.replace(
            kernel,
            instructions=[i for i in kernel.instructions if not isinstance(i, ir.StoreResult)],
        )
        assert "exactly one result" in first_finding(kernel)

    def test_wrong_align_exponent(self):
        spec = DecimalSpec(6, 1)
        kernel = ir.KernelIR(
            name="bad",
            expression_sql="a",
            instructions=[
                ir.LoadColumn(0, spec, "a"),
                ir.Align(1, DecimalSpec(9, 3), 0, 1),  # +1 but scale jumps 2
                ir.StoreResult(1, DecimalSpec(9, 3), 1),
            ],
            input_columns={"a": spec},
            result_spec=DecimalSpec(9, 3),
            register_words=3,
        )
        assert "Align scale mismatch" in first_finding(kernel)

    def test_overflowing_constant(self):
        kernel = ir.KernelIR(
            name="bad",
            expression_sql="9999",
            instructions=[
                ir.LoadConst(0, DecimalSpec(2, 0), False, 9999),
                ir.StoreResult(0, DecimalSpec(2, 0), 0),
            ],
            input_columns={},
            result_spec=DecimalSpec(2, 0),
            register_words=1,
        )
        assert "does not fit" in first_finding(kernel)

    def test_fractional_modulo(self):
        spec = DecimalSpec(6, 1)
        kernel = ir.KernelIR(
            name="bad",
            expression_sql="a % a",
            instructions=[
                ir.LoadColumn(0, spec, "a"),
                ir.ModOp(1, DecimalSpec(6, 0), 0, 0),
                ir.StoreResult(1, DecimalSpec(6, 0), 1),
            ],
            input_columns={"a": spec},
            result_spec=DecimalSpec(6, 0),
            register_words=2,
        )
        assert "integer" in first_finding(kernel)

    def test_store_spec_mismatch(self):
        kernel = dataclasses.replace(valid_kernel(), result_spec=DecimalSpec(30, 5))
        assert "result spec" in first_finding(kernel)


class TestCompileRejectsBrokenCodegen:
    def test_broken_generated_kernel_raises_codegen_error(self, monkeypatch):
        """A code generator bug still fails the compile, before analysis
        results or fast paths are attached to the kernel."""
        generate = codegen.generate_kernel

        def broken(*args, **kwargs):
            kernel = generate(*args, **kwargs)
            return dataclasses.replace(
                kernel,
                instructions=(ir.AddOp(99, DecimalSpec(4, 0), 50, 51), *kernel.instructions),
            )

        monkeypatch.setattr(codegen, "generate_kernel", broken)
        with pytest.raises(CodegenError, match="undefined register"):
            compile_expression("a + b * 2", SCHEMA)


class TestCollectAllFindings:
    def multi_problem_kernel(self):
        spec = DecimalSpec(6, 1)
        return ir.KernelIR(
            name="bad",
            expression_sql="<multi>",
            instructions=[
                ir.LoadConst(0, DecimalSpec(2, 0), False, 9999),  # does not fit
                ir.LoadColumn(1, spec, "ghost"),  # column not in input_columns
                ir.NegOp(2, spec, 7),  # register 7 never defined
                ir.StoreResult(2, spec, 2),
            ],
            input_columns={"a": spec},
            result_spec=spec,
            register_words=4,
        )

    def test_non_strict_collects_every_finding(self):
        findings = check_structure(self.multi_problem_kernel())
        rules = {finding.rule for finding in findings}
        assert {"STRUCT001", "STRUCT002", "STRUCT003"} <= rules
        assert all(finding.severity.name == "ERROR" for finding in findings)

    def test_strict_raises_the_first_finding(self, monkeypatch):
        """compile_expression raises the first STRUCT finding's message."""
        kernel = self.multi_problem_kernel()
        monkeypatch.setattr(codegen, "generate_kernel", lambda *args, **kwargs: kernel)
        with pytest.raises(CodegenError) as excinfo:
            compile_expression("a + b", SCHEMA)
        assert str(excinfo.value) == first_finding(kernel)

    def test_valid_kernel_returns_no_findings(self):
        assert check_structure(valid_kernel()) == []
