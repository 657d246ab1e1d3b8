"""Tests for n-ary transforms, alignment scheduling and constant folding."""


import pytest

from repro.core.decimal.context import DecimalSpec
from repro.core.jit import alignment, nary, type_inference
from repro.core.jit.expr_ast import BinaryOp, Literal, NaryAdd, NaryMul, UnaryOp
from repro.core.jit.parser import parse_expression
from repro.core.jit.pipeline import JitOptions, compile_expression, optimize


def nary_of(text, schema):
    tree = parse_expression(text)
    type_inference.infer(tree, schema)
    out = nary.to_nary(tree)
    type_inference.infer(out, schema)
    return out


class TestNary:
    def test_collapses_addition_chains(self):
        schema = {"a": DecimalSpec(4, 1)}
        tree = nary_of("a + a + a + a", schema)
        assert isinstance(tree, NaryAdd) and len(tree.terms) == 4

    def test_subtraction_becomes_negated_addition(self):
        schema = {"a": DecimalSpec(4, 1), "b": DecimalSpec(4, 2)}
        tree = nary_of("a - b", schema)
        assert isinstance(tree, NaryAdd)
        assert isinstance(tree.terms[1], UnaryOp) and tree.terms[1].op == "-"

    def test_mul_chain_collapses(self):
        schema = {"a": DecimalSpec(4, 1)}
        tree = nary_of("a * a * 2", schema)
        assert isinstance(tree, NaryMul) and len(tree.factors) == 3

    def test_roundtrip_to_binary(self):
        schema = {"a": DecimalSpec(4, 1), "b": DecimalSpec(4, 2)}
        tree = nary_of("a + b - a", schema)
        binary = nary.to_binary(tree)
        type_inference.infer(binary, schema)
        # x + (-y) folds back into binary subtraction.
        assert binary.to_sql() == "((a + b) - a)"

    def test_division_stays_binary(self):
        schema = {"a": DecimalSpec(4, 1), "b": DecimalSpec(4, 2)}
        tree = nary_of("a / b + a", schema)
        assert isinstance(tree, NaryAdd)
        assert isinstance(tree.terms[0], BinaryOp) and tree.terms[0].op == "/"


class TestAlignmentScheduling:
    SCHEMA = {
        "a": DecimalSpec(12, 1),
        "b": DecimalSpec(17, 11),
    }

    def test_figure10_shape(self):
        """a+b+a: b (large scale) moves to the end; alignments 2 -> 1."""
        tree = nary_of("a + b + a", self.SCHEMA)
        before = alignment.count_alignments(tree)
        scheduled = alignment.schedule(tree)
        after = alignment.count_alignments(scheduled)
        assert (before, after) == (2, 1)
        assert alignment.scale_order(scheduled) == [1, 1, 11]

    @pytest.mark.parametrize(
        "expr,before,after",
        [
            ("a + b + a", 2, 1),
            ("a + b + a + a + a", 4, 1),
            ("a + b + a + a + a + a + a", 6, 1),
        ],
    )
    def test_figure10_alignment_counts(self, expr, before, after):
        """The exact alignment reductions of the Figure 10 experiment."""
        compiled = compile_expression(expr, self.SCHEMA)
        assert compiled.alignments_before == before
        assert compiled.alignments_after == after

    def test_mul_scale_is_sum(self):
        schema = {"b": DecimalSpec(12, 5), "c": DecimalSpec(12, 5)}
        tree = nary_of("b * c", schema)
        assert tree.effective_scale == 10

    def test_figure6_example(self):
        """a + b*c + d - e sorts to scales [2, 2, 2, 10]; 3 -> 1 aligns."""
        schema = {
            "a": DecimalSpec(12, 2),
            "b": DecimalSpec(12, 5),
            "c": DecimalSpec(12, 5),
            "d": DecimalSpec(12, 2),
            "e": DecimalSpec(12, 2),
        }
        compiled = compile_expression("a + b * c + d - e", schema)
        assert compiled.alignments_before == 3
        assert compiled.alignments_after == 1

    def test_scheduling_preserves_value(self):
        """Reordering addends must not change results (exact arithmetic)."""
        from repro.core.decimal.vectorized import DecimalVector
        from repro.gpusim import execute

        schema = self.SCHEMA
        a_vals = [15, -7, 99999]
        b_vals = [12345678901, -1, 10**16]
        va = DecimalVector.from_unscaled(a_vals, schema["a"])
        vb = DecimalVector.from_unscaled(b_vals, schema["b"])
        columns = {"a": va.to_compact(), "b": vb.to_compact()}
        for scheduling in (True, False):
            compiled = compile_expression(
                "a + b + a", schema, JitOptions(alignment_scheduling=scheduling)
            )
            run = execute(compiled.kernel, columns, 3)
            # Exact check: a + b + a at scale 11.
            expected = [
                2 * a * 10**10 + b for a, b in zip(a_vals, b_vals)
            ]
            assert run.result.to_unscaled() == expected


class TestConstantFolding:
    SCHEMA = {
        "a": DecimalSpec(12, 10),
        "b": DecimalSpec(12, 10),
        "c": DecimalSpec(12, 3),
        "d": DecimalSpec(12, 2),
    }

    def test_sum_constants_fold(self):
        """1 + a + 2 + 11 -> 14 + a (Figure 12, first expression)."""
        compiled = compile_expression("1 + a + 2 + 11", self.SCHEMA)
        adds = compiled.tree.to_sql().count("+")
        assert adds == 1
        assert "14" in compiled.tree.to_sql()

    def test_full_cancellation(self):
        """1 + a + 2 - 3 -> a (Figure 12, second expression)."""
        compiled = compile_expression("1 + a + 2 - 3", self.SCHEMA)
        assert compiled.tree.to_sql() == "a"

    def test_mul_constants_fold(self):
        """0.25 * (a + b) * 4 -> a + b (Figure 12, third expression)."""
        compiled = compile_expression("0.25 * (a + b) * 4", self.SCHEMA)
        assert compiled.tree.to_sql() == "(a + b)"

    def test_zero_plus_shortcut(self):
        compiled = compile_expression("0 + c", self.SCHEMA)
        assert compiled.tree.to_sql() == "c"

    def test_one_times_shortcut(self):
        compiled = compile_expression("1 * c", self.SCHEMA)
        assert compiled.tree.to_sql() == "c"

    def test_zero_times_folds_to_zero(self):
        compiled = compile_expression("0 * c", self.SCHEMA)
        assert compiled.tree.to_sql() == "0"

    def test_unary_plus_shortcut(self):
        compiled = compile_expression("+c", self.SCHEMA)
        assert compiled.tree.to_sql() == "c"

    def test_figure7_example(self):
        """1 + a + b*(5 + c - 5) + d + 1.23: constants fold, 0+c shortcut."""
        schema = {
            "a": DecimalSpec(12, 1),
            "b": DecimalSpec(12, 3),
            "c": DecimalSpec(12, 3),
            "d": DecimalSpec(12, 2),
        }
        compiled = compile_expression("1 + a + b * (5 + c - 5) + d + 1.23", schema)
        sql = compiled.tree.to_sql()
        assert "2.23" in sql  # 1 + 1.23 folded
        assert "5" not in sql  # 5 - 5 cancelled, 0 + c shortcut
        assert "(b * c)" in sql

    def test_constant_alignment_to_neighbour_scale(self):
        """Figure 7: the folded 2.23 pre-aligns to scale 3 at compile time."""
        schema = {
            "a": DecimalSpec(12, 1),
            "b": DecimalSpec(12, 3),
            "c": DecimalSpec(12, 3),
            "d": DecimalSpec(12, 2),
        }
        compiled = compile_expression("1 + a + b * (5 + c - 5) + d + 1.23", schema)
        literals = [
            node
            for node in _walk(compiled.tree)
            if isinstance(node, Literal)
        ]
        assert len(literals) == 1
        # Aligned to the minimum >= its own scale among siblings (d's 2).
        assert literals[0].spec.scale == 2

    def test_constant_division_folds_when_exact(self):
        compiled = compile_expression("a + 1 / 4", self.SCHEMA)
        assert "0.25" in compiled.tree.to_sql()

    def test_inexact_constant_division_not_folded(self):
        compiled = compile_expression("a + 1 / 3", self.SCHEMA)
        assert "/" in compiled.tree.to_sql()

    def test_folding_disabled(self):
        options = JitOptions(constant_folding=False, constant_alignment=False)
        compiled = compile_expression("1 + a + 2 + 11", self.SCHEMA, options)
        assert compiled.tree.to_sql().count("+") == 3


class TestFoldedConstantScale:
    """A folded constant keeps the scale of the literals it replaces."""

    SCHEMA = {"a": DecimalSpec(2, 0), "b": DecimalSpec(4, 2)}
    NO_FOLDING = JitOptions(constant_folding=False, constant_alignment=False)

    def test_trailing_zero_keeps_its_scale(self):
        """0.10 * a stays at scale 2, so it adds to 0.01 unaligned."""
        compiled = compile_expression("a + 0.01 + 0.10 * a", self.SCHEMA)
        assert (compiled.alignments_before, compiled.alignments_after) == (1, 1)
        assert compiled.kernel.result_spec.scale == 2

    def test_product_of_constants_keeps_the_summed_scale(self):
        """44 * 493.40 folds to one constant at scale 0 + 2."""
        folded = compile_expression("b * 44 * 493.40 - a", self.SCHEMA)
        unfolded = compile_expression("b * 44 * 493.40 - a", self.SCHEMA, self.NO_FOLDING)
        assert folded.kernel.result_spec.scale == unfolded.kernel.result_spec.scale == 4
        assert folded.alignments_after <= folded.alignments_before

    def test_unit_factor_with_a_scale_stays_in_a_sum(self):
        """Dropping 1.00 would put a at scale 0 next to b's 2: one alignment."""
        compiled = compile_expression("b + 1.00 * a", self.SCHEMA)
        assert (compiled.alignments_before, compiled.alignments_after) == (0, 0)

    def test_folding_does_not_change_the_result_type(self):
        schema = {"l_tax": DecimalSpec(15, 2)}
        expression = "(l_tax * (574.48 * l_tax)) * 626.25"
        folded = compile_expression(expression, schema)
        unfolded = compile_expression(expression, schema, self.NO_FOLDING)
        assert folded.kernel.result_spec == unfolded.kernel.result_spec


def _walk(expr):
    from repro.core.jit.expr_ast import walk

    return walk(expr)


class TestExpandPowersPurity:
    """expand_powers is value-oriented like every other pass (regression:
    it used to rewrite the caller's tree in place via setattr, forcing
    compile_expression to defensively re-parse the expression text)."""

    SCHEMA = {"x": DecimalSpec(8, 2), "y": DecimalSpec(8, 2)}

    def test_does_not_mutate_the_input_tree(self):
        from repro.core.jit.expr_ast import FuncCall
        from repro.core.jit.pipeline import expand_powers

        tree = parse_expression("POWER(x, 5) + y * POWER(x, 2)")
        before = tree.to_sql()
        expanded = expand_powers(tree)
        assert tree.to_sql() == before
        assert any(
            isinstance(node, FuncCall) and node.function == "POWER"
            for node in _walk(tree)
        )
        assert not any(
            isinstance(node, FuncCall) and node.function == "POWER"
            for node in _walk(expanded)
        )

    def test_one_parse_feeds_naive_count_and_optimizer(self):
        """compile_expression no longer needs per-stage re-parses: compiling
        twice from the same text yields identical kernels and alignment
        counts (the optimiser saw an unmutated tree both times)."""
        first = compile_expression("POWER(x, 4) + y", self.SCHEMA)
        second = compile_expression("POWER(x, 4) + y", self.SCHEMA)
        assert first.kernel.source == second.kernel.source
        assert first.alignments_before == second.alignments_before
        assert first.alignments_after == second.alignments_after

    def test_optimize_leaves_caller_tree_reusable(self):
        tree = parse_expression("POWER(x, 3)")
        type_inference.infer(tree, self.SCHEMA)

        def optimized():
            typed = nary.to_nary(tree)
            type_inference.infer(typed, self.SCHEMA)
            return optimize(typed, self.SCHEMA, JitOptions()).to_sql()

        # The optimiser rewrites only its n-ary copy, so the caller's tree
        # still round-trips: a second copy of the same object optimises alike.
        first = optimized()
        assert optimized() == first
        assert first == optimize(
            nary_of("POWER(x, 3)", self.SCHEMA), self.SCHEMA, JitOptions()
        ).to_sql()


def _walk(expr):
    yield expr
    for child in expr.children():
        yield from _walk(child)
