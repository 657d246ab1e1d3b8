"""Compilation builds only what execution reads.

``compile_expression`` runs the structure pass on every kernel and, on a
kernel with a division, the range and lifetime passes that prove its fast
paths.  The listing (``codegen.render_source``), the optimised SQL text
(``Expr.to_sql``) and the full analyzer report are built by their readers:
EXPLAIN, the plan analyzer's precision audit and the analysis sweep.  The
gate gives the kernel the fast paths the full report would, and a report
built after the fast paths are applied equals the one built before.
"""

import contextlib
import itertools
from collections import Counter
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_kernel, apply_fast_paths
from repro.analysis import analyzer
from repro.analysis.ranges import NATIVE64
from repro.core.decimal.context import DecimalSpec
from repro.core.jit import codegen, expr_ast
from repro.core.jit.pipeline import JitOptions, compile_expression
from repro.engine import Database, explain
from repro.errors import PrecisionOverflowError, TypeInferenceError
from repro.storage.column import Column
from repro.storage.relation import Relation

#: The analyzer passes, as ``repro.analysis.analyzer`` calls them.
PASSES = (
    "check_structure",
    "analyze_ranges",
    "check_lifetime",
    "check_schedule_ir",
    "check_schedule_tree",
)


@contextlib.contextmanager
def counted():
    """Count the analyzer passes, listings, EXPLAIN reports and SQL renders."""
    counts = Counter()

    def counting(key, function):
        def run(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)

        return run

    targets = [(analyzer, name, name) for name in PASSES]
    targets.append((codegen, "render_source", "render_source"))
    targets.append((explain, "analyze_kernel", "analyze_kernel"))
    targets += [(node, "to_sql", "to_sql") for node in expr_ast.Expr.__subclasses__()]
    with contextlib.ExitStack() as stack:
        for owner, attribute, key in targets:
            original = getattr(owner, attribute)
            stack.enter_context(mock.patch.object(owner, attribute, counting(key, original)))
        yield counts


def database():
    a, b = DecimalSpec(9, 2), DecimalSpec(7, 1)
    db = Database(simulate_rows=1_000)
    db.register(
        Relation(
            "t",
            [
                Column.decimal_from_unscaled("a", [125, -3_000, 99_999], a),
                Column.decimal_from_unscaled("b", [15, 2, -7], b),
            ],
        )
    )
    return db


class TestCompileRunsOnlyItsGates:
    def test_a_kernel_without_division_runs_only_the_structure_pass(self):
        db = database()
        with counted() as counts:
            rows = db.execute("SELECT a * b + 1.5 FROM t").rows
        assert counts == Counter({"check_structure": 1})
        assert [str(row[0]) for row in rows] == ["3.375", "-4.500", "-698.493"]

    def test_a_division_also_runs_the_range_and_lifetime_passes(self):
        db = database()
        with counted() as counts:
            rows = db.execute("SELECT a / 7 FROM t").rows
        assert counts == Counter(
            {"check_structure": 1, "analyze_ranges": 1, "check_lifetime": 1}
        )
        assert [str(row[0]) for row in rows] == ["0.178571", "-4.285714", "142.855714"]

    def test_a_cached_kernel_runs_no_pass(self):
        db = database()
        db.execute("SELECT a / 7 FROM t")
        with counted() as counts:
            db.execute("SELECT a / 7 FROM t")
        assert counts == Counter()

    def test_explain_renders_and_analyzes_each_kernel(self):
        db = database()
        with counted() as counts:
            explained = db.explain("SELECT a * b + 1.5, a / 7 FROM t")
        assert len(explained.kernels) == 2
        assert counts["render_source"] == 2
        assert counts["analyze_kernel"] == 2
        [_, division] = explained.kernels
        assert "// native64 fast path" in division.source
        assert NATIVE64 in division.diagnostics.rules()


#: Every combination of the ``JitOptions`` flags.
FLAGS = (
    "alignment_scheduling",
    "constant_folding",
    "constant_alignment",
    "constant_construction",
    "subexpression_elimination",
)
ALL_OPTIONS = [
    JitOptions(**dict(zip(FLAGS, values)))
    for values in itertools.product((True, False), repeat=len(FLAGS))
]

SCHEMA = {
    "a": DecimalSpec(9, 2),
    "b": DecimalSpec(18, 3),
    "i": DecimalSpec(9, 0),
    "j": DecimalSpec(30, 0),
}


@st.composite
def integer_expressions(draw, depth=0):
    """A scale-0 expression, so ``%`` can take it: ``+ - * %`` over i, j."""
    if depth >= 2 or draw(st.booleans()):
        if draw(st.booleans()):
            return draw(st.sampled_from(("i", "j")))
        return str(draw(st.integers(min_value=0, max_value=10**12)))
    op = draw(st.sampled_from(("+", "-", "*", "%")))
    left = draw(integer_expressions(depth + 1))
    right = draw(integer_expressions(depth + 1))
    return f"({left} {op} {right})"


@st.composite
def literals(draw):
    whole = draw(st.integers(min_value=0, max_value=10**6))
    digits = draw(st.integers(min_value=0, max_value=4))
    if not digits:
        return str(whole)
    fraction = draw(st.integers(min_value=0, max_value=10**digits - 1))
    return f"{whole}.{fraction:0{digits}d}"


@st.composite
def expressions(draw, depth=0):
    """``+ - * / %``, ROUND and constant chains over every column."""
    if depth >= 3 or (depth > 0 and draw(st.booleans())):
        leaf = draw(st.integers(min_value=0, max_value=3))
        if leaf == 0:
            return draw(literals())
        if leaf == 1:
            return draw(integer_expressions())
        return draw(st.sampled_from(("a", "b", "i")))
    shape = draw(st.sampled_from(("arithmetic", "divide", "modulo", "round", "chain")))
    if shape == "modulo":
        return f"({draw(integer_expressions())} % {draw(integer_expressions())})"
    inner = draw(expressions(depth + 1))
    if shape == "round":
        return f"ROUND({inner}, {draw(st.integers(min_value=0, max_value=4))})"
    if shape == "chain":
        first, second = draw(literals()), draw(literals())
        op1, op2 = draw(st.sampled_from(("+", "-", "*"))), draw(st.sampled_from(("+", "-", "*")))
        return f"({first} {op1} {second} {op2} {inner})"
    if shape == "divide":
        divisor = draw(st.one_of(literals(), integer_expressions(), expressions(depth + 1)))
        return f"({inner} / {divisor})"
    op = draw(st.sampled_from(("+", "-", "*")))
    return f"({inner} {op} {draw(expressions(depth + 1))})"


@settings(derandomize=True, max_examples=100, deadline=None)
@given(expression=expressions())
def test_the_gate_matches_the_full_analyzer(expression):
    """Under every flag combination, compile applies the fast paths the
    full report on the kernel before them allows, and the report built on
    the compiled kernel is the same."""
    generate = codegen.generate_kernel
    generated = []

    def capture(*args, **kwargs):
        generated.append(generate(*args, **kwargs))
        return generated[-1]

    for options in ALL_OPTIONS:
        generated.clear()
        with mock.patch.object(codegen, "generate_kernel", capture):
            try:
                compiled = compile_expression(expression, SCHEMA, options)
            except (TypeInferenceError, PrecisionOverflowError):
                continue  # not a valid expression under this schema
        [raw] = generated
        before = analyze_kernel(raw, tree=compiled.tree)
        expected = raw
        if before.fast_paths and not before.has_errors:
            expected = apply_fast_paths(raw, before.fast_paths)
        assert compiled.kernel.instructions == expected.instructions
        after = analyze_kernel(compiled.kernel, tree=compiled.tree)
        assert after.diagnostics == before.diagnostics
        assert after.fast_paths == before.fast_paths
