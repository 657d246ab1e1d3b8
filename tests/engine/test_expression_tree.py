"""One expression tree from SQL text to kernel.

The SQL parser runs the JIT grammar once per SELECT expression and
aggregate argument; planning, the kernel cache, the compiler, plan
analysis and EXPLAIN read the tree it built and never parse again.  The
compiler builds its own nodes, so a tree a cached query holds compiles the
same way every time, under any schema.
"""

import pytest

from repro.core.decimal.context import DecimalSpec
from repro.core.jit import parser as jit_parser
from repro.core.jit.expr_ast import ColumnRef, Expr, walk
from repro.core.jit.parser import parse_expression
from repro.core.jit.pipeline import JitOptions, KernelCache, compile_expression
from repro.engine import Database, session
from repro.engine.sql.parser import parse_query
from repro.errors import ParseError, TypeInferenceError

SQL = (
    "SELECT g, SUM(a * (1 + b)) AS s, MIN(a - 0.5), COUNT(*), COUNT(b) "
    "FROM t WHERE a > 0.25 GROUP BY g"
)
#: Expressions in SQL the grammar reads: g, the SUM, MIN and COUNT(b) arguments.
SQL_EXPRESSIONS = 4


def make_db() -> Database:
    db = Database()
    db.create_table(
        "t",
        {"g": "CHAR(1)", "a": "DECIMAL(8, 2)", "b": "DECIMAL(6, 3)"},
        rows=[("x", "1.50", "0.125"), ("y", "2.25", "1.000"), ("x", "0.75", "2.500")],
    )
    return db


@pytest.fixture()
def grammar(monkeypatch):
    """Counts grammar entries inside and outside ``Database``'s parse_query."""
    counts = {"parse": 0, "elsewhere": 0}
    inside = []
    original = jit_parser._Parser

    class Counting(original):
        def __init__(self, *args, **kwargs):
            counts["parse" if inside else "elsewhere"] += 1
            super().__init__(*args, **kwargs)

    real_parse_query = session.parse_query

    def parse_query_counted(sql):
        inside.append(sql)
        try:
            return real_parse_query(sql)
        finally:
            inside.pop()

    monkeypatch.setattr(jit_parser, "_Parser", Counting)
    monkeypatch.setattr(session, "parse_query", parse_query_counted)

    def take():
        taken = dict(counts)
        counts.update(parse=0, elsewhere=0)
        return taken

    return take


class TestParsedOnce:
    def test_cold_database_parses_each_expression_once(self, grammar):
        db = make_db()
        result = db.execute(SQL)
        assert result.report.kernels_compiled == 2
        assert grammar() == {"parse": SQL_EXPRESSIONS, "elsewhere": 0}

    def test_cleared_kernel_cache_compiles_without_parsing(self, grammar):
        db = make_db()
        db.execute(SQL)
        grammar()
        db.kernel_cache.clear()
        result = db.execute(SQL)
        assert result.report.kernels_compiled == 2
        assert grammar() == {"parse": 0, "elsewhere": 0}

    def test_replan_after_append_reads_the_cached_trees(self, grammar):
        db = make_db()
        db.execute(SQL)
        grammar()
        db.append("t", [("y", "3.00", "0.500")])
        planned = db.plan_cache.misses
        db.execute(SQL)
        assert db.plan_cache.misses == planned + 1  # planned again
        assert grammar() == {"parse": 0, "elsewhere": 0}

    def test_explain_parses_in_parse_query_only(self, grammar):
        db = make_db()
        explained = db.explain(SQL)
        assert len(explained.kernels) == 2
        assert grammar() == {"parse": SQL_EXPRESSIONS, "elsewhere": 0}


def snapshot(tree: Expr):
    """Every node's identity and fields, children by identity."""
    return [
        (
            id(node),
            type(node).__name__,
            {
                key: id(value) if isinstance(value, Expr) else value
                for key, value in vars(node).items()
            },
        )
        for node in walk(tree)
    ]


SCHEMA_A = {"a": DecimalSpec(8, 2), "b": DecimalSpec(6, 3)}
SCHEMA_B = {"a": DecimalSpec(30, 7), "b": DecimalSpec(4, 0)}
OPTIONS = [JitOptions(), JitOptions(constant_folding=False, alignment_scheduling=False)]


class TestCompilerNeverWritesTheTree:
    @pytest.mark.parametrize("options", OPTIONS, ids=["all-on", "folding-off"])
    @pytest.mark.parametrize(
        "text",
        [
            "1.50 + a",
            "a * 0.0 + b",
            "a - 2.250 * b + 0.10",
            "-(a + 1.5) * (b - 0.05)",
            "ROUND(a / (b + 1.000), 2) + POWER(b, 3)",
        ],
    )
    def test_one_tree_compiles_like_fresh_text(self, text, options):
        tree = parse_query(f"SELECT {text} FROM t").select_items[0].tree
        before = snapshot(tree)
        cache = KernelCache()
        first, _ = cache.compile(text, SCHEMA_A, options, tree=tree)
        cache.clear()
        second, cached = cache.compile(text, SCHEMA_A, options, tree=tree)
        assert not cached
        third, _ = cache.compile(text, SCHEMA_B, options, tree=tree)
        for compiled, schema in ((first, SCHEMA_A), (second, SCHEMA_A), (third, SCHEMA_B)):
            fresh = compile_expression(text, schema, options)
            assert compiled.kernel.source == fresh.kernel.source
            assert compiled.kernel.result_spec == fresh.kernel.result_spec
            assert compiled.alignments_before == fresh.alignments_before
            assert compiled.alignments_after == fresh.alignments_after
        assert snapshot(tree) == before

    def test_compile_expression_takes_a_tree(self):
        tree = parse_expression("a * 1.50")
        before = snapshot(tree)
        compiled = compile_expression(tree, SCHEMA_A)
        assert compiled.kernel.source == compile_expression("a * 1.50", SCHEMA_A).kernel.source
        assert snapshot(tree) == before


class TestParenthesisedColumn:
    """``(a)`` is the column ``a``: no identity kernel, same rows and types."""

    def test_projection(self):
        db = make_db()
        plain = db.execute("SELECT a FROM t")
        result = db.execute("SELECT (a) FROM t")
        assert result.report.kernels_compiled == 0
        assert len(db.kernel_cache) == 0
        assert result.rows == plain.rows
        assert [v.spec for (v,) in result.rows] == [v.spec for (v,) in plain.rows]

    def test_aggregate_argument(self):
        db = make_db()
        plain = db.execute("SELECT SUM(a) FROM t")
        result = db.execute("SELECT SUM((a)) FROM t")
        assert result.report.kernels_compiled == 0
        assert result.rows == plain.rows
        assert result.rows[0][0].spec == plain.rows[0][0].spec


class TestAggregateArguments:
    def test_bad_count_argument_is_a_parse_error(self):
        with pytest.raises(ParseError):
            make_db().execute("SELECT COUNT(a +) FROM t")

    def test_count_of_unknown_column_fails_like_sum(self):
        db = make_db()
        with pytest.raises(TypeInferenceError, match="unknown column 'nosuch'") as summed:
            db.execute("SELECT SUM(nosuch) FROM t")
        with pytest.raises(TypeInferenceError) as counted:
            db.execute("SELECT COUNT(nosuch) FROM t")
        assert str(counted.value) == str(summed.value)

    def test_unknown_projected_column(self):
        with pytest.raises(TypeInferenceError, match="unknown column 'nosuch'"):
            make_db().execute("SELECT nosuch FROM t")

    def test_sum_of_star_is_a_parse_error(self):
        with pytest.raises(ParseError):
            make_db().execute("SELECT SUM(*) FROM t")

    def test_count_keeps_its_column_in_the_scan(self):
        db = make_db()
        scan = db.explain("SELECT COUNT(b) FROM t").operators[0]
        assert scan.startswith("Scan t [b]")
        assert db.execute("SELECT COUNT(b) FROM t").rows[0][0].unscaled == 3

    def test_bare_argument_tree_is_the_column(self):
        (item,) = parse_query("SELECT MAX(( b )) FROM t").select_items
        assert isinstance(item.tree, ColumnRef) and item.tree.name == "b"
        assert item.text == "( b )"
