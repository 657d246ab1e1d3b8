"""Join reordering: bit-exact under every permutation, golden TPC-H plans."""

import random

import pytest

from repro.engine import Database
from repro.engine.plan.cost import OptimizerConfig
from repro.storage import tpch
from repro.workloads.tpch_queries import Q5_SQL, Q10_SQL

TAGS = ["aa", "bb", "cc"]


def make_multi_join_db(rng: random.Random) -> Database:
    db = Database(simulate_rows=1_000_000)
    db.create_table(
        "fact",
        {
            "f_k1": "INT",
            "f_k2": "INT",
            "f_amount": "DECIMAL(12, 2)",
            "f_tag": "CHAR(2)",
        },
        rows=[
            (
                rng.randrange(6),
                rng.randrange(4),
                f"{rng.randrange(1000)}.{rng.randrange(100):02d}",
                rng.choice(TAGS),
            )
            for _ in range(60)
        ],
    )
    db.create_table(
        "dima",
        {"a_key": "INT", "a_weight": "DECIMAL(8, 2)", "a_code": "INT"},
        rows=[
            (key, f"{rng.randrange(50)}.{rng.randrange(100):02d}", key % 3)
            for key in range(6)
        ],
    )
    # Selective by construction: only 2 of the 4 fact key values match, so
    # joining dimb first halves the intermediate -- the reorderer's win.
    db.create_table(
        "dimb",
        {"b_key": "INT", "b_weight": "DECIMAL(8, 2)"},
        rows=[(key, f"{rng.randrange(50)}.{rng.randrange(100):02d}") for key in range(2)],
    )
    db.create_table(
        "dimc",
        {"c_code": "INT", "c_weight": "DECIMAL(8, 2)"},
        rows=[(code, f"{rng.randrange(9)}.{rng.randrange(100):02d}") for code in range(3)],
    )
    return db


#: Every valid SQL ordering of the three joins (dimc needs a_code, so it
#: must come after dima).
JOIN_CLAUSES = {
    "a": "JOIN dima ON f_k1 = a_key",
    "b": "JOIN dimb ON f_k2 = b_key",
    "c": "JOIN dimc ON a_code = c_code",
}
VALID_ORDERS = ["abc", "acb", "bac"]


def multi_join_sql(order: str, where: str = "") -> str:
    joins = " ".join(JOIN_CLAUSES[key] for key in order)
    return (
        "SELECT f_tag, SUM(f_amount * a_weight) AS total, "
        "SUM(b_weight * c_weight) AS cross_w "
        f"FROM fact {joins}{where} GROUP BY f_tag ORDER BY f_tag"
    )


@pytest.mark.parametrize("seed", range(10))
def test_every_join_permutation_is_bit_exact(seed):
    """All valid SQL join orders x optimizer on/off give identical rows."""
    rng = random.Random(4200 + seed)
    db = make_multi_join_db(rng)
    where = ""
    if rng.random() < 0.6:
        where = f" WHERE f_amount > {rng.randrange(500)}.00"
    results = []
    for order in VALID_ORDERS:
        sql = multi_join_sql(order, where)
        on = db.execute(sql)
        off = db.execute(sql, optimizer=OptimizerConfig.off())
        assert on.column_names == off.column_names, sql
        assert on.rows == off.rows, sql
        results.append(on.rows)
    for rows in results[1:]:
        assert rows == results[0]


def test_reorder_fires_and_reports_cardinalities():
    rng = random.Random(99)
    db = make_multi_join_db(rng)
    # Parse order joins dima (key-complete, keeps all 60 rows) before the
    # selective dimb; the reorderer must pull dimb to the front.
    explain = db.explain(multi_join_sql("abc"))
    rewrites = [line for line in explain.rewrites if line.startswith("join-reorder")]
    assert rewrites, explain.rewrites
    assert "est intermediate rows" in rewrites[0]
    assert _join_tables(explain)[0] == "dimb"


def test_no_reorder_without_aggregate():
    """The bit-exactness gate: plain join queries keep parse order.

    Hash joins emit left-major row order and stable sorts preserve ties,
    so reordering a non-aggregated query could permute output rows.
    """
    rng = random.Random(7)
    db = make_multi_join_db(rng)
    sql = (
        "SELECT f_tag, a_weight, b_weight FROM fact "
        "JOIN dima ON f_k1 = a_key JOIN dimb ON f_k2 = b_key "
        "ORDER BY f_tag"
    )
    explain = db.explain(sql)
    assert not any(line.startswith("join-reorder") for line in explain.rewrites)
    joins = _join_tables(explain)
    assert joins == ["dima", "dimb"]


def _join_tables(explain) -> list:
    return [
        line.split()[1]
        for line in explain.operators
        if line.startswith(("HashJoin", "NestedLoopJoin"))
    ]


def make_tpch_db(rows: int = 1500) -> Database:
    order_count = max(rows // 5, 50)
    db = Database(simulate_rows=10_000_000)
    db.register(tpch.lineitem_with_orderkeys(rows=rows, seed=7, order_count=order_count))
    db.register(tpch.orders(rows=order_count, seed=17))
    db.register(tpch.customer(rows=max(order_count // 8, 10), seed=19))
    db.register(tpch.nation())
    return db


class TestTpchGoldenPlans:
    def test_q5_reorders_to_cheaper_join_order(self):
        db = make_tpch_db()
        explain = db.explain(Q5_SQL)
        # Parse order is lineitem -> customer -> nation (the worst valid
        # order); the reorderer must defer the big lineitem join to last.
        assert _join_tables(explain) == ["customer", "nation", "lineitem"]
        assert any(line.startswith("join-reorder") for line in explain.rewrites)

    def test_q5_bit_exact_vs_optimizer_off(self):
        db = make_tpch_db()
        on = db.execute(Q5_SQL, include_scan=False)
        db.kernel_cache.clear()
        off = db.execute(Q5_SQL, include_scan=False, optimizer=OptimizerConfig.off())
        assert _join_tables(db.explain(Q5_SQL, optimizer=OptimizerConfig.off())) == [
            "lineitem",
            "customer",
            "nation",
        ]
        assert on.column_names == off.column_names
        assert on.rows == off.rows
        assert len(on.rows) > 0

    def test_q10_reorders_after_pushdown(self):
        db = make_tpch_db()
        explain = db.explain(Q10_SQL)
        # Written customer-first; once l_returnflag = 'R' sinks into the
        # lineitem build side, the shrunken lineitem join goes first.
        assert _join_tables(explain) == ["lineitem", "customer"]
        assert any(line.startswith("join-reorder") for line in explain.rewrites)

    def test_q10_bit_exact_vs_optimizer_off(self):
        db = make_tpch_db()
        on = db.execute(Q10_SQL, include_scan=False)
        db.kernel_cache.clear()
        off = db.execute(Q10_SQL, include_scan=False, optimizer=OptimizerConfig.off())
        assert on.column_names == off.column_names
        assert on.rows == off.rows
        assert len(on.rows) > 0

    def test_q5_sql_permutations_agree(self):
        """Re-ordering the JOIN clauses in the SQL text never changes rows."""
        db = make_tpch_db()
        reference = db.execute(Q5_SQL, include_scan=False).rows
        permuted = (
            "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue "
            "FROM orders "
            "JOIN customer ON o_custkey = c_custkey "
            "JOIN nation ON c_nationkey = n_nationkey "
            "JOIN lineitem ON o_orderkey = l_orderkey "
            "WHERE o_orderdate >= '1994-01-01' AND o_orderdate < '1995-01-01' "
            "GROUP BY n_name ORDER BY revenue DESC"
        )
        for optimizer in (None, OptimizerConfig.off()):
            db.kernel_cache.clear()
            result = db.execute(permuted, include_scan=False, optimizer=optimizer)
            assert result.rows == reference
