"""TPC-H analytics end to end: Q1, Q6 and a Q3-style join.

Generates a small TPC-H slice (lineitem/orders/customer), then runs three
classic analytics queries through the full pipeline -- predicate pushdown,
hash joins, JIT-compiled DECIMAL kernels, grouped aggregation -- printing
results and the simulated 10M-tuple timing for each.

Run:  python examples/tpch_analytics.py
"""

from repro import Database
from repro.storage import tpch
from repro.workloads.tpch_queries import Q1_SQL, Q3_SQL, Q6_SQL


def main() -> None:
    order_count = 400
    db = Database(simulate_rows=10_000_000)
    db.register(tpch.lineitem_with_orderkeys(rows=2500, seed=7, order_count=order_count))
    db.register(tpch.orders(rows=order_count, seed=17))
    db.register(tpch.customer(rows=60, seed=19))

    print("== TPC-H Q1: pricing summary report ==")
    print(db.explain(Q1_SQL).format())
    result = db.execute(Q1_SQL, include_scan=False)
    print(f"\n{'flag':>4s} {'status':>6s} {'sum_qty':>12s} {'sum_charge':>22s} {'count':>8s}")
    for row in result.rows:
        print(f"{row[0]:>4s} {row[1]:>6s} {str(row[2]):>12s} {str(row[5]):>22s} {str(row[9]):>8s}")
    print(f"simulated: {result.report.total_seconds * 1e3:.0f} ms "
          f"(compile {result.report.compile_seconds * 1e3:.0f} ms)")

    print("\n== TPC-H Q6: forecasting revenue change ==")
    result = db.execute(Q6_SQL, include_scan=False)
    print(f"revenue = {result.scalar}")
    print(f"simulated: {result.report.total_seconds * 1e3:.0f} ms")

    print("\n== Q3-style: shipping priority (two hash joins) ==")
    result = db.execute(Q3_SQL, include_scan=False)
    for orderkey, revenue in result.rows:
        print(f"  order {orderkey:>6d}  revenue {revenue}")
    print(f"simulated: {result.report.total_seconds * 1e3:.0f} ms")


if __name__ == "__main__":
    main()
