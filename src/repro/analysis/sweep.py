"""Repo-wide analysis sweep: every workload kernel through the analyzer.

``python -m repro.analysis`` compiles every kernel the TPC-H, Figure 1,
RSA and trigonometry workloads generate (via the same planner/EXPLAIN path
real queries take, so aggregation-argument kernels are included) and
prints their diagnostics.  The process exits non-zero when any kernel has
an error-severity finding -- CI runs this as the overflow-freedom gate for
the paper's section III-B3 claim.

``python -m repro.analysis --plans`` sweeps *plans* instead of kernels:
every TPC-H workload query is planned under optimizer on/off and under
each storage-codec variant, and the plan-level analyzer's
``PLAN*``/``PREC*``/``RULE*`` findings are gated the same way -- the
schema/precision/rewrite-soundness counterpart of the kernel gate.

With ``--output PATH`` either sweep also writes its findings as a
harness-shaped table; CI regenerates ``bench_results/ext_kernel_analysis.json``
(every kernel's diagnostics and fast paths) and
``bench_results/ext_plan_analysis.json`` and fails on any diff.

Relations are built tiny (the analyzer only reads specs, never data), so
both sweeps are compile-bound and fast.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

from repro.analysis.diagnostics import AnalysisReport, Severity

#: Rows per generated relation: the analyzer is static, data size is moot.
_SWEEP_ROWS = 16

#: Storage-codec variants the plan sweep re-plans every query under:
#: the plain compact layout, the order-preserving D_inf codec (zone-map
#: friendly), and automatic per-column selection.
PLAN_CODEC_VARIANTS = ("plain", "dinf", "auto")


@dataclass
class SweptKernel:
    """One analyzed kernel of one workload."""

    workload: str
    kernel: str
    expression: str
    report: AnalysisReport


def _database(*relations) -> "Database":
    from repro.engine import Database

    db = Database(simulate_rows=10_000_000)
    for relation in relations:
        db.register(relation)
    return db


def _explain_kernels(workload: str, db, sql: str) -> Iterator[SweptKernel]:
    for plan in db.explain(sql).kernels:
        yield SweptKernel(workload, plan.name, plan.expression.strip(), plan.diagnostics)


def iter_workload_kernels(workloads: Optional[Sequence[str]] = None) -> Iterator[SweptKernel]:
    """Yield every workload kernel's analysis report.

    ``workloads`` filters by family name (``figure1``, ``tpch``, ``rsa``,
    ``trig``); ``None`` sweeps everything.
    """
    selected = set(workloads) if workloads else {"figure1", "tpch", "rsa", "trig"}

    if "figure1" in selected:
        from repro.workloads import figure1

        for config in figure1.CONFIGURATIONS:
            db = _database(figure1.build_relation(config, rows=_SWEEP_ROWS))
            yield from _explain_kernels(
                f"figure1/{config}", db, "SELECT SUM(c1 + c2) FROM R"
            )

    if "tpch" in selected:
        from repro.storage import tpch
        from repro.workloads import tpch_queries

        lineitem_db = _database(tpch.lineitem(rows=_SWEEP_ROWS, seed=11))
        yield from _explain_kernels("tpch/q1", lineitem_db, tpch_queries.Q1_SQL)
        yield from _explain_kernels("tpch/q6", lineitem_db, tpch_queries.Q6_SQL)
        q3_db = _database(
            tpch.lineitem_with_orderkeys(rows=_SWEEP_ROWS, seed=7, order_count=8),
            tpch.orders(rows=8, seed=17),
            tpch.customer(rows=4, seed=19),
        )
        yield from _explain_kernels("tpch/q3", q3_db, tpch_queries.Q3_SQL)

    if "rsa" in selected:
        from repro.workloads import rsa

        for length in sorted(rsa.MESSAGE_PRECISION):
            workload = rsa.build_workload(length, rows=_SWEEP_ROWS)
            db = _database(workload.relation)
            yield from _explain_kernels(f"rsa/len{length}", db, workload.query)

    if "trig" in selected:
        from repro.storage.datagen import relation_r5
        from repro.workloads import trig

        db = _database(relation_r5(rows=_SWEEP_ROWS))
        for column in trig.INPUT_COLUMNS.values():
            for terms in trig.TERM_RANGE:
                sql = f"SELECT {trig.sine_expression(column, terms)} FROM R5"
                yield from _explain_kernels(f"trig/{column}/terms{terms}", db, sql)


def _write_artifact(path: Path, title: str, headers: List[str], rows: List[list]) -> None:
    """Write a sweep as a harness-shaped bench artifact."""
    payload = {"id": path.stem, "title": title, "headers": headers, "rows": rows}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


def run_sweep(
    workloads: Optional[Sequence[str]] = None,
    min_severity: Severity = Severity.WARNING,
    verbose: bool = False,
    max_warnings: Optional[int] = None,
    output: Optional[Path] = None,
) -> int:
    """Sweep, print a summary, return the process exit code (0 = clean).

    ``max_warnings`` turns warning creep into a failure too: the sweep
    exits non-zero when the total warning count exceeds the budget, so a
    change that silently doubles the advisory findings trips CI instead
    of scrolling past.  ``output`` also writes every kernel's findings
    and fast paths, so a changed finding shows as a diff.
    """
    order = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}
    cutoff = order[min_severity]
    swept: List[SweptKernel] = list(iter_workload_kernels(workloads))
    errors = warnings = infos = 0

    for item in swept:
        report = item.report
        errors += len(report.errors)
        warnings += len(report.warnings)
        infos += len(report.infos)
        shown = [d for d in report.diagnostics if order[d.severity] <= cutoff]
        if verbose or shown:
            print(f"{item.workload} :: {item.kernel}: {item.expression}")
        for diagnostic in shown:
            print(f"  {diagnostic.format()}")

    if output is not None:
        _write_artifact(
            output,
            "Kernel-level static analysis sweep (every workload kernel)",
            ["workload", "kernel", "expression", "diagnostics", "fast paths"],
            [
                [
                    item.workload,
                    item.kernel,
                    item.expression,
                    [diagnostic.format() for diagnostic in item.report.diagnostics],
                    item.report.fast_paths,
                ]
                for item in swept
            ],
        )
    print(
        f"analyzed {len(swept)} kernel(s): "
        f"{errors} error(s), {warnings} warning(s), {infos} info(s)"
    )
    if errors:
        print("FAIL: the range/lifetime analyzer found errors")
        return 1
    if max_warnings is not None and warnings > max_warnings:
        print(f"FAIL: {warnings} warning(s) exceed the budget of {max_warnings}")
        return 1
    print("OK: every workload kernel is provably overflow-free")
    return 0


# --------------------------------------------------------------- plan sweep


@dataclass
class SweptPlan:
    """One analyzed (query, codec, optimizer) combination of the plan sweep."""

    workload: str
    codec: str
    optimizer: str
    operators: int
    kernels: int
    report: AnalysisReport


def _with_codec_variant(relation, variant: str):
    """Re-encode a relation's decimal columns under one codec variant."""
    from repro.storage.codecs import OrderPreservingCodec, choose_codec
    from repro.storage.schema import is_decimal

    if variant == "plain":
        return relation
    codecs = {}
    for column in relation.columns:
        if not is_decimal(column.column_type):
            continue
        if variant == "dinf":
            codecs[column.name] = OrderPreservingCodec()
        else:  # auto: smallest wire size the column qualifies for
            codecs[column.name] = choose_codec(
                column.column_type.spec, column.unscaled()
            )
    return relation.with_codecs(codecs)


def iter_plan_reports(
    codecs: Sequence[str] = PLAN_CODEC_VARIANTS,
) -> Iterator[SweptPlan]:
    """Plan-analyze every TPC-H workload query x optimizer x codec variant.

    Each query is explained with the optimizer on and off under every
    storage-codec variant; EXPLAIN runs the plan analyzer over the plan
    in both configurations, and the caller gates on its report.
    """
    from repro.engine.plan.cost import OptimizerConfig
    from repro.storage import tpch
    from repro.workloads import tpch_queries

    modes = {"on": OptimizerConfig(), "off": OptimizerConfig.off()}
    for codec in codecs:

        def build(*relations):
            return _database(*(_with_codec_variant(r, codec) for r in relations))

        lineitem_db = build(tpch.lineitem(rows=_SWEEP_ROWS, seed=11))
        q3_db = build(
            tpch.lineitem_with_orderkeys(rows=_SWEEP_ROWS, seed=7, order_count=8),
            tpch.orders(rows=8, seed=17),
            tpch.customer(rows=4, seed=19),
        )
        multi_db = build(
            tpch.lineitem_with_orderkeys(rows=40, seed=7, order_count=8),
            tpch.orders(rows=8, seed=17),
            tpch.customer(rows=4, seed=19),
            tpch.nation(),
        )
        targets = [
            ("tpch/q1", lineitem_db, tpch_queries.Q1_SQL),
            ("tpch/q6", lineitem_db, tpch_queries.Q6_SQL),
            ("tpch/q3", q3_db, tpch_queries.Q3_SQL),
            ("tpch/q5", multi_db, tpch_queries.Q5_SQL),
            ("tpch/q10", multi_db, tpch_queries.Q10_SQL),
        ]
        for workload, db, sql in targets:
            for mode, config in modes.items():
                explained = db.explain(sql, optimizer=config)
                report = explained.plan_diagnostics
                if report is None:  # pragma: no cover - EXPLAIN always analyzes
                    report = AnalysisReport(kernel=workload)
                yield SweptPlan(
                    workload,
                    codec,
                    mode,
                    len(explained.operators),
                    len(explained.kernels),
                    report,
                )


def run_plan_sweep(
    min_severity: Severity = Severity.WARNING,
    verbose: bool = False,
    max_warnings: Optional[int] = None,
    output: Optional[Path] = None,
) -> int:
    """Sweep every workload plan; returns the process exit code (0 = clean)."""
    order = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}
    cutoff = order[min_severity]
    swept: List[SweptPlan] = list(iter_plan_reports())
    errors = warnings = infos = 0

    for item in swept:
        report = item.report
        errors += len(report.errors)
        warnings += len(report.warnings)
        infos += len(report.infos)
        shown = [d for d in report.diagnostics if order[d.severity] <= cutoff]
        if verbose or shown:
            print(
                f"{item.workload} [codec={item.codec}, optimizer={item.optimizer}]: "
                f"{item.operators} operator(s), {item.kernels} kernel(s)"
            )
        for diagnostic in shown:
            print(f"  {diagnostic.format()}")

    if output is not None:
        _write_artifact(
            output,
            "Plan-level static analysis sweep (TPC-H x optimizer x codec)",
            [
                "workload",
                "codec",
                "optimizer",
                "operators",
                "kernels",
                "errors",
                "warnings",
                "infos",
            ],
            [
                [
                    item.workload,
                    item.codec,
                    item.optimizer,
                    item.operators,
                    item.kernels,
                    len(item.report.errors),
                    len(item.report.warnings),
                    len(item.report.infos),
                ]
                for item in swept
            ],
        )
    print(
        f"analyzed {len(swept)} plan(s): "
        f"{errors} error(s), {warnings} warning(s), {infos} info(s)"
    )
    if errors:
        print("FAIL: the plan analyzer found errors")
        return 1
    if max_warnings is not None and warnings > max_warnings:
        print(f"FAIL: {warnings} warning(s) exceed the budget of {max_warnings}")
        return 1
    print("OK: every workload plan is schema-, precision- and rewrite-sound")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Statically analyze every workload kernel (CI gate).",
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=["figure1", "tpch", "rsa", "trig"],
        help="restrict to one workload family (repeatable; default: all)",
    )
    parser.add_argument(
        "--min-severity",
        choices=["error", "warning", "info"],
        default="warning",
        help="lowest severity to print per kernel (default: warning)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print every kernel, including clean ones",
    )
    parser.add_argument(
        "--plans",
        action="store_true",
        help="sweep plan-level analysis (PLAN*/PREC*/RULE*) instead of kernels",
    )
    parser.add_argument(
        "--max-warnings",
        type=int,
        default=None,
        metavar="N",
        help="fail when total warnings exceed N (default: warnings don't fail)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the sweep's findings as a bench_results-style JSON artifact here",
    )
    arguments = parser.parse_args(argv)
    if arguments.plans:
        return run_plan_sweep(
            min_severity=Severity(arguments.min_severity),
            verbose=arguments.verbose,
            max_warnings=arguments.max_warnings,
            output=arguments.output,
        )
    return run_sweep(
        workloads=arguments.workload,
        min_severity=Severity(arguments.min_severity),
        verbose=arguments.verbose,
        max_warnings=arguments.max_warnings,
        output=arguments.output,
    )
