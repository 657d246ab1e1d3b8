"""Validate every ``bench_results/*.json`` artifact.

Each artifact is written by :meth:`repro.bench.harness.Experiment.save`;
CI uploads them and EXPERIMENTS.md is regenerated from them, so a stale or
hand-mangled file should fail fast rather than silently ship.  Checks per
file:

* parses as JSON and is a top-level object;
* carries the harness schema: ``id``, ``title``, ``headers``, ``rows``
  (with ``id`` matching the filename);
* every row has exactly one cell per header;
* no numeric cell is NaN or infinite;
* cells under timing/throughput headers (``(s)``, ``(ms)``, ``latency``,
  ``/sec`` ...) are never negative;
* artifacts with a registered schema (``EXPECTED_HEADERS``) carry exactly
  the registered header list -- a drive-by header rename must update the
  registry (and the consumers it documents) in the same change.

It then validates every performance ledger at the repository root
(``BENCH_*.json``) against the benchmark it reports on, ``BENCHMARK.json``:

* every workload and every end-to-end metric the benchmark names appears,
  at both ledger seeds (:data:`LEDGER_SEEDS`) and on both sides (the
  parent commit and the change);
* each metric carries a finite ``median``, ``q1`` and ``q3`` with
  ``q1 <= median <= q3``;
* the ``environment`` fingerprint names the Python and NumPy versions,
  the CPU model and ``nproc``;
* every ``traced`` per-layer value is a finite number.

Usage::

    python benchmarks/check_bench_results.py [directory]

Exits non-zero listing every violation.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import List

#: The repository root: ``BENCHMARK.json`` and the ``BENCH_*.json`` ledgers.
ROOT = Path(__file__).resolve().parent.parent

#: Seeds every ledger reports, as perfbench's ``--seed`` values.
LEDGER_SEEDS = ("1", "1009")

#: Sides every ledger compares.
LEDGER_SIDES = ("parent", "change")

#: Keys of a ledger's environment fingerprint.
ENVIRONMENT_KEYS = ("python", "numpy", "cpu", "nproc")

#: Header fragments that mark a column as a timing/rate: values there must
#: be finite and non-negative (a negative simulated time is always a bug).
NON_NEGATIVE_MARKERS = (
    "(s)",
    "(ms)",
    "(us)",
    "sec",
    "latency",
    "time",
    "speedup",
    "throughput",
    "rows/s",
    "chunks",
)

REQUIRED_KEYS = ("id", "title", "headers", "rows")

#: Artifacts whose header layout downstream gates depend on (CI smoke
#: checks, EXPERIMENTS.md narratives).  Validated exactly, in order.
EXPECTED_HEADERS = {
    "ext_tpch_real": [
        "query",
        "UltraPrecise (s)",
        "PostgreSQL model (s)",
        "PG / UP",
        "output rows",
        "scan MB",
        "PCIe MB",
        "join order",
    ],
    "ext_compression": [
        "query",
        "LEN",
        "codec",
        "pcie (MB)",
        "reduction vs compact",
        "chunks skipped",
        "chunks total",
        "pipelined (s)",
        "speedup vs compact",
        "bit_exact",
    ],
    "ext_kernel_analysis": [
        "workload",
        "kernel",
        "expression",
        "diagnostics",
        "fast paths",
    ],
    "ext_plan_analysis": [
        "workload",
        "codec",
        "optimizer",
        "operators",
        "kernels",
        "errors",
        "warnings",
        "infos",
    ],
}


def check_file(path: Path) -> List[str]:
    """All violations found in one artifact (empty = clean)."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        return [f"unreadable JSON: {error}"]
    if not isinstance(payload, dict):
        return ["top level is not an object"]

    problems = []
    for key in REQUIRED_KEYS:
        if key not in payload:
            problems.append(f"missing top-level {key!r} (harness schema)")
    if problems:
        return problems

    if payload["id"] != path.stem:
        problems.append(f"id {payload['id']!r} does not match filename {path.stem!r}")
    headers = payload["headers"]
    rows = payload["rows"]
    if not isinstance(headers, list) or not all(isinstance(h, str) for h in headers):
        return problems + ["headers is not a list of strings"]
    if not isinstance(rows, list):
        return problems + ["rows is not a list"]

    expected = EXPECTED_HEADERS.get(path.stem)
    if expected is not None and headers != expected:
        problems.append(
            f"headers {headers!r} do not match the registered schema {expected!r}"
        )

    guarded = [
        index
        for index, header in enumerate(headers)
        if any(marker in header.lower() for marker in NON_NEGATIVE_MARKERS)
    ]
    for row_index, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(headers):
            problems.append(f"row {row_index} does not match the {len(headers)} headers")
            continue
        for cell_index, cell in enumerate(row):
            if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                continue
            if math.isnan(cell) or math.isinf(cell):
                problems.append(
                    f"row {row_index} {headers[cell_index]!r}: non-finite value {cell}"
                )
            elif cell_index in guarded and cell < 0:
                problems.append(
                    f"row {row_index} {headers[cell_index]!r}: negative timing {cell}"
                )
    return problems


def _finite(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def check_ledger(path: Path, benchmark: dict) -> List[str]:
    """All violations in one ``BENCH_*.json`` ledger (empty = clean)."""
    try:
        ledger = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        return [f"unreadable JSON: {error}"]
    if not isinstance(ledger, dict):
        return ["top level is not an object"]

    problems = []
    environment = ledger.get("environment")
    if not isinstance(environment, dict):
        problems.append("missing 'environment' object")
    else:
        problems += [
            f"environment lacks {key!r}" for key in ENVIRONMENT_KEYS if key not in environment
        ]

    untraced = ledger.get("untraced")
    if not isinstance(untraced, dict):
        return problems + ["missing 'untraced' object"]
    metrics = [metric["name"] for metric in benchmark["end_to_end"]]
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        seeds = untraced.get(workload)
        if not isinstance(seeds, dict):
            problems.append(f"untraced lacks workload {workload!r}")
            continue
        for seed in LEDGER_SEEDS:
            sides = seeds.get(seed)
            if not isinstance(sides, dict):
                problems.append(f"{workload}: no seed {seed}")
                continue
            for side in LEDGER_SIDES:
                values = sides.get(side)
                if not isinstance(values, dict):
                    problems.append(f"{workload} seed {seed}: no {side!r} side")
                    continue
                for metric in metrics:
                    where = f"{workload} seed {seed} {side} {metric}"
                    summary = values.get(metric)
                    if not isinstance(summary, dict):
                        problems.append(f"{where}: missing")
                    elif not all(_finite(summary.get(key)) for key in ("median", "q1", "q3")):
                        problems.append(f"{where}: median, q1 and q3 must be finite numbers")
                    elif not summary["q1"] <= summary["median"] <= summary["q3"]:
                        problems.append(f"{where}: quartiles out of order")

    problems += [
        f"{where}: not a finite number" for where in _not_finite(ledger.get("traced", {}), "traced")
    ]
    return problems


def _not_finite(tree, where: str) -> List[str]:
    """Where the leaves of nested objects are not finite numbers."""
    if isinstance(tree, dict):
        return [bad for key, sub in tree.items() for bad in _not_finite(sub, f"{where} {key}")]
    return [] if _finite(tree) else [where]


def main(argv: List[str]) -> int:
    directory = Path(argv[1]) if len(argv) > 1 else Path("bench_results")
    artifacts = sorted(directory.glob("*.json"))
    if not artifacts:
        print(f"FAIL: no artifacts found under {directory}/")
        return 1
    failures = 0
    for path in artifacts:
        problems = check_file(path)
        for problem in problems:
            print(f"FAIL {path}: {problem}")
        failures += len(problems)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    ledgers = sorted(ROOT.glob("BENCH_*.json"))
    for path in ledgers:
        problems = check_ledger(path, benchmark)
        for problem in problems:
            print(f"FAIL {path.name}: {problem}")
        failures += len(problems)

    if failures:
        print(f"{failures} problem(s) across {len(artifacts) + len(ledgers)} file(s)")
        return 1
    print(
        f"OK: {len(artifacts)} artifacts under {directory}/ and "
        f"{len(ledgers)} ledger(s) are valid"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
