"""Tests for ``benchmarks/check_bench_results.py``'s performance-ledger check."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _checker():
    spec = importlib.util.spec_from_file_location(
        "check_bench_results", ROOT / "benchmarks" / "check_bench_results.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _checker()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def complete_ledger():
    """A ledger holding every workload, seed, side and end-to-end metric."""
    summary = {"median": 2.0, "q1": 1.0, "q3": 3.0}
    side = {metric["name"]: dict(summary) for metric in BENCHMARK["end_to_end"]}
    return {
        "environment": {"python": "3.11.7", "numpy": "2.4.6", "cpu": "x", "nproc": 2},
        "untraced": {
            workload["name"]: {
                seed: {name: copy.deepcopy(side) for name in checker.LEDGER_SIDES}
                for seed in checker.LEDGER_SEEDS
            }
            for workload in BENCHMARK["workloads"]
        },
        "traced": {"serve_rw": {"parent": {"planner.ms": 0.1}, "change": {"planner.ms": 0.1}}},
    }


def problems(tmp_path, ledger):
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps(ledger))
    return checker.check_ledger(path, BENCHMARK)


class TestLedgerCheck:
    def test_a_complete_ledger_is_clean(self, tmp_path):
        assert problems(tmp_path, complete_ledger()) == []

    @pytest.mark.parametrize(
        "damage,expected",
        [
            (lambda x: x["untraced"].pop("adhoc_wide"), "untraced lacks workload 'adhoc_wide'"),
            (lambda x: x["untraced"]["tpch_olap"].pop("1009"), "tpch_olap: no seed 1009"),
            (lambda x: x["untraced"]["serve_rw"]["1"].pop("parent"), "serve_rw seed 1: no 'parent'"),
            (
                lambda x: x["untraced"]["serve_rw"]["1"]["change"].pop("peak_rss_mb"),
                "serve_rw seed 1 change peak_rss_mb: missing",
            ),
            (
                lambda x: x["untraced"]["serve_rw"]["1009"]["change"]["host_qps"].update(
                    median=float("nan")
                ),
                "must be finite",
            ),
            (
                lambda x: x["untraced"]["tpch_olap"]["1"]["parent"]["setup_s"].update(q1=5.0),
                "quartiles out of order",
            ),
            (lambda x: x["environment"].pop("nproc"), "environment lacks 'nproc'"),
            (lambda x: x.pop("untraced"), "missing 'untraced'"),
            (
                lambda x: x["traced"]["serve_rw"]["change"].update({"planner.ms": None}),
                "traced serve_rw change planner.ms: not a finite number",
            ),
        ],
    )
    def test_each_gap_is_reported(self, tmp_path, damage, expected):
        ledger = complete_ledger()
        damage(ledger)
        found = problems(tmp_path, ledger)
        assert any(expected in problem for problem in found), found

    def test_unreadable_ledger(self, tmp_path):
        path = tmp_path / "BENCH_0.json"
        path.write_text("{")
        assert checker.check_ledger(path, BENCHMARK)[0].startswith("unreadable JSON")

    def test_committed_ledgers_are_clean(self):
        ledgers = sorted(ROOT.glob("BENCH_*.json"))
        assert ledgers
        for path in ledgers:
            assert checker.check_ledger(path, BENCHMARK) == [], path.name
