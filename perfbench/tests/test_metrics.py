"""Checks of the benchmark's reference clock and latency summaries.

    python3 -m pytest perfbench/tests -q
"""

import gc
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import metrics  # noqa: E402
import workloads  # noqa: E402
from clock import ReferenceClock  # noqa: E402


def test_probe_leaves_the_garbage_collector_alone():
    clock = ReferenceClock()
    clock.mark()
    before = gc.get_count()
    factors = [clock.mark() for _ in range(200)]
    assert gc.get_count() == before
    assert all(factor > 0 for factor in factors)


def _served(kind, ms):
    return workloads.Served(workloads.Read("SELECT 1", None, kind=kind), ms / 1e3)


def test_host_p50_is_the_geometric_mean_of_each_kinds_median():
    good = [_served("a", ms) for ms in (1, 2, 3)] + [_served("b", ms) for ms in (40, 10, 20)]
    assert metrics._kind_median_ms(good) == pytest.approx(math.sqrt(2 * 20))


def test_host_p50_of_one_kind_is_its_median():
    good = [_served("read", ms) for ms in (5, 1, 3, 4)]
    assert metrics._kind_median_ms(good) == pytest.approx(3)
