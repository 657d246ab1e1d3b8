"""Shared benchmark configuration.

Each ``bench_*.py`` regenerates one of the paper's tables/figures: it runs
the experiment (real arithmetic over a row sample, timing models charged at
10M tuples), prints the paper-style table, saves it as JSON under
``bench_results/``, asserts the paper's qualitative shape, and benchmarks
the underlying simulated operation with pytest-benchmark.

Run with ``pytest benchmarks/ --benchmark-only`` (add ``-s`` to see the
tables inline; they are always written to bench_results/).
"""


def emit(experiment):
    """Print and persist one experiment's table."""
    print()
    print(experiment.format())
    experiment.save("bench_results")
    return experiment
