"""Figure 8: Query 1 across databases and precisions."""

import pytest

from conftest import emit
from repro.bench.experiments import fig08_query1
from repro.core.jit import compile_expression
from repro.gpusim import execute
from repro.storage import datagen


@pytest.fixture(scope="module")
def experiment():
    return emit(fig08_query1.run(rows=800))


def test_fig08_kernel_len4(benchmark, experiment):
    """Benchmark the Query 1 kernel at LEN=4 and assert the figure's shape."""
    spec = fig08_query1.column_spec(4)
    relation = datagen.relation_r1(spec, rows=800, seed=81)
    schema = relation.decimal_schema()
    compiled = compile_expression("c1 + c2 + c3", schema)
    columns = {name: relation.column(name).data for name in schema}

    benchmark(lambda: execute(compiled.kernel, columns, relation.rows))

    lens = experiment.column("LEN")
    heavyai = experiment.column("HEAVY.AI (s)")
    monet = experiment.column("MonetDB (s)")
    rateup = experiment.column("RateupDB (s)")
    postgres = experiment.column("PostgreSQL (s)")
    ours = experiment.column("UltraPrecise (s)")

    # Capability failures exactly as in the paper.
    assert [h is None for h in heavyai] == [False, True, True, True, True]
    assert [m is None for m in monet] == [False, False, True, True, True]
    assert [r is None for r in rateup] == [False, False, True, True, True]
    # PostgreSQL completes everything but is the slowest at every LEN.
    for i in range(len(lens)):
        assert postgres[i] == max(v for v in
                                  [heavyai[i], monet[i], rateup[i], postgres[i], ours[i]]
                                  if v is not None)
    # The JIT crossover: RateupDB wins at LEN=2, UltraPrecise from LEN=4 on.
    assert rateup[0] < ours[0]
    assert ours[1] < rateup[1]
    # "up to 5.24x" speedup over PostgreSQL: ours lands in the same band.
    speedups = [postgres[i] / ours[i] for i in range(len(lens))]
    assert 2.0 < max(speedups) < 12.0
