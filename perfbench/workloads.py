"""The benchmark's workloads: seeded inputs, set-up, and one timed closed loop.

A run executes a fixed list of operations that the seed and the run's
nominal length determine -- never a time budget -- so every simulated
metric and every per-layer count repeats exactly for a given seed.  The
program only ever sees the generated inputs.  Host times are reference
seconds, probed between operations (``clock.py``).

* ``tpch_olap``: TPC-H Q1/Q3/Q5/Q6/Q10 round-robin over a warm kernel
  cache (joins and group-by dominate host time; no JIT work).
* ``adhoc_wide``: distinct single-table aggregates over DECIMAL(285,2)
  (every query misses the kernel cache; no joins, few groups).
* ``serve_rw``: four reader sessions and one writer on a
  ``SessionServer``; appends between read rounds turn every
  version-keyed cache cold (codecs, zone maps, streaming, residency).
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import oracle
from clock import ReferenceClock
from oracle import Dec, Item, TableQuery, col, lit
from repro.engine import Database
from repro.engine.serving import ServerConfig, SessionServer
from repro.gpusim.scheduler import DeviceScheduler, ScheduleResult
from repro.gpusim.streaming import StreamingConfig
from repro.storage import tpch
from repro.storage.codecs import choose_codec
from repro.workloads import tpch_queries

#: Tuples the timing model charges per relation (the paper's 10M scale).
SIMULATE_ROWS = 10_000_000


@dataclass(frozen=True)
class Read:
    """One read: the SQL sent, and what the oracle must check it against."""

    sql: str
    #: An :class:`oracle.TableQuery`, or a function of the decoded tables
    #: returning an :class:`oracle.Ranked` answer.
    answer: object
    #: Rows the read sees: a prefix of the table that only grows by appends.
    snapshot_rows: Optional[int] = None
    #: Reads of one kind wait for the same reads and run the same plan, so
    #: their latencies form one cluster; ``host_p50_ms`` takes each kind's
    #: median.
    kind: str = "read"

    @property
    def ordered(self) -> bool:
        return self.answer.ordered if isinstance(self.answer, TableQuery) else True


@dataclass
class Served:
    """One executed read: host latency, the engine's answer or its error.

    Host times here are reference seconds (see ``clock.py``).
    """

    read: Read
    host_seconds: float
    report: object = None
    rows: Optional[list] = None
    error: Optional[str] = None
    queued_seconds: float = 0.0


@dataclass
class Run:
    """Everything one run measured."""

    served: List[Served]
    #: Wall seconds of the timed phase, the probes between operations excluded.
    timed_seconds: float
    #: The same in reference seconds.
    reference_seconds: float
    schedule: ScheduleResult
    #: Program-side counters over the timed phase (deterministic).
    counters: Dict[str, float] = field(default_factory=dict)
    appends: int = 0
    failed_appends: int = 0
    setup_seconds: List[float] = field(default_factory=list)


def run(workload, recording=contextlib.nullcontext) -> Run:
    """Set the workload up ``setup_repeats`` times, then time its loop.

    ``setup_s`` is the median set-up; cheap set-ups repeat more often so
    their median is as steady as that of the costly ones.

    ``recording`` is entered around the timed phase only (the traced run
    passes its tracer there); it receives the warm database.
    """
    clock = ReferenceClock()
    setups = []
    clock.mark()
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        database = workload.setup()
        wall = time.perf_counter() - start
        setups.append(wall * clock.mark())
    cache = database.kernel_cache
    hits, misses = cache.hits, cache.misses
    with recording(database):
        result = workload.timed(database, clock)
    result.setup_seconds = setups
    result.counters["kernel_cache.hits"] = cache.hits - hits
    result.counters["kernel_cache.misses"] = cache.misses - misses
    return result


def _one_client(database: Database, reads: List[Read], clock: ReferenceClock) -> Run:
    """Closed loop, one client: send each read when the previous returns."""
    served = []
    elapsed = reference = 0.0
    clock.mark()
    for read in reads:
        result = error = None
        began = time.perf_counter()
        try:
            result = database.execute(read.sql)
        except Exception as caught:  # a failed read is counted, not fatal
            error = repr(caught)
        wall = time.perf_counter() - began
        host = wall * clock.mark()
        elapsed += wall
        reference += host
        if error is not None:
            served.append(Served(read, host, error=error))
        else:
            served.append(Served(read, host, result.report, result.rows))
    scheduler = DeviceScheduler()
    for entry in served:
        if entry.report is not None:
            scheduler.submit_report("client", entry.report)
    return Run(served, elapsed, reference, scheduler.simulate())


# ------------------------------------------------------------- tpch_olap


class TpchOlap:
    """TPC-H Q1/Q3/Q5/Q6/Q10 round-robin, one client, warm kernel cache."""

    name = "tpch_olap"
    #: Reads per second of run length; sizes the fixed read list.
    reads_per_second = 40
    setup_repeats = 9
    LINEITEM_ROWS, ORDERS, CUSTOMERS = 20_000, 4_000, 500
    QUERIES = (
        ("Q1", tpch_queries.Q1_SQL, oracle.Q1),
        ("Q3", tpch_queries.Q3_SQL, oracle.q3),
        ("Q5", tpch_queries.Q5_SQL, oracle.q5),
        ("Q6", tpch_queries.Q6_SQL, oracle.Q6),
        ("Q10", tpch_queries.Q10_SQL, oracle.q10),
    )

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        count = max(1, round(seconds * self.reads_per_second))
        self.reads = []
        for i in range(count):
            kind, sql, answer = self.QUERIES[i % len(self.QUERIES)]
            self.reads.append(Read(sql, answer, kind=kind))
        self.relations = []

    def setup(self) -> Database:
        seed = self.seed
        self.relations = [
            tpch.lineitem_with_orderkeys(
                rows=self.LINEITEM_ROWS, seed=seed, order_count=self.ORDERS
            ),
            tpch.orders(rows=self.ORDERS, seed=seed + 2),
            tpch.customer(rows=self.CUSTOMERS, seed=seed + 3),
            tpch.nation(),
        ]
        database = Database(simulate_rows=SIMULATE_ROWS)
        for relation in self.relations:
            database.register(relation)
        for _, sql, _ in self.QUERIES:
            database.execute(sql)
        return database

    def timed(self, database: Database, clock: ReferenceClock) -> Run:
        return _one_client(database, self.reads, clock)

    def answers(self) -> Dict[Read, object]:
        tables = {r.name: oracle.Table.from_relation(r) for r in self.relations}
        return {
            read: read.answer.evaluate(tables["lineitem"])
            if isinstance(read.answer, TableQuery)
            else read.answer(tables)
            for read in set(self.reads)
        }


# ------------------------------------------------------------ adhoc_wide

DECIMAL_COLUMNS = ("l_quantity", "l_extendedprice", "l_discount", "l_tax")


#: Stands for a constant in an expression's shape until the seed's
#: constant stream fills it in.
CONSTANT = ("const",)


def _fresh_literal(values: random.Random) -> oracle.Expr:
    """A constant >= 1 with up to three fractional digits."""
    scale = values.randint(0, 3)
    return lit(str(Dec(values.randint(10**scale, 99_999), scale)))


def _expression(shape: random.Random, levels: int) -> oracle.Expr:
    if levels == 0:
        return col(shape.choice(DECIMAL_COLUMNS))
    op = shape.choice("+-*/")
    left = _expression(shape, levels - 1)
    if op == "/":
        # A constant divisor is never zero and always "normalised" -- its
        # value uses every digit of its type -- which the section III-B3
        # quotient precision needs (DESIGN.md section 6).  Column divisors
        # such as ``(1 + l_tax)`` leave an integer digit unused, and a
        # chain of two such divisions overflows the quotient's precision.
        return (op, left, CONSTANT)
    right = CONSTANT if shape.random() < 0.5 else col(shape.choice(DECIMAL_COLUMNS))
    if op in "+*" and shape.random() < 0.5:
        left, right = right, left
    return (op, left, right)


def _fill(expr: oracle.Expr, values: random.Random) -> oracle.Expr:
    if expr == CONSTANT:
        return _fresh_literal(values)
    if expr[0] in ("col", "lit"):
        return expr
    return (expr[0], *(_fill(child, values) for child in expr[1:]))


def _chain_constants(expr: oracle.Expr) -> List[int]:
    """Constants in each maximal chain of ``+``/``-`` nodes or of ``*`` nodes."""
    family = {"+": "+", "-": "+", "*": "*"}
    chains: List[int] = []

    def walk(node: oracle.Expr, chain: Optional[str]) -> int:
        if node[0] in ("col", "lit", "const"):
            return int(node[0] != "col")
        own = family.get(node[0])
        if own is not None and own == chain:
            return sum(walk(child, chain) for child in node[1:])
        inner = [walk(child, own) for child in node[1:]]
        chains.extend(inner if own is None else [sum(inner)])
        return 0

    chains.append(walk(expr, None))
    return chains


def _acceptable(expr: oracle.Expr) -> bool:
    """A fresh constant somewhere, and at most one constant per chain.

    The JIT folds the constants of one ``+``/``*`` chain and types the
    folded constant by its shortest form, which can change the result's
    scale; one constant per chain keeps every result's scale the one the
    section III-B3 rules give for the written expression.
    """
    counts = _chain_constants(expr)
    return sum(counts) >= 1 and max(counts) <= 1


def adhoc_query(shape: random.Random, values: random.Random) -> TableQuery:
    """One ad-hoc aggregate over 1-3 expressions of 1-3 operator levels.

    ``shape`` draws the structure (operators, columns, aggregates, clauses);
    ``values`` draws the constants and the filter threshold.
    """
    items = []
    for position in range(shape.randint(1, 3)):
        expr = _expression(shape, shape.randint(1, 3))
        while not _acceptable(expr):
            expr = _expression(shape, shape.randint(1, 3))
        function = shape.choice(("SUM", "MIN", "MAX", "AVG"))
        items.append(Item(f"a{position}", function, _fill(expr, values)))
    where = ()
    if shape.random() < 0.5:
        where = (("l_quantity", "<", Dec(values.randint(5, 50), 0)),)
    group_by = ("l_returnflag",) if shape.random() < 0.5 else ()
    return TableQuery("lineitem", tuple(items), where, group_by)


class AdhocWide:
    """Distinct ad-hoc aggregates over DECIMAL(285,2), one client."""

    name = "adhoc_wide"
    reads_per_second = 100
    setup_repeats = 200
    ROWS, LEN = 1_000, 32
    #: Query shapes are the same for every seed, so the mix of cheap and
    #: expensive shapes -- and with it every metric -- does not swing with
    #: the seed; the seed draws the data and every constant.
    SHAPE_SEED = 0

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        shape, values = random.Random(self.SHAPE_SEED), random.Random(seed)
        count = max(1, round(seconds * self.reads_per_second))
        queries: Dict[str, TableQuery] = {}
        while len(queries) < count:
            query = adhoc_query(shape, values)
            queries.setdefault(query.sql(), query)
        self.reads = [Read(sql, query) for sql, query in queries.items()]
        self.relation = None

    def setup(self) -> Database:
        self.relation = tpch.lineitem_for_len(self.LEN, rows=self.ROWS, seed=self.seed)
        database = Database(simulate_rows=SIMULATE_ROWS)
        database.register(self.relation)
        return database

    def timed(self, database: Database, clock: ReferenceClock) -> Run:
        return _one_client(database, self.reads, clock)

    def answers(self) -> Dict[Read, object]:
        table = oracle.Table.from_relation(self.relation)
        return {read: read.answer.evaluate(table) for read in self.reads}


# -------------------------------------------------------------- serve_rw


def _append_batch(rng: random.Random, rows: int) -> List[tuple]:
    """Host-literal lineitem rows from the TPC-H value domains."""
    return [
        (
            f"{rng.randint(1, 50)}.00",
            str(Dec(rng.randint(90_000, 10_499_999), 2)),
            str(Dec(rng.randint(0, 10), 2)),
            str(Dec(rng.randint(0, 8), 2)),
            rng.choice("ANR"),
            rng.choice("OF"),
            rng.randint(0, 2525),
        )
        for _ in range(rows)
    ]


def _projection(k: int) -> TableQuery:
    return TableQuery(
        "lineitem",
        (Item("disc_price", None, ("*", col("l_extendedprice"), ("-", lit("1"), col("l_discount")))),),
        where=(("l_quantity", "<", Dec(k, 0)),),
    )


def _grouped_filter(discount: int) -> TableQuery:
    return TableQuery(
        "lineitem",
        (
            Item("revenue", "SUM", ("*", col("l_extendedprice"), col("l_discount"))),
            Item("orders", "COUNT", None),
        ),
        where=(("l_discount", ">=", Dec(discount, 2)),),
        group_by=("l_returnflag",),
    )


class ServeRw:
    """Readers and a writer on one ``SessionServer``; one worker thread.

    Each round the four readers send one read each -- Q1, Q6, a filtered
    projection and a grouped filter, rotating which reader sends which --
    all four wait, then the writer appends a batch.  A read's snapshot is
    fixed by its round alone; its latency kind is its reader and shape,
    which fix its queue position and the reads ahead of it.  Every seed
    sends the same reads in the same queue positions, so each session
    carries the same load and the simulated schedule does not swing with
    the seed; the seed draws the data and the appended rows.
    """

    name = "serve_rw"
    #: Rounds per second of run length (each round: READERS reads + 1 append).
    rounds_per_second = 3.5
    setup_repeats = 9
    ROWS, LEN, READERS, APPEND_ROWS = 20_000, 8, 4, 200

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        rng = random.Random(seed)
        self.rounds = []
        for round_index in range(max(1, round(seconds * self.rounds_per_second))):
            snapshot = self.ROWS + round_index * self.APPEND_ROWS
            projection = _projection(2 + round_index % 5)
            grouped = _grouped_filter(1 + round_index % 9)
            shapes = (
                ("Q1", tpch_queries.Q1_SQL, oracle.Q1),
                ("Q6", tpch_queries.Q6_SQL, oracle.Q6),
                ("projection", projection.sql(), projection),
                ("grouped", grouped.sql(), grouped),
            )
            reads = []
            for reader in range(self.READERS):
                shape, sql, answer = shapes[(reader + round_index) % self.READERS]
                # Reader and shape fix the reads queued ahead of this one.
                reads.append(Read(sql, answer, snapshot, kind=f"reader-{reader}/{shape}"))
            self.rounds.append((reads, _append_batch(rng, self.APPEND_ROWS)))
        self.relation = None

    def setup(self) -> Database:
        relation = tpch.lineitem_for_len(self.LEN, rows=self.ROWS, seed=self.seed)
        codecs = {
            column.name: choose_codec(column.column_type.spec, column.unscaled())
            for column in relation.columns
            if column.name in DECIMAL_COLUMNS
        }
        self.relation = relation.with_codecs(codecs)
        database = Database(
            simulate_rows=SIMULATE_ROWS, streaming=StreamingConfig(enabled=True)
        )
        database.register(self.relation)
        for sql in (
            tpch_queries.Q1_SQL,
            tpch_queries.Q6_SQL,
            _projection(2).sql(),
            _grouped_filter(1).sql(),
        ):
            database.execute(sql)
        return database

    def timed(self, database: Database, clock: ReferenceClock) -> Run:
        return asyncio.run(self._serve(database, clock))

    async def _serve(self, database: Database, clock: ReferenceClock) -> Run:
        """Rounds of reads then an append; the clock probes between rounds,
        while the worker thread is idle."""
        served: List[Served] = []
        failed_appends = 0
        elapsed = reference = 0.0
        server = SessionServer(database, ServerConfig(max_in_flight=1))
        residency = database.residency
        try:
            readers = [server.session(f"reader-{i}") for i in range(self.READERS)]
            writer = server.session("writer")
            clock.mark()
            for reads, batch in self.rounds:
                began = time.perf_counter()
                outcomes = await asyncio.gather(
                    *(reader.execute(read.sql) for reader, read in zip(readers, reads)),
                    return_exceptions=True,
                )
                try:
                    await writer.append("lineitem", batch)
                except Exception:  # a failed append is counted, not fatal
                    failed_appends += 1
                wall = time.perf_counter() - began
                scale = clock.mark()
                elapsed += wall
                reference += wall * scale
                for read, outcome in zip(reads, outcomes):
                    if isinstance(outcome, BaseException):
                        served.append(Served(read, 0.0, error=repr(outcome)))
                    else:
                        served.append(
                            Served(
                                read,
                                outcome.wall_seconds * scale,
                                outcome.report,
                                outcome.rows,
                                queued_seconds=outcome.queued_seconds * scale,
                            )
                        )
            schedule = server.simulate_schedule()
        finally:
            await server.close()
        counters = {
            "residency.hits": residency.hits,
            "residency.misses": residency.misses,
            "serving.rejected": server.stats.rejected,
            "serving.timed_out": server.stats.timed_out,
        }
        return Run(
            served, elapsed, reference, schedule, counters, len(self.rounds), failed_appends
        )

    def answers(self) -> Dict[Read, object]:
        table = oracle.Table.from_relation(self.relation)
        for _, batch in self.rounds:
            table.append_literals(batch)
        snapshots: Dict[TableQuery, set] = {}
        for reads, _ in self.rounds:
            for read in reads:
                snapshots.setdefault(read.answer, set()).add(read.snapshot_rows)
        answers = {}
        for query, prefixes in snapshots.items():
            prefixes = sorted(prefixes)
            for prefix, answer in zip(prefixes, query.answers(table, prefixes)):
                answers[(query, prefix)] = answer
        return {
            read: answers[(read.answer, read.snapshot_rows)]
            for reads, _ in self.rounds
            for read in reads
        }


WORKLOADS = {workload.name: workload for workload in (TpchOlap, AdhocWide, ServeRw)}
