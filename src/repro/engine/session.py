"""The UltraPrecise database facade.

:class:`Database` is the library's main entry point: register relations,
execute SQL, get exact DECIMAL results plus a simulated-time report.

    >>> from repro import Database
    >>> db = Database(simulate_rows=10_000_000)
    >>> db.register(relation)
    >>> result = db.execute("SELECT c1 + c2 FROM R")
    >>> result.report.total_seconds

``simulate_rows`` decouples correctness from cost: the arithmetic runs over
every registered row (bit-exactly), while the timing model charges the
paper's 10-million-tuple relations.  Pass ``simulate_rows=None`` to charge
the actual row count.

A repeated query is planned once: :class:`PlanCache` keeps each planned
text and reuses it while what its planning read of the catalog is
unchanged, so a repeat skips parsing, rewriting and planning and only
looks its kernels up again
(:func:`~repro.engine.plan.planner.kernel_view`).  A join-free plan under
an explicit ``simulate_rows`` read only its table's column names and
types, so it outlives appends; a plan with a join, or one made with
``simulate_rows`` unset, holds while the column versions it read do.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.decimal.value import DecimalValue
from repro.core.jit.expr_ast import ColumnRef
from repro.core.jit.pipeline import JitOptions, KernelCache
from repro.engine.executor import run_plan
from repro.engine.plan.cost import CostModel, OptimizerConfig, PlanStats, TableStats
from repro.engine.plan.physical import Batch, ExecutionReport, QueryContext
from repro.engine.plan.planner import PhysicalPlan, kernel_view, plan_query
from repro.engine.sql.ast_nodes import Query
from repro.engine.sql.parser import parse_query
from repro.errors import ExecutionError, QueryCancelledError
from repro.gpusim.device import DEFAULT_DEVICE, DEFAULT_HOST, GpuDevice, HostSystem
from repro.gpusim.residency import DeviceResidency
from repro.gpusim.streaming import StreamingConfig
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation
from repro.storage.schema import CharType, DecimalType

OutputValue = Union[DecimalValue, int, float, str]

#: Planned queries a :class:`PlanCache` keeps, least recently used evicted
#: first: room for every distinct text of a repeated workload.
PLAN_CACHE_ENTRIES = 64

#: What planning read of the catalog (:func:`_catalog_reads`): per table,
#: ``(column name, type)`` or ``(column name, version)`` of every column.
CatalogReads = Tuple[Tuple[Tuple[str, object], ...], ...]


@dataclass
class QueryResult:
    """Rows + timing of one executed query.

    ``query`` is the parsed statement, shared by every execution that
    reuses its plan: read it, do not edit it.
    """

    column_names: List[str]
    rows: List[Tuple[OutputValue, ...]]
    report: ExecutionReport
    query: Query

    @property
    def scalar(self) -> OutputValue:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ValueError("result is not scalar")
        return self.rows[0][0]


@dataclass(frozen=True)
class PlannedQuery:
    """A parsed and planned query, and what its planning read of the catalog.

    ``reads`` holds names, types and version numbers, never a column or a
    relation, so a kept plan pins no table data.
    """

    query: Query
    plan: PhysicalPlan
    reads: CatalogReads


class PlanCache:
    """Planned queries keyed by SQL text and every planning input (LRU).

    An entry is reused only while the catalog still reads as it did when
    the query was planned (:func:`_catalog_reads`); otherwise the query is
    planned again and the entry replaced.  A join-free entry under an
    explicit ``simulate_rows`` is checked against its table's column names
    and types, any other against every column version it read.  As in
    :class:`~repro.core.jit.pipeline.KernelCache`, an entry is inserted
    only whole, after planning returns, and counts a miss, and a reuse
    counts a hit.  Serving sessions share the cache; planning runs outside
    its lock, and a reused plan is never edited (a join node only keeps
    its build-side predicate mask, keyed by the column versions it read).
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[Tuple, PlannedQuery]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Tuple) -> Optional[PlannedQuery]:
        """The entry under ``key``, if any, refreshed as most recently used."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def reuse(self, entry: PlannedQuery, reads: CatalogReads) -> bool:
        """Whether ``entry`` was planned on ``reads``; counts a hit if so."""
        if entry.reads != reads:
            return False
        with self._lock:
            self.hits += 1
        return True

    def put(self, key: Tuple, entry: PlannedQuery) -> None:
        with self._lock:
            self.misses += 1
            self._entries[key] = entry
            self._entries.move_to_end(key)
            if len(self._entries) > PLAN_CACHE_ENTRIES:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


class Database:
    """An embedded UltraPrecise instance over the simulated GPU."""

    def __init__(
        self,
        simulate_rows: Optional[int] = None,
        device: GpuDevice = DEFAULT_DEVICE,
        host: HostSystem = DEFAULT_HOST,
        jit_options: Optional[JitOptions] = None,
        streaming: Optional[StreamingConfig] = None,
        optimizer: Optional[OptimizerConfig] = None,
    ):
        self.catalog = Catalog()
        self.device = device
        self.host = host
        if simulate_rows is not None:
            _check_simulate_rows(simulate_rows)
        self.simulate_rows = simulate_rows
        self.jit_options = jit_options if jit_options is not None else JitOptions()
        self.streaming = streaming if streaming is not None else StreamingConfig()
        self.optimizer = optimizer if optimizer is not None else OptimizerConfig()
        self.kernel_cache = KernelCache()
        self.plan_cache = PlanCache()
        #: Cross-query device residency of scanned columns.  ``None`` keeps
        #: single-query semantics -- every query ships its columns; the
        #: serving layer installs a shared tracker so concurrent sessions
        #: pay each transfer once per column version.
        self.residency: Optional[DeviceResidency] = None
        #: Serializes writers (``append``/``register``) against each other.
        #: Readers never take it: a query captures its relation snapshot in
        #: one catalog lookup and appends swap in *new* Relation/Column
        #: objects instead of mutating, so an in-flight reader keeps a
        #: consistent version throughout.
        self._write_lock = threading.Lock()

    # ----------------------------------------------------------------- DDL

    def register(self, relation: Relation, replace: bool = False) -> None:
        """Register a relation for querying."""
        self.catalog.register(relation, replace=replace)

    def drop(self, name: str) -> None:
        self.catalog.drop(name)

    def create_table(self, name: str, schema, rows=(), replace: bool = False):
        """Create and register a relation from host literals.

        ``schema`` maps column names to type strings (``"DECIMAL(20, 4)"``,
        ``"CHAR(8)"``, ``"INT"``, ``"DOUBLE"``, ``"DATE"``) or type
        objects; ``rows`` are tuples of Python literals.
        """
        from repro.engine.ddl import build_relation

        relation = build_relation(name, schema, rows)
        self.register(relation, replace=replace)
        return relation

    def append(self, name: str, rows: Sequence[Sequence]) -> Relation:
        """Append host-literal rows to a registered relation (INSERT).

        Snapshot isolation by construction: the merged table is built from
        *new* :class:`~repro.storage.column.Column` versions
        (:meth:`~repro.storage.column.Column.appended`: fresh version
        counters, carrying the old version's encoded chunks and register
        planes) and swapped into the catalog atomically, so a reader that
        captured the old relation keeps seeing exactly the rows it started
        with, while later queries -- and the device-residency and
        statistics caches, which key on column versions -- pick up the new
        data.  Every codec column is encoded before the swap, so rows a
        codec cannot hold raise :class:`~repro.errors.StorageError` here
        and the table keeps its old rows.  Writers serialize on the
        database write lock.
        """
        from repro.engine.ddl import build_relation

        with self._write_lock:
            current = self.catalog.get(name)
            schema = {column.name: column.column_type for column in current.columns}
            addition = build_relation(name, schema, rows)
            merged = Relation(
                name,
                [
                    old.appended(new)
                    for old, new in zip(current.columns, addition.columns)
                ],
            )
            self.catalog.register(merged, replace=True)
        return merged

    # ----------------------------------------------------------------- DML

    def execute(
        self,
        sql: str,
        include_scan: bool = True,
        simulate_rows: Optional[int] = None,
        streaming: Optional[StreamingConfig] = None,
        optimizer: Optional[OptimizerConfig] = None,
        cancel_check: Optional[Callable[[], bool]] = None,
    ) -> QueryResult:
        """Parse, plan, and execute a SELECT statement.

        ``include_scan=False`` leaves the host-side disk scan out of the
        simulated time, as the paper's experiments do.  ``simulate_rows``
        overrides the database-level setting for this query; an explicit
        ``0`` is honoured (charge nothing), only ``None``
        falls back, and a negative count raises
        :class:`repro.errors.ExecutionError`.  ``streaming`` and
        ``optimizer`` likewise override the database-level configs per
        query.

        A repeated text reuses its plan from :attr:`plan_cache` while no
        planning input (``simulate_rows``, ``optimizer``, the cost model --
        ``device``, ``host``, ``include_scan`` -- and ``jit_options``)
        changed and the catalog reads as it did at planning.  A join-free
        query under an explicit ``simulate_rows`` keeps its plan while its
        table keeps its column names and types, across appends; a join,
        whose order and algorithm statistics chose, or an unset
        ``simulate_rows``, which charges the row count, plans again once
        any column it read has a new version.  The kernels are looked up
        again in :attr:`kernel_cache`, so the compile charge is the one
        planning would give.

        ``cancel_check`` is polled once before planning or reusing a plan
        (planning compiles the query's kernels) and then at operator
        boundaries; when it returns True the query raises
        :class:`repro.errors.QueryCancelledError` (the serving layer's
        timeout path).
        """
        optimizer = optimizer if optimizer is not None else self.optimizer
        cost_model = CostModel(self.device, self.host, include_scan)
        setting = simulate_rows if simulate_rows is not None else self.simulate_rows
        key = (sql, setting, optimizer, cost_model, self.jit_options)
        cached = self.plan_cache.get(key)
        query = cached.query if cached is not None else parse_query(sql)
        relation = self.catalog.get(query.table)
        joined = {join.table: self.catalog.get(join.table) for join in query.joins}
        if cancel_check is not None and cancel_check():
            raise QueryCancelledError("query cancelled before planning")
        sim = self._resolve_simulate_rows(simulate_rows, relation)
        context = QueryContext(
            relation=relation,
            joined=joined,
            simulate_rows=sim,
            cost_model=cost_model,
            streaming=streaming if streaming is not None else self.streaming,
            optimizer=optimizer,
            residency=self.residency,
            cancel_check=cancel_check,
        )
        # With no simulate_rows setting the main table's row count is a
        # planning input, which only the column versions fix.
        reads = _catalog_reads(relation, joined, bool(query.joins) or setting is None)
        if cached is not None and self.plan_cache.reuse(cached, reads):
            chain = kernel_view(cached.plan, self.kernel_cache, self.jit_options)
        else:
            chain = plan_query(
                query,
                relation.column_names,
                {name: rel.column_names for name, rel in joined.items()},
                stats=self._plan_stats(relation, joined, sim),
                optimizer=optimizer,
                cost_model=cost_model,
                kernel_cache=self.kernel_cache,
                jit_options=self.jit_options,
            )
            self.plan_cache.put(key, PlannedQuery(query, chain, reads))
        batch = run_plan(chain, context)
        return QueryResult(
            column_names=self._output_names(query, batch),
            rows=self._materialise(query, batch),
            report=context.report,
            query=query,
        )

    def explain(
        self,
        sql: str,
        simulate_rows: Optional[int] = None,
        streaming: Optional[StreamingConfig] = None,
        measure_data_plane: bool = False,
        optimizer: Optional[OptimizerConfig] = None,
    ):
        """Plan (but do not fully execute) a query; returns an ExplainResult.

        Shows the rewritten operator chain with per-node cost estimates,
        the rewrite-rule trace, every kernel the JIT would generate (with
        its optimised expression and the Listing-1-style source), the
        simulated cost estimates -- priced as execution charges, at the
        planner's estimated rows -- and, with streaming enabled, each
        kernel's chunk count and pipelined-vs-serial estimate.  With
        ``measure_data_plane`` each kernel is also run once over the stored
        rows and its measured wall clock reported alongside the estimates.
        The plan compiles through a private kernel cache, so explaining
        never turns a later execution's compile into a cache hit, and it
        neither reads nor fills the plan cache: EXPLAIN always plans anew.
        A negative ``simulate_rows`` raises
        :class:`repro.errors.ExecutionError`.
        """
        from repro.engine.explain import explain_query

        query = parse_query(sql)
        relation = self.catalog.get(query.table)
        joined = {join.table: self.catalog.get(join.table) for join in query.joins}
        sim = self._resolve_simulate_rows(simulate_rows, relation)
        optimizer = optimizer if optimizer is not None else self.optimizer
        cost_model = CostModel(self.device, self.host)
        stats = self._plan_stats(relation, joined, sim)
        chain = plan_query(
            query,
            relation.column_names,
            {name: rel.column_names for name, rel in joined.items()},
            stats=stats,
            optimizer=optimizer,
            cost_model=cost_model,
            kernel_cache=KernelCache(),
            jit_options=self.jit_options,
        )
        result = explain_query(
            chain,
            relation,
            stats,
            cost_model,
            optimizer,
            streaming if streaming is not None else self.streaming,
            joined=joined,
            measure_data_plane=measure_data_plane,
        )
        result.sql = sql.strip()
        return result

    # ------------------------------------------------------------ plumbing

    def _plan_stats(self, relation: Relation, joined, simulate_rows: int) -> PlanStats:
        """Catalog statistics the planner's rules and cost model consume."""
        return PlanStats(
            main=TableStats.from_relation(relation),
            joined={name: TableStats.from_relation(rel) for name, rel in joined.items()},
            simulate_rows=simulate_rows,
        )

    def _resolve_simulate_rows(self, simulate_rows: Optional[int], relation) -> int:
        """Per-call override > database default > actual row count.

        Explicit ``is None`` checks, not truthiness: ``simulate_rows=0``
        must charge zero rows rather than silently fall through the chain.
        """
        if simulate_rows is None:
            simulate_rows = self.simulate_rows
        if simulate_rows is None:
            return relation.rows
        _check_simulate_rows(simulate_rows)
        return simulate_rows

    def _output_names(self, query: Query, batch: Batch) -> List[str]:
        names = []
        for item in query.select_items:
            name = item.name
            if name in batch.columns:
                names.append(name)
            elif (
                not item.is_aggregate
                and isinstance(item.tree, ColumnRef)
                and item.tree.name in batch.columns
            ):
                names.append(item.tree.name)
        return names or list(batch.columns)

    def _materialise(self, query: Query, batch: Batch) -> List[Tuple[OutputValue, ...]]:
        names = self._output_names(query, batch)
        columns = []
        for name in names:
            column = batch.columns[name]
            if isinstance(column.column_type, DecimalType):
                columns.append(
                    DecimalValue.column_from_unscaled_container(
                        column.unscaled(), column.column_type.spec
                    )
                )
            elif isinstance(column.column_type, CharType):
                columns.append([value.decode().rstrip() for value in column.data.tolist()])
            else:
                columns.append(column.data.tolist())
        return list(zip(*columns)) if columns else []


def _catalog_reads(
    relation: Relation, joined: Dict[str, Relation], by_version: bool
) -> CatalogReads:
    """What planning a query over ``relation`` and ``joined`` read of them.

    A join-free plan under an explicit ``simulate_rows`` reads only the
    main table's column names and types: an append, a column invalidation
    or a re-registration that keeps them changes nothing it decided.
    Otherwise (``by_version``) the plan read statistics or the row count,
    so it holds only while every column of each table keeps its version.
    """
    if by_version:
        return tuple(
            tuple((column.name, column.version) for column in table.columns)
            for table in (relation, *joined.values())
        )
    return (tuple((column.name, column.column_type) for column in relation.columns),)


def _check_simulate_rows(simulate_rows: int) -> None:
    """Refuse a negative count, which would charge negative time."""
    if simulate_rows < 0:
        raise ExecutionError(
            f"simulate_rows must be >= 0 (got {simulate_rows}); "
            "use simulate_rows=None to charge the actual row count"
        )
