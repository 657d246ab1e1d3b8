"""Outside-in span tracer for the benchmark's traced run.

The tracer wraps each layer's public entry point *where the name is looked
up* -- a module attribute, or a method on its class -- from the
benchmark's own files; the program itself is unchanged.  Every call
records a span ``(id, parent, request, name, start, end, self_seconds)``
in memory; a span's self time is its duration minus the time its child
spans cover.  Each root span (a ``Database.execute`` or
``Database.append``) starts a new request id that its children share.
Spans are kept per thread, so reads served on a worker thread nest
correctly.
"""

from __future__ import annotations

import contextlib
import gzip
import itertools
import json
import threading
import time
from collections import Counter
from typing import Callable, List, Optional

from repro.analysis import plan as analysis_plan
from repro.core.decimal.vectorized import DecimalVector
from repro.core.jit import pipeline as jit_pipeline
from repro.core.jit.pipeline import KernelCache
from repro.core.multithread import aggregation as mt_aggregation
from repro.engine import session as engine_session
from repro.engine.plan import cost as plan_cost
from repro.engine.plan import physical
from repro.engine.plan import planner as plan_planner
from repro.engine.plan import stats as plan_stats
from repro.gpusim import executor as gpu_executor
from repro.gpusim import streaming as gpu_streaming
from repro.storage.column import Column

#: Physical operator classes and the short names their metrics use.
OPERATORS = {
    physical.ScanOp: "scan",
    physical.FilterOp: "filter",
    physical.HashJoinOp: "hash_join",
    physical.NestedLoopJoinOp: "nested_loop_join",
    physical.ProjectOp: "project",
    physical.AggregateOp: "aggregate",
    physical.GroupAggregateOp: "group_aggregate",
    physical.SortOp: "sort",
    physical.LimitOp: "limit",
    physical.DropOp: "drop",
}

#: Span fields, in the order each record stores them.
SPAN_FIELDS = ("id", "parent", "request", "name", "start", "end", "self_seconds")


class Tracer:
    """Records spans and counts at the layer boundaries while installed."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._session_caches: List[KernelCache] = []

    # ---------------------------------------------------------- recording

    def _wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording a span; ``after(args, result, before(args))`` counts."""
        tracer = self

        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent_id, request = stack[-1][0], stack[-1][1]
            else:
                parent_id, request = 0, next(tracer._requests)
            frame = [next(tracer._ids), request, 0.0]
            stack.append(frame)
            token = before(args) if before is not None else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                tracer.spans.append(
                    (frame[0], parent_id, request, name, start, end, duration - frame[2])
                )
            if after is not None:
                after(args, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, name: str, after=None, before=None) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__, after, before))
        else:
            wrapped = self._wrap(name, raw, after, before)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    def install(self, database) -> None:
        """Wrap every traced entry point; ``database`` owns the session cache."""
        self._session_caches.append(database.kernel_cache)
        patch = self._patch
        patch(engine_session.Database, "execute", "session.execute")
        patch(engine_session.Database, "append", "storage.append")
        patch(engine_session, "parse_query", "sql.parse")
        patch(engine_session, "plan_query", "planner.plan")
        patch(engine_session, "run_plan", "executor.run_plan")
        patch(plan_planner, "apply_rules", "rules.apply", self._rules_fired)
        patch(analysis_plan, "analyze_plan", "analysis.plan")
        patch(KernelCache, "compile", "jit.lookup", self._cache_outcome)
        patch(jit_pipeline, "compile_expression", "jit.compile")
        for op_class, short in OPERATORS.items():
            patch(op_class, "run", f"op.{short}", self._op_rows(short))
        patch(gpu_executor, "execute", "gpusim.execute")
        patch(gpu_streaming, "execute", "gpusim.execute")
        patch(physical, "execute_streamed", "streaming.execute_streamed")
        patch(mt_aggregation, "aggregate", "mt.aggregate")
        patch(DecimalVector, "from_compact", "decimal.from_compact")
        patch(DecimalVector, "to_unscaled", "decimal.to_unscaled")
        patch(Column, "decimal_vector", "decimal.vector")
        patch(Column, "encoding", "storage.encoding", self._count_encode, self._encode_miss)
        patch(plan_stats, "column_stats", "stats.lookup")
        patch(plan_stats, "collect_column_stats", "stats.collect")
        patch(plan_cost.TableStats, "from_relation", "cost.table_stats")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def recording(self, database):
        """Trace while the timed phase runs."""
        self.install(database)
        try:
            yield
        finally:
            self.uninstall()

    # ---------------------------------------------------- count observers

    def _rules_fired(self, args, result, _):
        self.counts["rules.fired"] += len(result[1])

    def _cache_outcome(self, args, result, _):
        owner = "session" if any(args[0] is c for c in self._session_caches) else "analysis"
        self.counts[f"jit.{'hits' if result[1] else 'misses'}.{owner}"] += 1

    @staticmethod
    def _encode_miss(args) -> bool:
        """Whether this ``Column.encoding`` call will encode (a cache miss)."""
        column = args[0]
        return column.codec is not None and column.cached_encoding() is None

    def _count_encode(self, args, result, miss: bool):
        self.counts["storage.encode_calls"] += miss

    def _op_rows(self, short: str):
        def after(args, result, _):
            batch = args[1]
            self.counts[f"op.{short}.rows_out"] += result.rows
            self.counts[f"op.{short}.rows_in"] += result.rows if batch is None else batch.rows

        return after

    # ------------------------------------------------------------- output

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line (gzip)."""
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")
