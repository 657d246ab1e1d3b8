"""Row-at-a-time reference loops of the physical join, group-by and filter.

These are the per-row loops that the columnar operators of
:mod:`repro.engine.plan.physical` replaced, kept as the bit-exactness
oracle of the differential tests -- the operator-level counterpart of
:mod:`repro.core.decimal.reference`:

* join and group keys are per-row Python values (:func:`key_values`);
* the hash join builds a dict of right rows and probes it row by row, and
  the nested-loop join compares every pair;
* the group-by collects each group's rows in a dict, sorts the keys, and
  reduces every group with its own
  :func:`~repro.core.multithread.aggregation.aggregate` call;
* a DECIMAL filter compares every value with the literal as exact rationals.

Nothing in the engine calls this module; it must stay row-at-a-time even
if that is slow, because that *is* the point of keeping it.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.decimal import inference
from repro.core.decimal.context import DecimalSpec
from repro.core.multithread import aggregation as mt_aggregation
from repro.engine.plan.cost import AGGREGATION_TPI
from repro.engine.plan.physical import (
    Batch,
    GroupAggregateOp,
    QueryContext,
    _column_from_keys,
    _evaluate_expression,
)
from repro.engine.sql.ast_nodes import AggregateCall
from repro.gpusim.timing import GROUP_GATHER_BANDWIDTH
from repro.storage.column import Column
from repro.storage.schema import CharType, DecimalType


def key_values(columns: Sequence[Column]) -> List[List]:
    """Per-row Python key values of ``columns``, comparable across them.

    DECIMALs become unscaled ints aligned to the widest scale among
    ``columns`` (INT and DATE count as scale 0); CHARs drop trailing
    whitespace.
    """
    scale = max(
        (
            column.column_type.spec.scale
            for column in columns
            if isinstance(column.column_type, DecimalType)
        ),
        default=0,
    )
    keys: List[List] = []
    for column in columns:
        column_type = column.column_type
        if isinstance(column_type, DecimalType):
            factor = 10 ** (scale - column_type.spec.scale)
            keys.append([value * factor for value in column.unscaled()])
        elif isinstance(column_type, CharType):
            keys.append([value.decode().rstrip() for value in column.data.tolist()])
        else:
            keys.append([value * 10**scale for value in column.data.tolist()])
    return keys


def hash_join(left_keys: List, right_keys: List) -> Tuple[List[int], List[int]]:
    """Matching ``(left, right)`` row pairs: dict build, row-by-row probe."""
    build: Dict = {}
    for row, key in enumerate(right_keys):
        build.setdefault(key, []).append(row)
    left_indices: List[int] = []
    right_indices: List[int] = []
    for row, key in enumerate(left_keys):
        for match in build.get(key, ()):
            left_indices.append(row)
            right_indices.append(match)
    return left_indices, right_indices


def nested_loop_join(left_keys: List, right_keys: List) -> Tuple[List[int], List[int]]:
    """Matching ``(left, right)`` row pairs by comparing every pair."""
    left_indices: List[int] = []
    right_indices: List[int] = []
    for row, key in enumerate(left_keys):
        for match, right_key in enumerate(right_keys):
            if key == right_key:
                left_indices.append(row)
                right_indices.append(match)
    return left_indices, right_indices


def group_aggregate(op: GroupAggregateOp, batch: Batch, context: QueryContext) -> Batch:
    """``op.run`` as one reduction per group.

    Returns the same batch and charges the same ``aggregate_seconds``
    (payload gathers, then each group's passes, group by group); the key
    sort charge is left out.
    """
    keys = [key_values([batch.column(name)])[0] for name in op.group_by]
    rows = batch.rows
    composite = list(zip(*keys)) if keys else [()] * rows
    group_order: Dict[Tuple, List[int]] = {}
    for row, key in enumerate(composite):
        group_order.setdefault(key, []).append(row)
    groups = sorted(group_order)

    sim_n = max(int(round(batch.simulated_rows)), 1)
    charged = max(int(sim_n / max(len(groups), 1)), 1)
    calls: List[AggregateCall] = []
    for item in op.items:
        assert isinstance(item.expression, AggregateCall)
        calls.append(item.expression)
    vectors: Dict[int, Tuple[List[int], DecimalSpec]] = {}
    for index, call in enumerate(calls):
        if call.function != "COUNT":
            vector = _evaluate_expression(op.items[index], batch, context, op.kernels[index])
            vectors[index] = (vector.to_unscaled(), vector.spec)
            value_bytes = 4 * vector.spec.words + 1
            context.report.aggregate_seconds += (
                batch.simulated_rows * value_bytes / GROUP_GATHER_BANDWIDTH
            )

    out: Dict[str, List] = {name: [] for name in op.group_by}
    results: Dict[str, List[int]] = {item.name: [] for item in op.items}
    for key in groups:
        indices = group_order[key]
        for position, name in enumerate(op.group_by):
            out[name].append(key[position])
        for index, (item, call) in enumerate(zip(op.items, calls)):
            if call.function == "COUNT":
                results[item.name].append(len(indices))
                continue
            unscaled, spec = vectors[index]
            run = mt_aggregation.aggregate(
                [unscaled[i] for i in indices],
                spec,
                op=call.function.lower(),
                tpi=AGGREGATION_TPI,
                device=context.cost_model.device,
                simulate_tuples=charged,
            )
            context.report.aggregate_seconds += run.seconds
            results[item.name].append(run.value)

    columns = {
        name: _column_from_keys(name, out[name], batch.column(name)) for name in op.group_by
    }
    for index, (item, call) in enumerate(zip(op.items, calls)):
        if call.function == "COUNT":
            spec = inference.count_spec(sim_n)
        else:
            spec = mt_aggregation.result_spec(call.function.lower(), vectors[index][1], charged)
        columns[item.name] = Column.decimal_from_unscaled(item.name, results[item.name], spec)
    return Batch(columns=columns, rows=len(groups), simulated_rows=float(len(groups)))


_COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def decimal_predicate(column: Column, op: str, literal) -> np.ndarray:
    """``column <op> literal`` for a DECIMAL column, over exact rationals."""
    assert isinstance(column.column_type, DecimalType)
    target = Fraction(str(literal))
    scale = 10**column.column_type.spec.scale
    compare = _COMPARISONS[op]
    return np.array(
        [compare(Fraction(value, scale), target) for value in column.unscaled()],
        dtype=bool,
    )
