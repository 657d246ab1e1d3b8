"""Query executor: runs a physical operator chain bottom-up (Figure 3)."""

from __future__ import annotations

from typing import List, Optional

from repro.engine.plan.physical import Batch, PhysicalOp, QueryContext
from repro.errors import QueryCancelledError


def run_plan(chain: List[PhysicalOp], context: QueryContext) -> Batch:
    """Execute the operator chain and return the final batch.

    ``context.cancel_check`` is polled at every operator boundary: a
    timed-out or abandoned query stops before its next operator, leaving
    the shared kernel cache and residency state consistent (entries are
    only ever inserted whole, between the poll points).
    """
    batch: Optional[Batch] = None
    for op in chain:
        if context.cancel_check is not None and context.cancel_check():
            raise QueryCancelledError(
                f"query cancelled before {type(op).__name__}"
            )
        batch = op.run(batch, context)
    cost = context.cost_model
    # Streaming defers scan-time H2D copies so kernels can overlap them;
    # columns no kernel consumed (filter/join/group keys, unused scans)
    # still have to reach the device -- charge them serially here so the
    # streamed report never undercounts relative to the serial path.
    if context.pending_transfer:
        leftover = sum(context.pending_transfer.values())
        context.pending_transfer.clear()
        if leftover:
            context.report.pcie_seconds += cost.transfer(leftover)
            context.report.pcie_bytes += leftover
    context.report.pipeline_seconds += cost.pipeline(len(chain), context.simulate_rows)
    assert batch is not None
    return batch
