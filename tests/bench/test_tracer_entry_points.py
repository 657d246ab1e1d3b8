"""perfbench's tracer still finds every entry point it wraps.

The traced run (``perfbench/tracer.py``) patches the program's layer
entry points by name, so renaming or deleting one breaks it.  This runs
the tracer over one read and one append on a small database: every layer
must record its span, and every patched attribute must be the original
again once the recording ends.
"""

import importlib
from pathlib import Path

from repro.engine import Database

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

#: Spans a planned read with a kernel and an append record.
LAYERS = {
    "session.execute",
    "planner.plan",
    "executor.run_plan",
    "gpusim.execute",
    "storage.append",
}


def test_one_read_and_one_append_record_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    db = Database(simulate_rows=1_000_000)
    db.create_table(
        "t",
        {"a": "DECIMAL(12, 2)", "b": "DECIMAL(8, 3)"},
        rows=[(f"{k}.25", f"0.{k:03d}") for k in range(8)],
    )
    try:
        with tracer.recording(db):
            patched = list(tracer._patches)
            db.execute("SELECT SUM(a * b) AS s FROM t WHERE a > 1.00")
            db.append("t", [("9.50", "0.125")])
    finally:
        tracer.uninstall()  # undoes a failed install, so later tests run untraced
    assert LAYERS <= {span[3] for span in tracer.spans}
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
