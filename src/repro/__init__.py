"""UltraPrecise reproduction: GPU-style arbitrary-precision DECIMAL for DBs.

A faithful Python reproduction of *UltraPrecise: A GPU-Based Framework for
Arbitrary-Precision Arithmetic in Database Systems* (ICDE 2024): the JIT
expression engine, the compact/word-aligned decimal representations, the
PTX-level operator optimisations, CGBN-style multi-threaded arithmetic,
and the full evaluation harness -- over a simulated GPU (see DESIGN.md).

Quickstart::

    from repro import Database, DecimalSpec
    from repro.storage import Column, Relation

    spec = DecimalSpec(35, 5)
    relation = Relation("r", [Column.decimal_from_unscaled("c1", [150_000_00000], spec)])
    db = Database()
    db.register(relation)
    print(db.execute("SELECT c1 * 2 FROM r").rows)
"""

import sys

from repro.core.decimal import DecimalSpec, DecimalValue, DecimalVector, spec_for_len
from repro.core.jit import JitOptions, compile_expression
from repro.engine import Database, QueryResult
from repro.gpusim.streaming import StreamingConfig

# Python >= 3.11 caps int<->str conversion at 4300 digits as a DoS guard.
# An arbitrary-precision decimal library legitimately renders values far
# wider (the paper's intro cites 20,000-digit workloads), so raise the cap
# once at import.  Only ever raise it -- never lower a user's setting (0
# means no cap).  No module converts an int that wide while it is imported.
_MIN_STR_DIGITS = 1_000_000
if hasattr(sys, "set_int_max_str_digits"):
    if 0 < sys.get_int_max_str_digits() < _MIN_STR_DIGITS:
        sys.set_int_max_str_digits(_MIN_STR_DIGITS)

__version__ = "1.0.0"

__all__ = [
    "Database",
    "DecimalSpec",
    "DecimalValue",
    "DecimalVector",
    "JitOptions",
    "QueryResult",
    "StreamingConfig",
    "compile_expression",
    "spec_for_len",
    "__version__",
]
