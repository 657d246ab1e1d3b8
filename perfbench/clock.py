"""Host time in reference seconds: wall time corrected for the host's speed.

The benchmark runs on a few cores of a shared host whose other tenants
change its speed by up to 2x, in spells of one to ten seconds; CPU time
equals wall time, so no clock of the process sees it.  Wall times of two
runs of the same code then differ by 20-50%.

A fixed probe task -- Python big-integer arithmetic, a dict, a sort and a
small NumPy kernel, sharing nothing with the program -- runs before and
after each measured operation.  The operation's wall time is multiplied by
``REFERENCE_PROBE_SECONDS`` over the mean of the two probe times: it reads
as the time the operation would take while the probe takes its reference
time.  The probe keeps no object alive: the garbage collector's count of
tracked objects is the same after it as before, so the program's
collections fall where its own allocations put them.
perfbench/README.md gives the spreads with and without the probe.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

#: The probe's time on a 2-vCPU Xeon VM at 2.0 GHz while the host was quiet
#: (the fastest of a few thousand probes); reference seconds are that
#: machine's quiet-host seconds.
REFERENCE_PROBE_SECONDS = 0.145e-3


class ReferenceClock:
    """Probes the host's speed between measured operations."""

    def __init__(self) -> None:
        self._table = dict.fromkeys(range(64), 0)
        self._values = [0] * 64
        self._vector = np.arange(4096, dtype=np.int64)
        self._previous: Optional[float] = None

    def _probe(self) -> float:
        """Seconds the fixed probe task takes now."""
        table, values = self._table, self._values
        start = time.perf_counter()
        x = 10**40 + 12345
        for i in range(300):
            # The modulus is recomputed each time, as part of the fixed work.
            x = (x * 1_000_003 + i) % pow(10, 60)
            table[i & 63] = x
        values[:] = table.values()
        values.sort()
        int((self._vector * 3 + values[0] % 2).sum())
        return time.perf_counter() - start

    def mark(self) -> float:
        """Probe now; the factor turning wall seconds since the last mark
        into reference seconds.  The first mark only starts the clock."""
        now = self._probe()
        previous = now if self._previous is None else self._previous
        self._previous = now
        return 2.0 * REFERENCE_PROBE_SECONDS / (previous + now)
