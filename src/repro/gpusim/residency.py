"""Cross-query device residency of columns.

A single query charges PCIe for every column it scans.  When many sessions
share one simulated device, a column already shipped by an earlier query is
still resident in device memory, so later queries should not pay the
transfer again -- the same reuse the PR 3 version counters enable for
register expansions, lifted to the device level.

Residency is keyed by ``(relation, column, version)``: an append builds new
:class:`~repro.storage.column.Column` objects with fresh versions, so a
stale resident copy is never reused after a write -- readers of the old
snapshot keep hitting their version, readers of the new one re-ship.

Eviction is LRU by bytes against a budget (a fraction of device DRAM,
leaving room for working sets).  All methods are thread-safe: sessions run
on a thread pool.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Tuple

from repro.gpusim.device import DEFAULT_DEVICE, GpuDevice

#: Fraction of device memory the resident column pool may occupy.
DEFAULT_MEMORY_FRACTION = 0.5

ResidencyKey = Tuple[str, str, int]


class DeviceResidency:
    """LRU set of device-resident column versions with a byte budget."""

    def __init__(
        self,
        device: GpuDevice = DEFAULT_DEVICE,
        memory_fraction: float = DEFAULT_MEMORY_FRACTION,
    ) -> None:
        if not 0.0 < memory_fraction <= 1.0:
            raise ValueError(f"memory_fraction must be in (0, 1], got {memory_fraction}")
        self.budget_bytes = int(device.memory_bytes * memory_fraction)
        self._entries: "OrderedDict[ResidencyKey, int]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def admit(self, key: ResidencyKey, nbytes: int) -> bool:
        """Record a transfer; returns True when the column must be shipped.

        A hit (already resident) refreshes LRU order and returns False.  A
        miss inserts the column, evicting least-recently-used entries until
        the pool fits the budget, and returns True -- the caller charges
        the PCIe transfer exactly when this returns True.
        """
        nbytes = int(nbytes)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return False
            self.misses += 1
            if nbytes > self.budget_bytes:
                # Larger than the whole pool: ship it, never cache it.
                return True
            self._entries[key] = nbytes
            self._bytes += nbytes
            while self._bytes > self.budget_bytes and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted
            return True

    def resident(self, key: ResidencyKey) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0
