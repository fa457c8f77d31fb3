"""TLB model with the paper's in-flight translation limit.

The paper's Table 2 lists "TLB: 2 in-flight translations" — the host MMU
(shared with Widx) can service at most two page walks concurrently.  Widx
has no TLB of its own; all units fault into the host MMU, so this module is
shared by the baseline cores and the accelerator.

A page walk is modelled as a fixed latency (``miss_latency_cycles``); the
paper reports TLB miss ratios of at most ~3% (Large hash-join index) and
TLB stall shares of at most 8% of walker cycles, which this model
reproduces without simulating the radix walk itself.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..config import TlbConfig
from ..sim.resources import OccupancyPool
from .stats import TlbStats


class Tlb:
    """LRU TLB with a bounded number of concurrent page walks.

    Entry recency uses the same monotone-tick scheme as
    :class:`repro.mem.cache.CacheArray`: hits are one dict store, and a
    full-table insert evicts the minimum-tick (least-recently-used) page —
    identical victims to the ordered-dict implementation it replaced.
    """

    __slots__ = ("cfg", "_page_bits", "_entries", "_walks", "stats",
                 "_inflight", "_tick")

    def __init__(self, cfg: TlbConfig) -> None:
        self.cfg = cfg
        self._page_bits = cfg.page_bytes.bit_length() - 1
        self._entries: Dict[int, int] = {}
        self._tick = 0
        self._walks = OccupancyPool(capacity=cfg.in_flight)
        self.stats = TlbStats()
        # In-flight walks by page -> completion, so concurrent misses to one
        # page share a single walk.
        self._inflight: dict = {}

    @property
    def walks(self) -> OccupancyPool:
        """The bounded page-walk pool (exposed for leak checks/diagnostics)."""
        return self._walks

    def page_of(self, addr: int) -> int:
        """The page number an address falls in."""
        return addr >> self._page_bits

    def translate(self, addr: int, now: float) -> Tuple[float, float]:
        """Translate ``addr`` at time ``now``.

        Returns ``(ready_time, stall_cycles)`` where ``ready_time`` is when
        the physical address is available and ``stall_cycles`` is the
        translation stall attributed to this access (0 on a hit).
        """
        page = addr >> self._page_bits
        stats = self.stats
        stats.accesses.value += 1
        entries = self._entries
        pending = self._inflight.get(page)
        if pending is not None:
            if pending > now:
                # Share the in-flight walk instead of starting another.
                stall = pending - now
                stats.stall_cycles.value += stall
                return pending, stall
            del self._inflight[page]
        if page in entries:
            self._tick = tick = self._tick + 1
            entries[page] = tick
            return now, 0.0
        stats.misses.value += 1
        start = self._walks.acquire(now)
        done = start + self.cfg.miss_latency_cycles
        self._walks.release_at(done)
        self._inflight[page] = done
        self._insert(page)
        stall = done - now
        stats.stall_cycles.value += stall
        return done, stall

    def _insert(self, page: int) -> None:
        entries = self._entries
        self._tick = tick = self._tick + 1
        if page in entries:
            entries[page] = tick
            return
        if len(entries) >= self.cfg.entries:
            del entries[min(entries, key=entries.get)]
        entries[page] = tick

    def warm(self, addr: int) -> None:
        """Install the page translation with no timing effect."""
        self._insert(self.page_of(addr))

    def warm_run(self, pages: range, ends: Sequence[int]) -> None:
        """Install ``pages`` in order with no timing effect, page ``i``
        left at the tick ``ends[i]`` steps on — where a run of per-block
        :meth:`warm` calls over the same range leaves it (see
        :mod:`repro.mem.warm`)."""
        tick = self._tick
        insert = self._insert
        for page, end in zip(pages, ends):
            self._tick = tick + end - 1
            insert(page)

    def register_into(self, registry, prefix: str) -> None:
        """Publish TLB counters and page-walk occupancy under ``prefix``."""
        self.stats.register_into(registry, prefix)
        self._walks.register_into(registry, f"{prefix}.walks")
