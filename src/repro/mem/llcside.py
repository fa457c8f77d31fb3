"""LLC-side Widx placement (Section 7's alternative design point).

The paper weighs moving Widx next to the LLC instead of coupling it to a
core: **advantages** — lower LLC access latency (no crossbar hop) and no
pressure on the core's L1 MSHRs; **disadvantages** — it needs its own
address-translation logic and a dedicated low-latency buffer to recover
the data locality the host L1 used to provide (plus an exception path).

This module models that design: accesses translate through a *dedicated*
TLB, look up a small private buffer (the "dedicated low-latency storage"),
and on a miss go straight to the LLC with no interconnect latency.  The
paper concludes the balance favors the core-coupled design; the ablation
benchmark measures where each placement wins.
"""

from __future__ import annotations

from ..config import CacheConfig, SystemConfig, TlbConfig
from .cache import CacheLevel
from .dram import MemoryControllers
from .hierarchy import AccessResult, MemoryPath, access_result, llc_fetch
from . import warm

#: The dedicated buffer next to the LLC-side Widx: small and fast, with a
#: generous MSHR pool (the design is not sharing a core's ten).
LLC_SIDE_BUFFER = CacheConfig(size_bytes=16 * 1024, block_bytes=64,
                              associativity=8, latency_cycles=2,
                              ports=2, mshrs=16)

#: The dedicated translation logic: smaller reach than the host MMU's TLB
#: but with the same two-walker limit (it reuses the host page-walk
#: machinery for misses, per the paper's exception-handling discussion).
LLC_SIDE_TLB = TlbConfig(entries=128, page_bytes=64 * 1024, in_flight=2,
                         miss_latency_cycles=35)


class LlcSideMemory(MemoryPath):
    """Memory path for an LLC-side Widx: buffer -> LLC (no crossbar) -> DRAM.

    Implements the same interface as :class:`MemoryHierarchy`, so the Widx
    machine runs unmodified on either placement.
    """

    def __init__(self, cfg: SystemConfig) -> None:
        super().__init__(cfg, LLC_SIDE_TLB, LLC_SIDE_BUFFER, "widx-buffer")
        self.llc = CacheLevel(cfg.llc, "LLC")
        self.dram = MemoryControllers(cfg.dram, cfg.freq_ghz,
                                      cfg.llc.block_bytes)
        self.stats.llc = self.llc.stats

    def _miss(self, block: int, miss_start: float,
              tlb_stall: float) -> AccessResult:
        # Adjacent to the LLC: no crossbar traversal in either direction.
        data, level = llc_fetch(self, block, miss_start)
        self.l1d.finish_miss(block, data)
        return access_result((data, tlb_stall, level))

    def warm_range(self, base: int, size: int, level: str = "llc") -> None:
        """Warm every block of a byte range."""
        warm.warm_range(self, base, size, level, self.cfg.l1d.block_bytes)
