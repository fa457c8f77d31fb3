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
from .hierarchy import AccessResult
from .stats import MemoryStats
from .tlb import Tlb
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


class LlcSideMemory:
    """Memory path for an LLC-side Widx: buffer -> LLC (no crossbar) -> DRAM.

    Implements the same interface as :class:`MemoryHierarchy`, so the Widx
    machine runs unmodified on either placement.
    """

    def __init__(self, cfg: SystemConfig) -> None:
        self.cfg = cfg
        self.tlb = Tlb(LLC_SIDE_TLB)
        self.l1d = CacheLevel(LLC_SIDE_BUFFER, "widx-buffer")
        self.llc = CacheLevel(cfg.llc, "LLC")
        self.dram = MemoryControllers(cfg.dram, cfg.freq_ghz,
                                      cfg.llc.block_bytes)
        self.stats = MemoryStats()
        self.stats.l1d = self.l1d.stats
        self.stats.llc = self.llc.stats
        self.stats.tlb = self.tlb.stats

    # -- timed paths -----------------------------------------------------

    def load(self, addr: int, now: float) -> AccessResult:
        """A demand load on the LLC-side path."""
        self.stats.loads += 1
        return self._access(addr, now)

    def store(self, addr: int, now: float) -> AccessResult:
        """A store on the LLC-side path."""
        self.stats.stores += 1
        return self._access(addr, now)

    def touch(self, addr: int, now: float) -> AccessResult:
        """A non-binding prefetch on the LLC-side path."""
        self.l1d.stats.prefetches += 1
        return self._access(addr, now)

    def _access(self, addr: int, now: float) -> AccessResult:
        translated, tlb_stall = self.tlb.translate(addr, now)
        block = self.l1d.block_of(addr)
        port_time = self.l1d.port_grant(translated)
        outcome = self.l1d.probe(block, port_time)
        if outcome is None:
            return AccessResult(port_time + LLC_SIDE_BUFFER.latency_cycles,
                                tlb_stall, "L1")
        if outcome >= 0:
            return AccessResult(
                max(outcome, port_time + LLC_SIDE_BUFFER.latency_cycles),
                tlb_stall, "L1")
        miss_start = self.l1d.begin_miss(port_time)
        # Adjacent to the LLC: no crossbar traversal in either direction.
        llc_port = self.llc.port_grant(miss_start)
        llc_outcome = self.llc.probe(block, llc_port)
        if llc_outcome is None:
            data = llc_port + self.cfg.llc.latency_cycles
            level = "LLC"
        elif llc_outcome >= 0:
            data = max(llc_outcome, llc_port + self.cfg.llc.latency_cycles)
            level = "LLC"
        else:
            llc_miss_start = self.llc.begin_miss(llc_port)
            data = self.dram.fetch(block, llc_miss_start)
            self.llc.finish_miss(block, data)
            self.stats.dram_blocks += 1
            level = "DRAM"
        self.l1d.finish_miss(block, data)
        return AccessResult(data, tlb_stall, level)

    # -- functional warm-up ------------------------------------------------

    def warm_block(self, addr: int, level: str = "llc") -> None:
        """Install one block (and translation) with no timing effect."""
        warm.warm_range(self, addr, 1, level, 1)

    def warm_range(self, base: int, size: int, level: str = "llc") -> None:
        """Warm every block of a byte range."""
        warm.warm_range(self, base, size, level, self.cfg.l1d.block_bytes)

    # -- observability -----------------------------------------------------

    def register_into(self, registry, prefix: str = "mem",
                      include_shared: bool = True) -> None:
        """Publish every component's counters under ``prefix`` (same
        protocol as :meth:`MemoryHierarchy.register_into`; there is no
        crossbar on this path)."""
        self.stats.register_into(registry, prefix)
        self.tlb.register_into(registry, f"{prefix}.tlb")
        self.l1d.register_into(registry, f"{prefix}.l1d")
        if include_shared:
            self.llc.register_into(registry, f"{prefix}.llc")
            self.dram.register_into(registry, f"{prefix}.dram")
