"""The full memory hierarchy: TLB → L1-D → crossbar → LLC → DRAM.

This is the timing heart of the reproduction.  Every load/store issued by a
baseline core model or a Widx unit flows through :meth:`MemoryHierarchy.load`
or :meth:`MemoryHierarchy.store`, which:

1. translates through the shared TLB (bounded in-flight page walks),
2. wins an L1-D port (2 ports, 1 access/port/cycle),
3. on an L1 miss, claims an MSHR (10; same-block misses combine),
4. traverses the crossbar to the LLC (6-cycle hit),
5. on an LLC miss, fetches the block from a bandwidth-limited memory
   controller (45 ns + transfer slot),

returning an :class:`AccessResult` with the completion time and a
TLB-vs-memory stall attribution used by the Figure 8/9 cycle breakdowns.

Simplifications (documented per DESIGN.md): write-backs of dirty victims do
not consume modelled bandwidth, and the L1-I side is not modelled (Widx
units fetch from a tiny instruction buffer; the baseline indexing loops fit
in the L1-I).  Neither affects who wins or where crossovers fall: both add
small constant factors to all designs equally.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SystemConfig
from .cache import CacheLevel
from .dram import MemoryControllers
from .interconnect import Crossbar
from .stats import MemoryStats
from .tlb import Tlb
from . import warm


@dataclass(frozen=True)
class AccessResult:
    """Timing outcome of one memory access."""

    complete: float        # absolute cycle the data is usable (load-to-use)
    tlb_stall: float       # cycles attributable to address translation
    level: str             # 'L1' | 'LLC' | 'DRAM' — where the data came from

    def latency(self, issued: float) -> float:
        """Cycles from issue to data-usable."""
        return self.complete - issued


class MemoryHierarchy:
    """Timing model of one core's view of the memory system.

    ``shared_llc`` / ``shared_dram`` let several cores' hierarchies share
    one LLC and one memory-controller bank — the Table 2 CMP, where four
    cores contend for the 4 MB LLC and two DDR3 channels (see
    :mod:`repro.cmp`).  TLB, L1-D and the crossbar port stay private.
    """

    def __init__(self, cfg: SystemConfig,
                 shared_llc: CacheLevel = None,
                 shared_dram: MemoryControllers = None) -> None:
        self.cfg = cfg
        self.tlb = Tlb(cfg.tlb)
        self.l1d = CacheLevel(cfg.l1d, "L1-D")
        self.llc = (shared_llc if shared_llc is not None
                    else CacheLevel(cfg.llc, "LLC"))
        self.crossbar = Crossbar(cfg.interconnect_cycles)
        self.dram = (shared_dram if shared_dram is not None
                     else MemoryControllers(cfg.dram, cfg.freq_ghz,
                                            cfg.llc.block_bytes))
        self.stats = MemoryStats()
        # Share the per-level stats objects so both views stay consistent.
        self.stats.l1d = self.l1d.stats
        self.stats.llc = self.llc.stats
        self.stats.tlb = self.tlb.stats

    # ------------------------------------------------------------------
    # Timed access paths
    # ------------------------------------------------------------------

    def load(self, addr: int, now: float) -> AccessResult:
        """A demand load issued at time ``now``."""
        self.stats.loads.value += 1
        return self._access(addr, now)

    def store(self, addr: int, now: float) -> AccessResult:
        """A store issued at time ``now`` (write-allocate, write-back)."""
        self.stats.stores.value += 1
        return self._access(addr, now)

    def touch(self, addr: int, now: float) -> AccessResult:
        """A prefetch (Widx TOUCH): starts the fill; caller does not wait."""
        self.l1d.stats.prefetches.value += 1
        return self._access(addr, now)

    def _access(self, addr: int, now: float) -> AccessResult:
        translated, tlb_stall = self.tlb.translate(addr, now)
        l1d = self.l1d
        block = addr >> l1d.array.block_bits
        port_time = l1d.port_grant(translated)
        outcome = l1d.probe(block, port_time)
        if outcome is None:  # L1 hit
            return AccessResult(port_time + self.cfg.l1d.latency_cycles,
                                tlb_stall, "L1")
        if outcome >= 0:  # combined with an in-flight miss
            return AccessResult(max(outcome, port_time + self.cfg.l1d.latency_cycles),
                                tlb_stall, "L1")
        # Fresh L1 miss: MSHR, then LLC.
        llc = self.llc
        miss_start = l1d.begin_miss(port_time)
        llc_arrival = self.crossbar.traverse(miss_start)
        llc_block = block  # block sizes match by config invariant
        llc_port = llc.port_grant(llc_arrival)
        llc_outcome = llc.probe(llc_block, llc_port)
        if llc_outcome is None:  # LLC hit
            data_at_llc = llc_port + self.cfg.llc.latency_cycles
            level = "LLC"
        elif llc_outcome >= 0:  # combined at the LLC
            data_at_llc = max(llc_outcome, llc_port + self.cfg.llc.latency_cycles)
            level = "LLC"
        else:  # LLC miss: off-chip
            llc_miss_start = llc.begin_miss(llc_port)
            data_at_llc = self.dram.fetch(llc_block, llc_miss_start)
            llc.finish_miss(llc_block, data_at_llc)
            self.stats.dram_blocks.value += 1
            level = "DRAM"
        fill_time = self.crossbar.traverse(data_at_llc)
        l1d.finish_miss(block, fill_time)
        return AccessResult(fill_time, tlb_stall, level)

    # ------------------------------------------------------------------
    # Functional warm-up (SimFlex-style warm checkpoints)
    # ------------------------------------------------------------------

    def warm_block(self, addr: int, level: str = "llc") -> None:
        """Install the block (and its translation) with no timing effect."""
        warm.warm_range(self, addr, 1, level, 1)

    def warm_range(self, base: int, size: int, level: str = "llc") -> None:
        """Warm every block of ``[base, base+size)``."""
        warm.warm_range(self, base, size, level, self.cfg.l1d.block_bytes)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def register_into(self, registry, prefix: str = "mem",
                      include_shared: bool = True) -> None:
        """Publish every component's counters under ``prefix``.

        ``include_shared=False`` skips the LLC and DRAM — used by the CMP,
        where those are shared across cores and registered once at the
        chip level.
        """
        self.stats.register_into(registry, prefix)
        self.tlb.register_into(registry, f"{prefix}.tlb")
        self.l1d.register_into(registry, f"{prefix}.l1d")
        self.crossbar.register_into(registry, f"{prefix}.crossbar")
        if include_shared:
            self.llc.register_into(registry, f"{prefix}.llc")
            self.dram.register_into(registry, f"{prefix}.dram")
