"""Bank-side (PIM) memory path for near-memory walkers.

HashMem-style placement: the walkers live *inside* the memory device,
next to the DRAM banks.  A node hop translates through a small dedicated
TLB, checks a tiny per-vault row-buffer cache, and on a miss reads the
bank array directly — no LLC lookup, no crossbar traversal, no off-chip
channel.  What the walkers gain in hop latency they pay for elsewhere:
bank conflicts serialize (each bank sustains only ``walkers_per_bank``
concurrent accesses, see :class:`~repro.mem.dram.DramBankPorts`), every
emitted result crosses the host interconnect on its way back, and the
host charges an explicit command/launch latency to arm the walkers at
all (modelled in :meth:`~repro.widx.machine.WidxMachine.configuration_cycles`).

Implements the same duck-typed interface as
:class:`~repro.mem.hierarchy.MemoryHierarchy` and
:class:`~repro.mem.llcside.LlcSideMemory`, so the Widx machine runs
unmodified on this placement.  Deliberately has **no** ``llc`` attribute:
there is no shared cache on this path, and the end-of-run sanitizer's
duck typing (:func:`~repro.sim.sanitize.hierarchy_pools`) skips what is
absent.
"""

from __future__ import annotations

from ..config import CacheConfig, SystemConfig, TlbConfig
from .cache import CacheLevel
from .dram import DramBankPorts
from .hierarchy import AccessResult
from .stats import MemoryStats
from .tlb import Tlb
from . import warm

#: The per-vault scratch buffer next to the PIM walkers: effectively the
#: open row buffers plus a small SRAM — tiny, single-cycle, enough MSHRs
#: to cover every bank slot.
PIM_BUFFER = CacheConfig(size_bytes=4 * 1024, block_bytes=64,
                         associativity=4, latency_cycles=1,
                         ports=2, mshrs=16)

#: The dedicated translation logic on the memory side.  Smaller reach
#: than the LLC-side design's (the device has less area to spend), same
#: two-walker page-walk limit — misses still fault into the host MMU
#: machinery over the command interface.
PIM_TLB = TlbConfig(entries=64, page_bytes=64 * 1024, in_flight=2,
                    miss_latency_cycles=35)


class PimBankMemory:
    """Memory path for bank-side walkers: buffer -> DRAM bank, in place.

    Loads and pointer chases never leave the device.  Stores are the
    result-return path: the produced tuple travels back across the host
    interconnect, so their completion time adds the configured
    ``interconnect_cycles`` on top of the bank-side write.
    """

    def __init__(self, cfg: SystemConfig) -> None:
        self.cfg = cfg
        self.tlb = Tlb(PIM_TLB)
        self.l1d = CacheLevel(PIM_BUFFER, "pim-buffer")
        self.banks = DramBankPorts(cfg.pim, cfg.freq_ghz)
        self.stats = MemoryStats()
        self.stats.l1d = self.l1d.stats
        self.stats.tlb = self.tlb.stats

    # -- timed paths -----------------------------------------------------

    def load(self, addr: int, now: float) -> AccessResult:
        """A demand load on the bank-side path."""
        self.stats.loads += 1
        return self._access(addr, now)

    def store(self, addr: int, now: float) -> AccessResult:
        """A store on the bank-side path: the written tuple returns to the
        host over the interconnect, which the completion time charges."""
        self.stats.stores += 1
        result = self._access(addr, now)
        return AccessResult(result.complete + self.cfg.interconnect_cycles,
                            result.tlb_stall, result.level)

    def touch(self, addr: int, now: float) -> AccessResult:
        """A non-binding prefetch on the bank-side path."""
        self.l1d.stats.prefetches += 1
        return self._access(addr, now)

    def _access(self, addr: int, now: float) -> AccessResult:
        translated, tlb_stall = self.tlb.translate(addr, now)
        block = self.l1d.block_of(addr)
        port_time = self.l1d.port_grant(translated)
        outcome = self.l1d.probe(block, port_time)
        if outcome is None:
            return AccessResult(port_time + PIM_BUFFER.latency_cycles,
                                tlb_stall, "L1")
        if outcome >= 0:
            return AccessResult(
                max(outcome, port_time + PIM_BUFFER.latency_cycles),
                tlb_stall, "L1")
        miss_start = self.l1d.begin_miss(port_time)
        # Inside the device: the bank array is one row access away.
        data = self.banks.access(block, miss_start)
        self.stats.dram_blocks += 1
        self.l1d.finish_miss(block, data)
        return AccessResult(data, tlb_stall, "DRAM")

    # -- functional warm-up ------------------------------------------------

    def warm_block(self, addr: int, level: str = "llc") -> None:
        """Install one translation (and optionally a buffer block) with no
        timing effect.

        The ``llc`` level warms only the TLB: the data's home *is* the
        bank array, so there is no larger cache to pre-fill — the paper's
        warmed-checkpoint discipline degenerates to warm translations.
        """
        warm.warm_range(self, addr, 1, level, 1)

    def warm_range(self, base: int, size: int, level: str = "llc") -> None:
        """Warm every block of a byte range."""
        warm.warm_range(self, base, size, level, PIM_BUFFER.block_bytes)

    # -- observability -----------------------------------------------------

    def register_into(self, registry, prefix: str = "mem",
                      include_shared: bool = True) -> None:
        """Publish every component's counters under ``prefix`` (same
        protocol as :meth:`MemoryHierarchy.register_into`; there is no
        LLC or crossbar on this path)."""
        self.stats.register_into(registry, prefix)
        self.tlb.register_into(registry, f"{prefix}.tlb")
        self.l1d.register_into(registry, f"{prefix}.l1d")
        if include_shared:
            self.banks.register_into(registry, f"{prefix}.dram")
