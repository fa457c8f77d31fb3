"""The full memory hierarchy: TLB → L1-D → crossbar → LLC → DRAM.

This is the timing heart of the reproduction.  Every load/store issued by a
baseline core model or a Widx unit flows through :meth:`MemoryPath.load`
or :meth:`MemoryPath.store`, which:

1. translates through the shared TLB (bounded in-flight page walks),
2. wins an L1-D port (2 ports, 1 access/port/cycle),
3. on an L1 miss, claims an MSHR (10; same-block misses combine),
4. traverses the crossbar to the LLC (6-cycle hit),
5. on an LLC miss, fetches the block from a bandwidth-limited memory
   controller (45 ns + transfer slot),

returning an :class:`AccessResult` with the completion time and a
TLB-vs-memory stall attribution used by the Figure 8/9 cycle breakdowns.

The TLB, L1 port and L1 tag steps run as one flat pass, shared by all
three placements, on the state their components own (DESIGN.md §11).

Simplifications (documented per DESIGN.md): write-backs of dirty victims do
not consume modelled bandwidth, and the L1-I side is not modelled (Widx
units fetch from a tiny instruction buffer; the baseline indexing loops fit
in the L1-I).  Neither affects who wins or where crossovers fall: both add
small constant factors to all designs equally.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple, Tuple

from ..config import CacheConfig, SystemConfig, TlbConfig
from ..sim.resources import prune_cycles
from .cache import CacheLevel
from .dram import MemoryControllers
from .interconnect import Crossbar
from .stats import MemoryStats
from .tlb import Tlb
from . import warm


class AccessResult(NamedTuple):
    """Timing outcome of one memory access."""

    complete: float        # absolute cycle the data is usable (load-to-use)
    tlb_stall: float       # cycles attributable to address translation
    level: str             # 'L1' | 'LLC' | 'DRAM' — where the data came from

    def latency(self, issued: float) -> float:
        """Cycles from issue to data-usable."""
        return self.complete - issued


#: ``AccessResult`` from a ``(complete, tlb_stall, level)`` tuple, in C.
access_result = partial(tuple.__new__, AccessResult)


class MemoryPath:
    """The front half every placement shares: TLB → private buffer (L1).

    Subclasses supply ``_miss(block, miss_start, tlb_stall)``, which
    services a fresh buffer miss whose MSHR is held from ``miss_start``
    and ends with ``l1d.finish_miss``, and name the components behind the
    buffer that :meth:`register_into` publishes.  Each defines its own
    ``warm_range``: ``e2ebench`` times warm-up by wrapping that method
    on each class.
    """

    #: Private components behind the buffer, published under their names.
    _private: Tuple[str, ...] = ()
    #: ``(attribute, name)`` of the shared ones (see :meth:`register_into`).
    _shared: Tuple[Tuple[str, str], ...] = (("llc", "llc"), ("dram", "dram"))

    def __init__(self, cfg: SystemConfig, tlb_cfg: TlbConfig,
                 buffer_cfg: CacheConfig, buffer_name: str) -> None:
        self.cfg = cfg
        self.tlb = Tlb(tlb_cfg)
        self.l1d = CacheLevel(buffer_cfg, buffer_name)
        self.stats = MemoryStats()
        # Share the per-level stats objects so both views stay consistent.
        self.stats.l1d = self.l1d.stats
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
        # -- TLB: Tlb.translate's hit inline; a miss, or a page with a walk
        # on record (in flight to share, or done and not yet cleared),
        # goes through translate itself.
        tlb = self.tlb
        page = addr >> tlb._page_bits
        pages = tlb._entries
        if page in pages and page not in tlb._inflight:
            tlb.stats.accesses.value += 1
            tlb._tick = tick = tlb._tick + 1
            pages[page] = tick
            ready = now
            tlb_stall = 0.0
        else:
            ready, tlb_stall = tlb.translate(addr, now)

        # -- L1 port: PipelinedResource.request with service == 1; the
        # prune test can only pass when the watermark moves.
        l1d = self.l1d
        ports = l1d.ports
        counts = ports._cycle_counts
        if ready > ports._max_now:
            ports._max_now = ready
            cutoff = int(ready - ports._horizon)
            if ports._prune_cursor < cutoff - 50_000:
                prune_cycles(counts, ports._prune_cursor, cutoff)
                ports._prune_cursor = cutoff
        ports.grants.value += 1
        ports.busy_cycles.value += 1.0
        cycle = int(ready)
        if cycle < ready:
            cycle += 1
        count = counts.get(cycle, 0)
        while count >= ports.servers:
            cycle += 1
            count = counts.get(cycle, 0)
        counts[cycle] = count + 1
        port_time = float(cycle)

        # -- L1 probe: combine with an in-flight fill, hit, or miss.
        stats = l1d.stats
        stats.accesses.value += 1
        array = l1d.array
        block = addr >> array.block_bits
        fills = l1d._inflight
        pending = fills.get(block)
        if pending is not None:
            if pending > port_time:
                stats.combined_misses.value += 1
                hit = port_time + l1d.cfg.latency_cycles
                return access_result((pending if pending >= hit else hit,
                                      tlb_stall, "L1"))
            del fills[block]
        entries = array._entries
        if block in entries:
            array._tick = tick = array._tick + 1
            entries[block] = tick
            stats.hits.value += 1
            return access_result((port_time + l1d.cfg.latency_cycles,
                                  tlb_stall, "L1"))
        stats.misses.value += 1
        return self._miss(block, l1d.begin_miss(port_time), tlb_stall)

    # ------------------------------------------------------------------
    # Functional warm-up (SimFlex-style warm checkpoints)
    # ------------------------------------------------------------------

    def warm_block(self, addr: int, level: str = "llc") -> None:
        """Install the block (and its translation) with no timing effect."""
        warm.warm_range(self, addr, 1, level, 1)

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
        for name in self._private:
            getattr(self, name).register_into(registry, f"{prefix}.{name}")
        if include_shared:
            for attr, name in self._shared:
                getattr(self, attr).register_into(registry,
                                                  f"{prefix}.{name}")


def llc_fetch(memory, block: int, arrival: float) -> Tuple[float, str]:
    """The LLC step of a buffer miss reaching the LLC at ``arrival``:
    ``(data ready at the LLC, level)``.  It runs on a fresh buffer miss
    only, so it stays calls on the LLC."""
    llc = memory.llc
    port_time = llc.port_grant(arrival)
    outcome = llc.probe(block, port_time)
    if outcome is None:
        return port_time + llc.cfg.latency_cycles, "LLC"
    if outcome >= 0:  # combined at the LLC
        return max(outcome, port_time + llc.cfg.latency_cycles), "LLC"
    data = memory.dram.fetch(block, llc.begin_miss(port_time))
    llc.finish_miss(block, data)
    memory.stats.dram_blocks.value += 1
    return data, "DRAM"


class MemoryHierarchy(MemoryPath):
    """Timing model of one core's view of the memory system.

    ``shared_llc`` / ``shared_dram`` let several cores' hierarchies share
    one LLC and one memory-controller bank — the Table 2 CMP, where four
    cores contend for the 4 MB LLC and two DDR3 channels (see
    :mod:`repro.cmp`).  TLB, L1-D and the crossbar port stay private.
    """

    _private = ("crossbar",)

    def __init__(self, cfg: SystemConfig,
                 shared_llc: CacheLevel = None,
                 shared_dram: MemoryControllers = None) -> None:
        super().__init__(cfg, cfg.tlb, cfg.l1d, "L1-D")
        self.llc = (shared_llc if shared_llc is not None
                    else CacheLevel(cfg.llc, "LLC"))
        self.crossbar = Crossbar(cfg.interconnect_cycles)
        self.dram = (shared_dram if shared_dram is not None
                     else MemoryControllers(cfg.dram, cfg.freq_ghz,
                                            cfg.llc.block_bytes))
        self.stats.llc = self.llc.stats

    def _miss(self, block: int, miss_start: float,
              tlb_stall: float) -> AccessResult:
        # Crossbar, the LLC (block sizes match by config invariant), back.
        crossbar = self.crossbar
        data, level = llc_fetch(self, block, crossbar.traverse(miss_start))
        fill_time = crossbar.traverse(data)
        self.l1d.finish_miss(block, fill_time)
        return access_result((fill_time, tlb_stall, level))

    def warm_range(self, base: int, size: int, level: str = "llc") -> None:
        """Warm every block of ``[base, base+size)``."""
        warm.warm_range(self, base, size, level, self.cfg.l1d.block_bytes)
