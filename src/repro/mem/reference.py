"""Reference LRU structures for differential testing.

:class:`ReferenceCacheArray` is the *deliberately naive* LRU tag array
the optimized flat-dict tick scheme in
:class:`~repro.mem.cache.CacheArray` is differentially tested against:
each set is literally a Python list in recency order (index 0 = least
recently used), a hit removes the block and re-appends it at the
most-recent end, and the eviction victim is ``recency.pop(0)`` — LRU by
construction, impossible to get wrong.  The differential tests in
``tests/mem/test_differential_cache.py`` drive both arrays with
identical access streams and assert every hit/miss outcome and every
victim matches; the benchmarks in :mod:`repro.bench` use it (through
:class:`ReferenceCacheLevel`, which restores the original per-access
``Counter.__iadd__`` stats accounting) as the probe-storm speedup
baseline.

:func:`use_reference_arrays` swaps the reference structures into a built
:class:`~repro.mem.hierarchy.MemoryHierarchy`, giving a full-stack
reference memory system for end-to-end equivalence runs.

Do not "improve" this module: its value is being obviously correct,
not fast.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..config import CacheConfig
from ..sim.resources import OccupancyPool, PipelinedResource
from .hierarchy import MemoryHierarchy
from .stats import LevelStats


class ReferenceCacheArray:
    """Recency-list set-associative tag array with true LRU replacement.

    Drop-in replacement for :class:`~repro.mem.cache.CacheArray` (same
    public surface), used by assigning it to ``CacheLevel.array``.
    """

    __slots__ = ("block_bits", "num_sets", "associativity", "_sets")

    def __init__(self, cfg: CacheConfig) -> None:
        self.block_bits = cfg.block_bytes.bit_length() - 1
        self.num_sets = cfg.num_sets
        self.associativity = cfg.associativity
        #: set index -> resident blocks in recency order (front = LRU).
        self._sets: Dict[int, List[int]] = {}

    def block_of(self, addr: int) -> int:
        """The block number an address falls in."""
        return addr >> self.block_bits

    def _set_for(self, block: int) -> List[int]:
        index = block % self.num_sets
        recency = self._sets.get(index)
        if recency is None:
            recency = self._sets[index] = []
        return recency

    def lookup(self, block: int) -> bool:
        """True if resident; refreshes LRU position on hit."""
        recency = self._set_for(block)
        if block in recency:
            recency.remove(block)
            recency.append(block)
            return True
        return False

    def present(self, block: int) -> bool:
        """Residency check without touching LRU state."""
        return block in self._set_for(block)

    def insert(self, block: int) -> Optional[int]:
        """Insert a block; returns the evicted block (if any)."""
        recency = self._set_for(block)
        if block in recency:
            recency.remove(block)
            recency.append(block)
            return None
        victim = None
        if len(recency) >= self.associativity:
            victim = recency.pop(0)
        recency.append(block)
        return victim

    def warm_run(self, blocks: range, ends: Sequence[int]) -> None:
        """Insert ``blocks`` one at a time, in order (``ends`` places the
        ticks of a tick-based array; recency lists need none)."""
        for block in blocks:
            self.insert(block)

    def invalidate(self, block: int) -> None:
        """Drop a block if resident."""
        recency = self._set_for(block)
        if block in recency:
            recency.remove(block)

    def resident_blocks(self) -> int:
        """Total blocks currently resident."""
        return sum(len(recency) for recency in self._sets.values())


class ReferenceCacheLevel:
    """Naive cache level: reference tag array + straightforward accounting.

    Same public surface as :class:`~repro.mem.cache.CacheLevel`, with the
    pre-overhaul hot path: every stats update is a ``Counter.__iadd__``
    method call and the tag array is the recency-list model above.  The
    timing resources (ports, MSHRs, miss combining) are the shared
    implementations — only the per-probe bookkeeping differs.
    """

    def __init__(self, cfg: CacheConfig, name: str) -> None:
        self.cfg = cfg
        self.name = name
        self.array = ReferenceCacheArray(cfg)
        self.ports = PipelinedResource(servers=cfg.ports, service=1.0)
        self.mshrs = OccupancyPool(capacity=cfg.mshrs)
        self.stats = LevelStats()
        self._inflight: Dict[int, float] = {}

    def block_of(self, addr: int) -> int:
        """The block number an address falls in."""
        return self.array.block_of(addr)

    def port_grant(self, now: float) -> float:
        """Time this access wins a port (>= now)."""
        return self.ports.request(now)

    def probe(self, block: int, now: float) -> Optional[float]:
        """Tag lookup at time ``now`` (same contract as CacheLevel.probe)."""
        self.stats.accesses += 1
        pending = self._inflight.get(block)
        if pending is not None:
            if pending > now:
                self.stats.combined_misses += 1
                return pending
            del self._inflight[block]
        if self.array.lookup(block):
            self.stats.hits += 1
            return None
        self.stats.misses += 1
        return -1.0

    def begin_miss(self, now: float) -> float:
        """Claim an MSHR; returns when the miss can actually issue (>= now)."""
        return self.mshrs.acquire(now)

    def finish_miss(self, block: int, fill_time: float) -> None:
        """Record the fill: releases the MSHR and installs the block."""
        self.mshrs.release_at(fill_time)
        self._inflight[block] = fill_time
        self.array.insert(block)

    def warm(self, block: int) -> None:
        """Functionally install a block with no timing effect (warm-up)."""
        self.array.insert(block)

    def register_into(self, registry, prefix: str) -> None:
        """Publish hit/miss counters, port and MSHR stats under ``prefix``."""
        self.stats.register_into(registry, prefix)
        self.ports.register_into(registry, f"{prefix}.ports")
        self.mshrs.register_into(registry, f"{prefix}.mshrs")


def use_reference_arrays(hierarchy: MemoryHierarchy) -> MemoryHierarchy:
    """Swap every cache level for the naive reference implementation.

    Must run before any accesses or warm-up touch the hierarchy (the
    arrays start empty).  Returns the hierarchy for chaining.
    """
    hierarchy.l1d = ReferenceCacheLevel(hierarchy.l1d.cfg, hierarchy.l1d.name)
    hierarchy.llc = ReferenceCacheLevel(hierarchy.llc.cfg, hierarchy.llc.name)
    # The hierarchy's stats views alias its levels' stats; re-alias them to
    # the fresh reference levels.
    hierarchy.stats.l1d = hierarchy.l1d.stats
    hierarchy.stats.llc = hierarchy.llc.stats
    return hierarchy
