"""Set-associative cache model: functional tag array plus timing resources.

The tag array (:class:`CacheArray`) tracks which blocks are resident with
true LRU replacement.  :class:`CacheLevel` pairs it with the timing
resources the paper's bottleneck analysis identifies: a fixed number of
ports (one access per port per cycle) and, for the L1, a fixed number of
MSHRs (Section 3.2, Equation 3), with same-block miss combining.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..config import CacheConfig
from ..sim.resources import OccupancyPool, PipelinedResource
from .stats import LevelStats


class CacheArray:
    """Functional set-associative tag array with LRU replacement.

    The residency + recency state lives in ONE flat dict mapping resident
    block number to a monotone tick: a lookup hit is a membership probe
    plus a dict store (``entries[block] = tick``) — no per-set container
    hop, no ordered-dict linked-list surgery.  Set membership (needed
    only to pick eviction victims) is maintained separately in
    ``_sets[index]`` and touched only on insert/evict/invalidate, which
    are orders of magnitude rarer than hits in every modelled workload.
    The victim on a full-set insert is the minimum-tick member — exactly
    the least-recently-used block, so victim selection is bit-identical
    to the naive recency-list scheme (see
    :class:`repro.mem.reference.ReferenceCacheArray`, the obviously
    correct model the differential tests compare against).
    """

    __slots__ = ("block_bits", "num_sets", "associativity", "_entries",
                 "_sets", "_set_mask", "_tick")

    def __init__(self, cfg: CacheConfig) -> None:
        self.block_bits = cfg.block_bytes.bit_length() - 1
        self.num_sets = cfg.num_sets
        self.associativity = cfg.associativity
        #: resident block -> last-touch tick (all sets flattened together).
        self._entries: Dict[int, int] = {}
        #: set index -> resident members (maintained on insert/evict only).
        self._sets: Dict[int, set] = {}
        # Power-of-two set counts (every shipped config) index with a
        # precomputed mask; anything else falls back to modulo.
        self._set_mask = (self.num_sets - 1
                          if self.num_sets & (self.num_sets - 1) == 0
                          else None)
        self._tick = 0

    def block_of(self, addr: int) -> int:
        """The block number an address falls in."""
        return addr >> self.block_bits

    def _members_for(self, block: int) -> set:
        mask = self._set_mask
        index = block & mask if mask is not None else block % self.num_sets
        members = self._sets.get(index)
        if members is None:
            members = self._sets[index] = set()
        return members

    def lookup(self, block: int) -> bool:
        """True if resident; refreshes LRU position on hit."""
        entries = self._entries
        if block in entries:
            self._tick = tick = self._tick + 1
            entries[block] = tick
            return True
        return False

    def present(self, block: int) -> bool:
        """Residency check without touching LRU state."""
        return block in self._entries

    def insert(self, block: int) -> Optional[int]:
        """Insert a block; returns the evicted block (if any)."""
        entries = self._entries
        self._tick = tick = self._tick + 1
        if block in entries:
            entries[block] = tick
            return None
        mask = self._set_mask
        index = block & mask if mask is not None else block % self.num_sets
        members = self._sets.get(index)
        if members is None:
            members = self._sets[index] = set()
        victim = None
        if len(members) >= self.associativity:
            victim = min(members, key=entries.__getitem__)
            members.discard(victim)
            del entries[victim]
        members.add(block)
        entries[block] = tick
        return victim

    def warm_run(self, blocks: range, ends: Sequence[int]) -> None:
        """Insert ``blocks`` in order, block ``i`` at the tick ``ends[i]``
        steps on — the state a per-block warm loop over the same range
        leaves (see :mod:`repro.mem.warm`).

        A contiguous run of at least ``num_sets x associativity`` blocks
        installs only its tail of that many: consecutive block numbers
        cycle through every set index (masked or modulo), so the tail
        puts exactly ``associativity`` blocks in every set and LRU evicts
        every block it did not touch last, whatever was resident before.
        """
        tick = self._tick
        capacity = self.num_sets * self.associativity
        if blocks.step != 1 or len(blocks) < capacity:
            insert = self.insert
            for block, end in zip(blocks, ends):
                self._tick = tick + end - 1
                insert(block)
            return
        tail = blocks[-capacity:]
        entries = self._entries
        entries.clear()
        entries.update(zip(tail, [tick + end for end in ends[-capacity:]]))
        sets = self._sets
        sets.clear()
        mask = self._set_mask
        for offset in range(self.num_sets):
            block = tail[offset]
            index = block & mask if mask is not None else block % self.num_sets
            sets[index] = set(tail[offset::self.num_sets])
        self._tick = tick + ends[-1]

    def invalidate(self, block: int) -> None:
        """Drop a block if resident."""
        if self._entries.pop(block, None) is not None:
            self._members_for(block).discard(block)

    def resident_blocks(self) -> int:
        """Total blocks currently resident."""
        return len(self._entries)


class CacheLevel:
    """One cache level: tag array + ports + (for L1) MSHRs.

    Timing queries return absolute cycle timestamps; callers must issue
    requests in non-decreasing time order (guaranteed by the event engine).
    """

    __slots__ = ("cfg", "name", "array", "ports", "mshrs", "stats",
                 "_inflight")

    def __init__(self, cfg: CacheConfig, name: str) -> None:
        self.cfg = cfg
        self.name = name
        self.array = CacheArray(cfg)
        self.ports = PipelinedResource(servers=cfg.ports, service=1.0)
        self.mshrs = OccupancyPool(capacity=cfg.mshrs)
        self.stats = LevelStats()
        # In-flight misses by block -> fill completion time (miss combining).
        self._inflight: Dict[int, float] = {}

    def block_of(self, addr: int) -> int:
        """The block number an address falls in."""
        return self.array.block_of(addr)

    def port_grant(self, now: float) -> float:
        """Time this access wins a port (>= now)."""
        return self.ports.request(now)

    def probe(self, block: int, now: float) -> Optional[float]:
        """Tag lookup at time ``now``.

        Returns ``None`` for a hit. For an in-flight miss to the same block,
        returns the pending fill time (combined miss — no new MSHR).  For a
        fresh miss, returns ``-1.0`` and the caller must complete the miss
        with :meth:`begin_miss` / :meth:`finish_miss`.
        """
        stats = self.stats
        stats.accesses.value += 1
        pending = self._inflight.get(block)
        if pending is not None:
            if pending > now:
                stats.combined_misses.value += 1
                return pending
            del self._inflight[block]
        # Inlined CacheArray.lookup hit path — the single hottest memory
        # operation in the simulator (every load probes here first).
        array = self.array
        entries = array._entries
        if block in entries:
            array._tick = tick = array._tick + 1
            entries[block] = tick
            stats.hits.value += 1
            return None
        stats.misses.value += 1
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
