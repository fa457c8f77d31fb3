"""A Cuckoo-Trie-style MLP-friendly ordered index in simulated memory.

The Cuckoo Trie (PAPERS.md) makes the counter-argument to the paper's
premise: instead of accelerating a dependent-load chain, restructure the
index so node fetches are *independent*.  Its trick is storing trie nodes
in a hash table keyed by the node's path, so a lookup can compute the
memory location of every level it might touch straight from the key and
issue all those fetches concurrently — an OoO window (or a prefetching
walker) overlaps them, where a B+-tree descent serializes them.

This module reproduces that layout over 32-bit keys split into eight
4-bit nibbles.  Each key is stored exactly once, as a *terminal* entry at
the shallowest depth where its prefix is unique among all keys (path
compression: dense key sets push terminals deep, sparse ones keep them
shallow).  All terminals live in one bucketed hash table; the bucket for
key ``k`` at depth ``d`` is computed purely from ``k``::

    v(k, d)    = (k >> (32 - 4 d)) + 2^(32+d)     # prefix + depth tag
    bucket(k, d) = hash(v(k, d)) & mask

so a probe's eight candidate buckets are all known up front — the MLP the
structure is designed to expose.  A lookup scans depths 1..8 in order and
stops at the first tag match; the tag stores the *full* key plus the
depth bit, so prefix aliasing and hash collisions are both resolved by a
single 8-byte compare per slot.

Bucket layout (64 bytes, one cache block)::

    ========  =====  ===================================================
    offset    size   field
    ========  =====  ===================================================
    0         8      overflow-chain pointer (NULL at the end)
    8         8      pad
    16        24     slot 0
    40        24     slot 1
    ========  =====  ===================================================

Slot layout (24 bytes)::

    ========  =====  ===================================================
    0         8      tag: key + 2^(32+depth)   (0 = empty)
    8         4      payload
    12        4      pad
    16        8      next-terminal pointer (sorted key order; NULL last)
    ========  =====  ===================================================

Ordered semantics come from the next-terminal chain threaded through the
slots at build time: iterating from ``head_terminal`` yields keys in
sorted order, and a range scan walks the chain from the first terminal
with ``key >= low`` — the ordered-index counterpart of the B+-tree's
leaf chain.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..errors import PlanError
from ..mem.layout import AddressSpace, Region
from ..mem.physmem import NULL_PTR
from .hashfn import ROBUST_HASH_32, HashSpec

#: Nibble width and depth budget: 32-bit keys = 8 levels of 4 bits.
NIBBLE_BITS = 4
MAX_DEPTH = 32 // NIBBLE_BITS

BUCKET_BYTES = 64
SLOTS_PER_BUCKET = 2
SLOT_BYTES = 24

_OVERFLOW_OFFSET = 0
_SLOT_BASE = 16
_TAG_OFFSET = 0
_PAYLOAD_OFFSET = 8
_NEXT_OFFSET = 16

#: The prefix mix: shift-add-xor only, so walker programs (role W) can
#: compile it — AND-SHF is dispatcher-only in Table 1.
TRIE_HASH: HashSpec = ROBUST_HASH_32

#: Keys must stay below the B+-tree pad value so the same probe columns
#: drive every ordered index interchangeably.
KEY_LIMIT = (1 << 32) - 1


def probe_value(key: int, depth: int) -> int:
    """The hashed quantity for ``key`` at ``depth``: prefix + depth tag."""
    return (key >> (32 - NIBBLE_BITS * depth)) + (1 << (32 + depth))


def tag_value(key: int, depth: int) -> int:
    """The slot tag a terminal for ``key`` at ``depth`` stores."""
    return key + (1 << (32 + depth))


@dataclass
class TrieStats:
    """Shape statistics of a built trie."""

    num_keys: int
    buckets: int
    overflow_nodes: int
    max_depth: int
    mean_depth: float


class MlpTrie:
    """A read-only (bulk-loaded) hashed trie over 4-byte keys/payloads."""

    def __init__(self, space: AddressSpace, keys: Sequence[int],
                 payloads: Sequence[int], name: str = "trie") -> None:
        if len(keys) != len(payloads):
            raise PlanError("keys and payloads must have equal length")
        if len(keys) == 0:
            raise PlanError("cannot bulk-load an empty trie")
        pairs = sorted(zip((int(k) for k in keys),
                           (int(p) for p in payloads)))
        sorted_keys = [k for k, _ in pairs]
        if any(a == b for a, b in zip(sorted_keys, sorted_keys[1:])):
            raise PlanError("bulk load requires unique keys")
        if sorted_keys[0] < 0 or sorted_keys[-1] >= KEY_LIMIT:
            raise PlanError(f"keys must be in [0, {KEY_LIMIT:#x})")
        self.space = space
        self.memory = space.memory
        self.name = name
        self.num_keys = len(pairs)
        self.hash_spec = TRIE_HASH

        depths = _terminal_depths(sorted_keys)
        self.max_depth = max(depths)
        self.mean_depth = sum(depths) / len(depths)

        self.num_buckets = _next_pow2(max(1, self.num_keys))
        self.bucket_mask = self.num_buckets - 1
        self.buckets: Region = space.allocate(
            f"{name}:buckets", self.num_buckets * BUCKET_BYTES, align=64)

        # Place every terminal: bucket slots first, overflow blocks after.
        placements = [[] for _ in range(self.num_buckets)]
        for (key, payload), depth in zip(pairs, depths):
            index = self.hash_spec(probe_value(key, depth)) & self.bucket_mask
            placements[index].append((key, depth, payload))
        overflow_blocks = sum(
            max(0, len(group) - SLOTS_PER_BUCKET + SLOTS_PER_BUCKET - 1)
            // SLOTS_PER_BUCKET
            for group in placements)
        self.overflow_count = overflow_blocks
        self.overflow: Optional[Region] = None
        if overflow_blocks:
            self.overflow = space.allocate(
                f"{name}:overflow", overflow_blocks * BUCKET_BYTES, align=64)
        next_overflow = self.overflow.base if self.overflow else NULL_PTR

        slot_of = {}
        for index, group in enumerate(placements):
            block = self.buckets.base + index * BUCKET_BYTES
            self.memory.write_u64(block + _OVERFLOW_OFFSET, NULL_PTR)
            cursor = 0
            for key, depth, payload in group:
                if cursor == SLOTS_PER_BUCKET:
                    # Chain a fresh overflow block onto this bucket.
                    self.memory.write_u64(block + _OVERFLOW_OFFSET,
                                          next_overflow)
                    block = next_overflow
                    next_overflow += BUCKET_BYTES
                    self.memory.write_u64(block + _OVERFLOW_OFFSET, NULL_PTR)
                    cursor = 0
                slot = block + _SLOT_BASE + cursor * SLOT_BYTES
                self.memory.write_u64(slot + _TAG_OFFSET,
                                      tag_value(key, depth))
                self.memory.write_u32(slot + _PAYLOAD_OFFSET, payload)
                self.memory.write_u64(slot + _NEXT_OFFSET, NULL_PTR)
                slot_of[key] = slot
                cursor += 1

        # Thread the sorted terminal chain through the slots.
        self._ordered_keys = sorted_keys
        self._ordered_slots = [slot_of[key] for key in sorted_keys]
        for addr, succ in zip(self._ordered_slots, self._ordered_slots[1:]):
            self.memory.write_u64(addr + _NEXT_OFFSET, succ)
        self.head_terminal = self._ordered_slots[0]

    # ------------------------------------------------------------------
    # Layout accessors (shared with the trace/Widx program generators)
    # ------------------------------------------------------------------

    def bucket_addr(self, key: int, depth: int) -> int:
        """The bucket a probe for ``key`` reads at ``depth`` — computable
        from the key alone, which is the whole point of the layout."""
        index = self.hash_spec(probe_value(key, depth)) & self.bucket_mask
        return self.buckets.base + index * BUCKET_BYTES

    def chain_blocks(self, bucket: int) -> Iterator[int]:
        """Yield the bucket block then each overflow block in its chain."""
        block = bucket
        while block != NULL_PTR:
            yield block
            block = self.memory.read_u64(block + _OVERFLOW_OFFSET)

    def slot_tag(self, slot: int) -> int:
        """The depth-tagged key stored in a slot (0 = empty)."""
        return self.memory.read_u64(slot + _TAG_OFFSET)

    def slot_payload(self, slot: int) -> int:
        """The payload word stored beside a slot's tag."""
        return self.memory.read_u32(slot + _PAYLOAD_OFFSET)

    def slot_next(self, slot: int) -> int:
        """The ordered-chain pointer to the next terminal slot."""
        return self.memory.read_u64(slot + _NEXT_OFFSET)

    # ------------------------------------------------------------------
    # Search (the functional reference: the walker program in slow motion)
    # ------------------------------------------------------------------

    def search(self, key: int) -> Optional[int]:
        """The payload stored for ``key``, or None.

        Scans depths 1..8 in order, exactly as the Widx walker and the
        baseline traces do: each depth costs one independent bucket fetch
        plus tag compares; the first tag match wins.
        """
        for depth in range(1, MAX_DEPTH + 1):
            expect = tag_value(key, depth)
            for block in self.chain_blocks(self.bucket_addr(key, depth)):
                for index in range(SLOTS_PER_BUCKET):
                    slot = block + _SLOT_BASE + index * SLOT_BYTES
                    if self.slot_tag(slot) == expect:
                        return self.slot_payload(slot)
        return None

    def search_start(self, low: int) -> int:
        """The terminal-slot address where a scan for ``low`` begins
        (first terminal with key >= low), or NULL when none exists."""
        position = bisect.bisect_left(self._ordered_keys, low)
        if position == len(self._ordered_slots):
            return NULL_PTR
        return self._ordered_slots[position]

    def range_scan(self, low: int, high: int) -> List[Tuple[int, int]]:
        """All (key, payload) pairs with low <= key <= high, in order,
        read by walking the in-memory terminal chain."""
        if low > high:
            return []
        slot = self.search_start(low)
        results: List[Tuple[int, int]] = []
        while slot != NULL_PTR:
            key = self.slot_tag(slot) & 0xFFFFFFFF
            if key > high:
                break
            results.append((key, self.slot_payload(slot)))
            slot = self.slot_next(slot)
        return results

    def items(self) -> Iterator[Tuple[int, int]]:
        """All (key, payload) pairs in key order, via the terminal chain."""
        slot = self.head_terminal
        while slot != NULL_PTR:
            yield (self.slot_tag(slot) & 0xFFFFFFFF,
                   self.slot_payload(slot))
            slot = self.slot_next(slot)

    def stats(self) -> TrieStats:
        """Structure summary: key count, buckets, overflow, depths."""
        return TrieStats(num_keys=self.num_keys, buckets=self.num_buckets,
                         overflow_nodes=self.overflow_count,
                         max_depth=self.max_depth,
                         mean_depth=self.mean_depth)

    @property
    def region(self) -> Region:
        """The primary bucket region (warmed before measurement)."""
        return self.buckets

    @property
    def footprint_bytes(self) -> int:
        total = self.buckets.size
        if self.overflow is not None:
            total += self.overflow.size
        return total

    def working_set(self) -> List[Tuple[int, int]]:
        """The ``(base, bytes)`` ranges a traversal touches, in warm
        order: the buckets, then any overflow."""
        regions = [self.buckets, self.overflow]
        return [(region.base, region.size) for region in regions
                if region is not None]


def _terminal_depths(sorted_keys: List[int]) -> List[int]:
    """Terminal depth per key: one nibble past the longest prefix it
    shares with any other key — which, on sorted keys, is a prefix shared
    with an immediate neighbour."""
    depths = []
    for index, key in enumerate(sorted_keys):
        shared = 0
        for neighbour in (index - 1, index + 1):
            if 0 <= neighbour < len(sorted_keys):
                shared = max(shared,
                             _shared_nibbles(key, sorted_keys[neighbour]))
        depths.append(min(MAX_DEPTH, shared + 1))
    return depths


def _shared_nibbles(a: int, b: int) -> int:
    if a == b:
        return MAX_DEPTH
    return (32 - (a ^ b).bit_length()) // NIBBLE_BITS


def _next_pow2(value: int) -> int:
    return 1 << max(0, value - 1).bit_length()
