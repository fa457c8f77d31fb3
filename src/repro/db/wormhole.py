"""A Wormhole-style hash-accelerated ordered index in simulated memory.

Wormhole (PAPERS.md) replaces a B+-tree's internal levels with a hash
table of leaf-anchor prefixes (the "MetaTrieHash"): the sorted leaf list
stays, but locating the right leaf costs O(log L) *independent* hash
probes — a binary search over prefix lengths — instead of a
dependent-load descent.  This is the second counterpoint to the paper's
hash-chain premise: the pointer chain is collapsed rather than
prefetched.

Layout
------

Leaves reuse the B+-tree's 64-byte leaf node format (keys, payloads,
next-leaf pointer), bulk-loaded full and chained in key order.  A leaf's
*anchor* is its smallest key.

The MetaTrieHash stores one entry per distinct (depth, prefix) pair over
all anchors, ``depth`` in 1..8 nibbles.  Entry values combine prefix and
depth the same way the trie does (``prefix + 2^(32+depth)``), and the
entry records ``leaf_lo``: the leaf *preceding* the first anchor with
that prefix (clamped to the first leaf).  Because any key with prefix P
sorts after every anchor smaller than the first P-anchor, the key's true
leaf is always ``leaf_lo`` or later — so a lookup binary-searches for
the longest present prefix of its key, starts at that entry's
``leaf_lo``, and walks forward while the next anchor is <= key.  Anchor
prefixes are prefix-closed (an anchor matching d nibbles matches d-1),
which makes presence monotone in depth and the binary search sound.

Meta bucket layout (64 bytes)::

    ========  =====  ===================================================
    offset    size   field
    ========  =====  ===================================================
    0         8      overflow-chain pointer (NULL at the end)
    8         8      pad
    16        16     slot 0: tag (prefix + 2^(32+depth); 0 = empty),
                     leaf_lo pointer
    32        16     slot 1
    48        16     slot 2
    ========  =====  ===================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..errors import PlanError
from ..mem.layout import AddressSpace, Region
from ..mem.physmem import NULL_PTR
from .btree import (FANOUT, KEY_PAD, META_LEAF, NODE_BYTES, _KEY_BYTES,
                    _KEYS_OFFSET, _META_OFFSET, _NEXT_LEAF_OFFSET,
                    _PAYLOADS_OFFSET)
from .hashfn import ROBUST_HASH_32, HashSpec
from .trie import MAX_DEPTH, _next_pow2, probe_value

META_BUCKET_BYTES = 64
META_SLOTS_PER_BUCKET = 3
META_SLOT_BYTES = 16

_META_OVERFLOW_OFFSET = 0
_META_SLOT_BASE = 16
_META_TAG_OFFSET = 0
_META_LEAF_OFFSET = 8

#: Same walker-compilable mix as the trie (shift-add-xor only).
META_HASH: HashSpec = ROBUST_HASH_32


@dataclass
class WormholeStats:
    """Shape statistics of a built wormhole index."""

    num_keys: int
    leaves: int
    meta_entries: int
    meta_buckets: int
    overflow_nodes: int


class WormholeIndex:
    """A read-only (bulk-loaded) wormhole over 4-byte keys/payloads."""

    def __init__(self, space: AddressSpace, keys: Sequence[int],
                 payloads: Sequence[int], name: str = "wormhole") -> None:
        if len(keys) != len(payloads):
            raise PlanError("keys and payloads must have equal length")
        if len(keys) == 0:
            raise PlanError("cannot bulk-load an empty wormhole")
        pairs = sorted(zip((int(k) for k in keys),
                           (int(p) for p in payloads)))
        sorted_keys = [k for k, _ in pairs]
        if any(a == b for a, b in zip(sorted_keys, sorted_keys[1:])):
            raise PlanError("bulk load requires unique keys")
        if sorted_keys[0] < 0 or sorted_keys[-1] >= KEY_PAD:
            raise PlanError(f"keys must be below the pad value {KEY_PAD:#x}")
        self.space = space
        self.memory = space.memory
        self.name = name
        self.num_keys = len(pairs)
        self.hash_spec = META_HASH

        # --- leaf chain (B+-tree leaf format, bulk-loaded full) --------
        self.leaf_count = (self.num_keys + FANOUT - 1) // FANOUT
        self.leaves: Region = space.allocate(
            f"{name}:leaves", self.leaf_count * NODE_BYTES, align=64)
        anchors: List[int] = []
        previous: Optional[int] = None
        for index in range(self.leaf_count):
            chunk = pairs[index * FANOUT:(index + 1) * FANOUT]
            node = self.leaves.base + index * NODE_BYTES
            self.memory.write_u64(node + _META_OFFSET, META_LEAF)
            for slot in range(FANOUT):
                key = chunk[slot][0] if slot < len(chunk) else KEY_PAD
                self.memory.write_u32(
                    node + _KEYS_OFFSET + _KEY_BYTES * slot, key)
            for slot, (_key, payload) in enumerate(chunk):
                self.memory.write_u32(
                    node + _PAYLOADS_OFFSET + _KEY_BYTES * slot, payload)
            self.memory.write_u64(node + _NEXT_LEAF_OFFSET, NULL_PTR)
            if previous is not None:
                self.memory.write_u64(previous + _NEXT_LEAF_OFFSET, node)
            previous = node
            anchors.append(chunk[0][0])
        self.first_leaf = self.leaves.base
        self._anchors = anchors

        # --- MetaTrieHash over all anchor prefixes ---------------------
        # entries: tag value -> leaf_lo (predecessor of the first anchor
        # with that prefix, clamped to the first leaf).
        entries = {}
        for index, anchor in enumerate(anchors):
            for depth in range(1, MAX_DEPTH + 1):
                value = probe_value(anchor, depth)
                if value not in entries:
                    leaf_lo = self.leaves.base + max(0, index - 1) * NODE_BYTES
                    entries[value] = leaf_lo
        self.meta_entries = len(entries)
        self.meta_buckets = _next_pow2(
            max(1, (self.meta_entries + META_SLOTS_PER_BUCKET - 1)
                // META_SLOTS_PER_BUCKET))
        self.meta_mask = self.meta_buckets - 1
        self.meta: Region = space.allocate(
            f"{name}:meta", self.meta_buckets * META_BUCKET_BYTES, align=64)

        placements = [[] for _ in range(self.meta_buckets)]
        for value in sorted(entries):
            index = self.hash_spec(value) & self.meta_mask
            placements[index].append((value, entries[value]))
        overflow_blocks = sum(
            max(0, len(group) - 1) // META_SLOTS_PER_BUCKET
            for group in placements)
        self.overflow_count = overflow_blocks
        self.overflow: Optional[Region] = None
        if overflow_blocks:
            self.overflow = space.allocate(
                f"{name}:overflow", overflow_blocks * META_BUCKET_BYTES,
                align=64)
        next_overflow = self.overflow.base if self.overflow else NULL_PTR

        for index, group in enumerate(placements):
            block = self.meta.base + index * META_BUCKET_BYTES
            self.memory.write_u64(block + _META_OVERFLOW_OFFSET, NULL_PTR)
            cursor = 0
            for value, leaf_lo in group:
                if cursor == META_SLOTS_PER_BUCKET:
                    self.memory.write_u64(block + _META_OVERFLOW_OFFSET,
                                          next_overflow)
                    block = next_overflow
                    next_overflow += META_BUCKET_BYTES
                    self.memory.write_u64(block + _META_OVERFLOW_OFFSET,
                                          NULL_PTR)
                    cursor = 0
                slot = block + _META_SLOT_BASE + cursor * META_SLOT_BYTES
                self.memory.write_u64(slot + _META_TAG_OFFSET, value)
                self.memory.write_u64(slot + _META_LEAF_OFFSET, leaf_lo)
                cursor += 1

    # ------------------------------------------------------------------
    # Layout accessors (shared with the trace/Widx program generators)
    # ------------------------------------------------------------------

    def meta_bucket_addr(self, value: int) -> int:
        """The MetaTrieHash bucket for a depth-tagged prefix value."""
        return self.meta.base + (
            (self.hash_spec(value) & self.meta_mask) * META_BUCKET_BYTES)

    def meta_lookup(self, value: int) -> Optional[int]:
        """The leaf_lo stored for a (prefix, depth) value, or None."""
        block = self.meta_bucket_addr(value)
        while block != NULL_PTR:
            for index in range(META_SLOTS_PER_BUCKET):
                slot = block + _META_SLOT_BASE + index * META_SLOT_BYTES
                if self.memory.read_u64(slot + _META_TAG_OFFSET) == value:
                    return self.memory.read_u64(slot + _META_LEAF_OFFSET)
            block = self.memory.read_u64(block + _META_OVERFLOW_OFFSET)
        return None

    def leaf_key(self, node: int, slot: int) -> int:
        """The key stored in a leaf slot (``KEY_PAD`` when unused)."""
        return self.memory.read_u32(node + _KEYS_OFFSET + _KEY_BYTES * slot)

    def leaf_payload(self, node: int, slot: int) -> int:
        """The payload stored beside a leaf slot's key."""
        return self.memory.read_u32(
            node + _PAYLOADS_OFFSET + _KEY_BYTES * slot)

    def next_leaf(self, node: int) -> int:
        """The sorted-order pointer to the following leaf node."""
        return self.memory.read_u64(node + _NEXT_LEAF_OFFSET)

    # ------------------------------------------------------------------
    # Search (the functional reference: the walker program in slow motion)
    # ------------------------------------------------------------------

    def locate_leaf(self, key: int) -> Tuple[int, List[int]]:
        """The leaf that would hold ``key``, plus the probed depths.

        Binary-searches depths 0..8 for the longest anchor prefix of
        ``key`` (depth 0 is the implicit root: always present, leaf_lo =
        first leaf), then walks the leaf chain forward while the next
        anchor is <= key.  The probed-depth list feeds the baseline trace
        generator, which charges one independent meta fetch per probe.
        """
        probed: List[int] = []
        lo, hi = 0, MAX_DEPTH
        best = self.first_leaf
        while lo < hi:
            mid = (lo + hi + 1) // 2
            probed.append(mid)
            found = self.meta_lookup(probe_value(key, mid))
            if found is None:
                hi = mid - 1
            else:
                best = found
                lo = mid
        leaf = best
        while True:
            nxt = self.next_leaf(leaf)
            if nxt == NULL_PTR or self.leaf_key(nxt, 0) > key:
                return leaf, probed
            leaf = nxt

    def search(self, key: int) -> Optional[int]:
        """The payload stored for ``key``, or None."""
        leaf, _probed = self.locate_leaf(key)
        for slot in range(FANOUT):
            if self.leaf_key(leaf, slot) == key:
                return self.leaf_payload(leaf, slot)
        return None

    def range_scan(self, low: int, high: int) -> List[Tuple[int, int]]:
        """All (key, payload) pairs with low <= key <= high, in order."""
        if low > high:
            return []
        leaf, _probed = self.locate_leaf(low)
        results: List[Tuple[int, int]] = []
        while leaf != NULL_PTR:
            for slot in range(FANOUT):
                key = self.leaf_key(leaf, slot)
                if key == KEY_PAD or key > high:
                    return results
                if key >= low:
                    results.append((key, self.leaf_payload(leaf, slot)))
            leaf = self.next_leaf(leaf)
        return results

    def items(self) -> Iterator[Tuple[int, int]]:
        """All (key, payload) pairs in key order, via the leaf chain."""
        leaf = self.first_leaf
        while leaf != NULL_PTR:
            for slot in range(FANOUT):
                key = self.leaf_key(leaf, slot)
                if key == KEY_PAD:
                    return
                yield key, self.leaf_payload(leaf, slot)
            leaf = self.next_leaf(leaf)

    def stats(self) -> WormholeStats:
        """Structure summary: keys, leaves, meta entries and buckets."""
        return WormholeStats(num_keys=self.num_keys, leaves=self.leaf_count,
                             meta_entries=self.meta_entries,
                             meta_buckets=self.meta_buckets,
                             overflow_nodes=self.overflow_count)

    @property
    def region(self) -> Region:
        """The leaf region (warmed together with the meta region)."""
        return self.leaves

    @property
    def footprint_bytes(self) -> int:
        total = self.leaves.size + self.meta.size
        if self.overflow is not None:
            total += self.overflow.size
        return total

    def working_set(self) -> List[Tuple[int, int]]:
        """The ``(base, bytes)`` ranges a traversal touches, in warm
        order: the leaves, the meta table, then any overflow."""
        regions = [self.leaves, self.meta, self.overflow]
        return [(region.base, region.size) for region in regions
                if region is not None]
