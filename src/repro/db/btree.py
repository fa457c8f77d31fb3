"""A bulk-loaded B+-tree index in simulated memory.

Section 7 of the paper: "Widx can easily be extended to accelerate other
index structures, such as balanced trees, which are also common in
DBMSs."  This module provides that extension's substrate: a B+-tree whose
nodes are laid out for the Widx datapath (64-byte power-of-two nodes, so
level descent needs only shifts and adds), plus the functional search used
as the validation reference.

Node layout (64 bytes, one cache block):

========  =====  ======================================================
offset    size   field
========  =====  ======================================================
0         8      meta: bit 0 = leaf flag
8         4x4    keys[4] (unused slots padded with KEY_PAD = 2^32-1)
24        5x8    internal: children[5]  (child i covers key <= keys[i])
24        4x4    leaf: payloads[4]
40        8      leaf: next-leaf pointer (for range scans)
========  =====  ======================================================

The tree is bulk-loaded from sorted unique keys (the common DSS pattern:
indexes built once per query plan), giving full leaves and a minimal
height.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import PlanError
from ..mem.layout import AddressSpace, Region
from ..mem.physmem import NULL_PTR

NODE_BYTES = 64
FANOUT = 4                      # keys per node; FANOUT+1 children
KEY_PAD = (1 << 32) - 1         # pads unused key slots; sorts after all keys
META_LEAF = 1

_META_OFFSET = 0
_KEYS_OFFSET = 8
_CHILDREN_OFFSET = 24
_PAYLOADS_OFFSET = 24
_NEXT_LEAF_OFFSET = 40
_KEY_BYTES = 4                  # key and payload slot stride
_CHILD_BYTES = 8                # child pointer slot stride


@dataclass
class BTreeStats:
    """Shape statistics of a built tree."""

    num_keys: int
    height: int                 # levels including the leaf level
    leaves: int
    internal_nodes: int

    @property
    def total_nodes(self) -> int:
        return self.leaves + self.internal_nodes


class BPlusTree:
    """A read-only (bulk-loaded) B+-tree over 4-byte keys and payloads."""

    def __init__(self, space: AddressSpace, keys: Sequence[int],
                 payloads: Sequence[int], name: str = "btree") -> None:
        if len(keys) != len(payloads):
            raise PlanError("keys and payloads must have equal length")
        if len(keys) == 0:
            raise PlanError("cannot bulk-load an empty tree")
        pairs = sorted(zip((int(k) for k in keys),
                           (int(p) for p in payloads)))
        sorted_keys = [k for k, _ in pairs]
        if any(a == b for a, b in zip(sorted_keys, sorted_keys[1:])):
            raise PlanError("bulk load requires unique keys")
        if sorted_keys[-1] >= KEY_PAD:
            raise PlanError(f"keys must be below the pad value {KEY_PAD:#x}")
        self.space = space
        self.memory = space.memory
        self.name = name
        self.num_keys = len(pairs)

        leaves = (self.num_keys + FANOUT - 1) // FANOUT
        total = self._count_nodes(leaves)
        self.region: Region = space.allocate(f"{name}:nodes",
                                             total * NODE_BYTES, align=64)
        self._next_node = self.region.base
        self.height = 0
        self.leaf_count = 0
        self.internal_count = 0
        self.root = self._bulk_load(pairs)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def _count_nodes(leaves: int) -> int:
        total, level = leaves, leaves
        while level > 1:
            level = (level + FANOUT) // (FANOUT + 1)
            total += level
        return total

    def _alloc(self) -> int:
        addr = self._next_node
        if addr + NODE_BYTES > self.region.end:
            raise PlanError(f"btree {self.name!r} node budget exhausted")
        self._next_node += NODE_BYTES
        return addr

    def _write_keys(self, node: int, keys: List[int]) -> None:
        for slot in range(FANOUT):
            value = keys[slot] if slot < len(keys) else KEY_PAD
            self.memory.write_u32(node + _KEYS_OFFSET + _KEY_BYTES * slot,
                                  value)

    def _bulk_load(self, pairs: List[Tuple[int, int]]) -> int:
        # Leaf level.
        leaf_entries: List[Tuple[int, int]] = []  # (max key, node addr)
        previous_leaf: Optional[int] = None
        for start in range(0, len(pairs), FANOUT):
            chunk = pairs[start:start + FANOUT]
            node = self._alloc()
            self.memory.write_u64(node + _META_OFFSET, META_LEAF)
            self._write_keys(node, [k for k, _ in chunk])
            for slot, (_key, payload) in enumerate(chunk):
                self.memory.write_u32(
                    node + _PAYLOADS_OFFSET + _KEY_BYTES * slot, payload)
            self.memory.write_u64(node + _NEXT_LEAF_OFFSET, NULL_PTR)
            if previous_leaf is not None:
                self.memory.write_u64(previous_leaf + _NEXT_LEAF_OFFSET, node)
            previous_leaf = node
            leaf_entries.append((chunk[-1][0], node))
            self.leaf_count += 1
        self.height = 1

        # Internal levels: child i covers keys <= keys[i]; the last child
        # has no separator (covers everything greater).
        level = leaf_entries
        while len(level) > 1:
            next_level: List[Tuple[int, int]] = []
            for start in range(0, len(level), FANOUT + 1):
                group = level[start:start + FANOUT + 1]
                node = self._alloc()
                self.memory.write_u64(node + _META_OFFSET, 0)
                separators = [max_key for max_key, _ in group[:-1]]
                self._write_keys(node, separators)
                for slot, (_max_key, child) in enumerate(group):
                    self.memory.write_u64(
                        node + _CHILDREN_OFFSET + _CHILD_BYTES * slot, child)
                for slot in range(len(group), FANOUT + 1):
                    self.memory.write_u64(
                        node + _CHILDREN_OFFSET + _CHILD_BYTES * slot,
                        NULL_PTR)
                next_level.append((group[-1][0], node))
                self.internal_count += 1
            level = next_level
            self.height += 1
        return level[0][1]

    # ------------------------------------------------------------------
    # Layout accessors (shared with the trace/Widx program generators)
    # ------------------------------------------------------------------

    def node_is_leaf(self, node: int) -> bool:
        """True if the node's meta word has the leaf bit set."""
        return bool(self.memory.read_u64(node + _META_OFFSET) & META_LEAF)

    def node_key(self, node: int, slot: int) -> int:
        """The key stored in the given slot of a node."""
        return self.memory.read_u32(node + _KEYS_OFFSET + _KEY_BYTES * slot)

    def node_child(self, node: int, slot: int) -> int:
        """The child pointer in the given slot of an internal node."""
        return self.memory.read_u64(
            node + _CHILDREN_OFFSET + _CHILD_BYTES * slot)

    def node_payload(self, node: int, slot: int) -> int:
        """The payload stored in the given slot of a leaf."""
        return self.memory.read_u32(
            node + _PAYLOADS_OFFSET + _KEY_BYTES * slot)

    def next_leaf(self, node: int) -> int:
        """The leaf-chain successor pointer (NULL at the end)."""
        return self.memory.read_u64(node + _NEXT_LEAF_OFFSET)

    # ------------------------------------------------------------------
    # Search (the functional reference)
    # ------------------------------------------------------------------

    def descend_path(self, key: int) -> Iterator[int]:
        """Yield the node addresses visited searching for ``key``."""
        node = self.root
        while True:
            yield node
            if self.node_is_leaf(node):
                return
            slot = 0
            while slot < FANOUT and key > self.node_key(node, slot):
                slot += 1
            child = self.node_child(node, slot)
            if child == NULL_PTR:
                # Key is larger than everything under the last real child.
                child = self._last_real_child(node)
            node = child

    def _last_real_child(self, node: int) -> int:
        for slot in range(FANOUT, -1, -1):
            child = self.node_child(node, slot)
            if child != NULL_PTR:
                return child
        raise PlanError("internal node with no children")

    def search(self, key: int) -> Optional[int]:
        """The payload stored for ``key``, or None."""
        for node in self.descend_path(key):
            if self.node_is_leaf(node):
                for slot in range(FANOUT):
                    if self.node_key(node, slot) == key:
                        return self.node_payload(node, slot)
                return None
        return None  # pragma: no cover - descend always ends at a leaf

    def range_scan(self, low: int, high: int) -> List[Tuple[int, int]]:
        """All (key, payload) pairs with low <= key <= high, in order."""
        if low > high:
            return []
        leaf = None
        for node in self.descend_path(low):
            leaf = node
        results: List[Tuple[int, int]] = []
        while leaf != NULL_PTR:
            for slot in range(FANOUT):
                key = self.node_key(leaf, slot)
                if key == KEY_PAD or key > high:
                    return results
                if key >= low:
                    results.append((key, self.node_payload(leaf, slot)))
            leaf = self.next_leaf(leaf)
        return results

    def stats(self) -> BTreeStats:
        """Shape statistics: height, leaf and internal node counts."""
        return BTreeStats(num_keys=self.num_keys, height=self.height,
                          leaves=self.leaf_count,
                          internal_nodes=self.internal_count)

    @property
    def footprint_bytes(self) -> int:
        return self._next_node - self.region.base

    def working_set(self) -> List[Tuple[int, int]]:
        """The ``(base, bytes)`` ranges a traversal touches, in warm
        order: the nodes allocated so far."""
        return [(self.region.base, self.footprint_bytes)]


def batched_search(tree: BPlusTree, keys: Sequence[int],
                   visit_log: Optional[List[int]] = None) -> List[Optional[int]]:
    """Level-wise batched point lookups (the FPGA batch-search pattern).

    All probes of one batch descend in lock-step: at each level the
    frontier is grouped by node and every distinct node is fetched exactly
    once, no matter how many probes route through it — the amortization a
    per-probe descent cannot get.  Returns payloads aligned with ``keys``
    (None for misses).

    ``visit_log``, when given, collects the fetched node addresses in
    visit order; the hypothesis suite asserts each node appears at most
    once per batch, and the Widx batched walker relies on the same
    sharing (its repeat fetches of a shared upper-level node are L1 hits).
    """
    keys = [int(k) for k in keys]
    results: List[Optional[int]] = [None] * len(keys)
    frontier = [(i, tree.root) for i in range(len(keys))]
    while frontier:
        groups: Dict[int, List[int]] = {}
        for i, node in frontier:
            groups.setdefault(node, []).append(i)
        next_frontier: List[Tuple[int, int]] = []
        for node, members in groups.items():
            if visit_log is not None:
                visit_log.append(node)
            if tree.node_is_leaf(node):
                for i in members:
                    for slot in range(FANOUT):
                        if tree.node_key(node, slot) == keys[i]:
                            results[i] = tree.node_payload(node, slot)
                            break
            else:
                for i in members:
                    slot = 0
                    while (slot < FANOUT
                           and keys[i] > tree.node_key(node, slot)):
                        slot += 1
                    child = tree.node_child(node, slot)
                    if child == NULL_PTR:
                        child = tree._last_real_child(node)
                    next_frontier.append((i, child))
        frontier = next_frontier
    return results
