"""Baseline-core traces for the ordered-index zoo, and the generator
of every index class.

Each generator expands live-structure traversals into uop traces whose
dependency shapes are the experiment:

* :class:`TreeTraceGenerator` — the B+-tree descent is a *dependent* load
  chain (each node address comes out of the previous node), exactly the
  pattern the paper's walkers target.
* :class:`TrieTraceGenerator` — the hashed trie's per-level bucket
  addresses are computed straight from the key, so every level's fetch
  depends only on the key load.  An OoO window overlaps them; the
  in-order core serializes them anyway.  This is the honest baseline for
  the Cuckoo-Trie counter-argument.
* :class:`WormholeTraceGenerator` — the MetaTrieHash binary search is a
  short dependent chain (the next depth to probe is decided by the
  current probe's outcome), followed by a bounded leaf walk.
* :class:`BatchedTreeTraceGenerator` — level-wise batched descent over
  the same tree: per level each distinct node is fetched once, however
  many of the batch's probes route through it, so repeat visits become
  register/L1 reuse instead of fresh misses.

Like the Widx programs (:mod:`repro.widx.programs`), the generators
share their common steps as fragments over the :mod:`repro.db` layout
constants: :func:`_leaf_point_scan` (B+-tree and wormhole leaves, which
use one layout) and :func:`_bucket_chain` (trie buckets and the
wormhole's meta-hash buckets, each with its own slot offsets).
:data:`TRACE_GENERATORS` names the generator of every index class, the
hash kernel's included; :func:`measure_ordered_indexing` times one on
:func:`repro.cpu.timing.time_probe_loop`, the loop every baseline
measurement runs.

Addresses are real simulated-memory addresses read from the live
structures, so running a trace through the hierarchy reproduces true
block reuse — the same property :mod:`repro.cpu.trace` relies on.  Each
generator walks its structure once, steering by the words its trace
loads, each read once straight from simulated memory.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

from ..config import SystemConfig, DEFAULT_CONFIG
from ..db import btree as _btree
from ..db import trie as _trie
from ..db import wormhole as _wormhole
from ..db.btree import BPlusTree
from ..db.column import Column
from ..db.trie import MlpTrie, probe_value, tag_value
from ..db.wormhole import WormholeIndex
from ..mem.physmem import NULL_PTR
from .timing import CoreTimingResult, time_probe_loop
from .trace import ProbeTraceGenerator, TraceGenerator, address_chain
from .uops import (BRANCH_PREV, LOOP_TAIL, LOOP_TAIL_MISPREDICTED, TEST_PREV,
                   TraceBuilder, Uop)

#: Byte offset of each key (and payload) slot in a B+-tree-layout node.
_SLOT_OFFSETS = tuple(_btree._KEY_BYTES * slot for slot in range(_btree.FANOUT))


def _leaf_point_scan(trace: TraceBuilder, read, leaf: int, dep: int,
                     key: int, key_ready: int) -> None:
    """Scan the B+-tree-layout leaf at ``leaf`` for ``key``: compare each
    key slot (its load waiting on ``dep``, the leaf's own load) with the
    probe key loaded at ``key_ready`` and load the payload on a match.
    A full miss ends on a mispredicted branch: the miss exit deviates
    from the common found path."""
    for offset in _SLOT_OFFSETS:
        trace.compare(leaf + _btree._KEYS_OFFSET + offset, dep, key_ready)
        if read(leaf + _btree._KEYS_OFFSET + offset, 4) == key:
            trace.load(leaf + _btree._PAYLOADS_OFFSET + offset, dep)
            return
    trace.mispredicted_branch(dep)


def _bucket_chain(trace: TraceBuilder, read, block: int, dep: int,
                  key_ready: int, tag: int, tags: Sequence[int], value: int,
                  overflow: int) -> Tuple[Optional[int], int]:
    """Probe the bucket chain from ``block`` for ``tag``: compare the
    8-byte slot tag at each offset in ``tags`` (loads waiting on ``dep``,
    the bucket address), then follow the overflow pointer at
    ``overflow``, a dependent load.  On a match load the word ``value``
    bytes past the tag and return its address and the load's index; at
    the end of the chain return ``None`` and the last uop's index."""
    last = dep
    while block != NULL_PTR:
        for offset in tags:
            trace.compare(block + offset, dep, key_ready)
            if read(block + offset, 8) == tag:
                return (block + offset + value,
                        trace.load(block + offset + value, dep))
        dep = trace.load(block + overflow, dep)
        last = trace.run(BRANCH_PREV)
        block = read(block + overflow, 8)
    return None, last


#: Tag offsets within a trie bucket, and a slot's payload past its tag.
_TRIE_TAGS = tuple(_trie._SLOT_BASE + index * _trie.SLOT_BYTES
                   + _trie._TAG_OFFSET
                   for index in range(_trie.SLOTS_PER_BUCKET))
_TRIE_VALUE = _trie._PAYLOAD_OFFSET - _trie._TAG_OFFSET
#: Tag offsets within a wormhole meta bucket, and a slot's leaf pointer.
_META_TAGS = tuple(_wormhole._META_SLOT_BASE
                   + index * _wormhole.META_SLOT_BYTES
                   + _wormhole._META_TAG_OFFSET
                   for index in range(_wormhole.META_SLOTS_PER_BUCKET))
_META_VALUE = _wormhole._META_LEAF_OFFSET - _wormhole._META_TAG_OFFSET


class TreeTraceGenerator(TraceGenerator):
    """Per-probe B+-tree descents: the dependent-load chain baseline."""

    def probe_uops(self, row: int) -> List[Uop]:
        """One root-to-leaf descent: a load per level, each dependent
        on its parent's load — the pointer chase an OoO window can only
        overlap *across* probes, never within one.  The descent is the
        functional search itself, reading each node word once."""
        tree = self.index
        read = tree.memory.read
        trace = TraceBuilder()
        load, compare, run = trace.load, trace.compare, trace.run

        key = int(self.probe_keys.values[row])
        key_ready = load(self.probe_keys.address_of(row))

        node = tree.root
        node_dep = key_ready
        while True:
            # Meta word: leaf test.  The node address came from the parent.
            meta = node + _btree._META_OFFSET
            meta_ready = load(meta, node_dep)
            run(TEST_PREV)
            if read(meta, 8) & _btree.META_LEAF:
                _leaf_point_scan(trace, read, node, meta_ready, key,
                                 key_ready)
                break
            keys = node + _btree._KEYS_OFFSET
            slot = 0
            while slot < _btree.FANOUT:
                compare(keys + _btree._KEY_BYTES * slot, meta_ready,
                        key_ready)
                if key <= read(keys + _btree._KEY_BYTES * slot, 4):
                    break
                slot += 1
            # Child pointer: the dependency that serializes the descent.
            pointer = (node + _btree._CHILDREN_OFFSET
                       + _btree._CHILD_BYTES * slot)
            node_dep = load(pointer, meta_ready)
            child = read(pointer, 8)
            # A key above everything under the last real child follows it.
            node = child if child != NULL_PTR else tree._last_real_child(node)
        # Probe-loop bookkeeping.
        run(LOOP_TAIL)
        return trace.uops


class TrieTraceGenerator(TraceGenerator):
    """Per-probe hashed-trie lookups: independent per-level fetches."""

    def __init__(self, trie: MlpTrie, probe_keys: Column) -> None:
        super().__init__(trie, probe_keys)
        self._typical_depth = max(1, round(trie.mean_depth))
        self._address_chain = address_chain(trie.hash_spec, extra=1)

    def probe_uops(self, row: int) -> List[Uop]:
        """One MLP-trie lookup: every candidate bucket address depends
        only on the key load, so the level fetches issue in parallel."""
        trie = self.index
        read = trie.memory.read
        trace = TraceBuilder()

        key = int(self.probe_keys.values[row])
        key_ready = trace.load(self.probe_keys.address_of(row))

        hit_depth = _trie.MAX_DEPTH
        for depth in range(1, _trie.MAX_DEPTH + 1):
            # Probe value, hash and bucket address are functions of the
            # key alone: the whole address chain for this depth depends
            # only on the key load, NOT on any other depth — the MLP the
            # layout exists to expose.  Only the overflow chain within a
            # depth is dependent.
            trace.alu(key_ready)                       # shift; then + tag,
            block_dep = trace.run(self._address_chain)  # hash, bucket
            hit, _last = _bucket_chain(
                trace, read, trie.bucket_addr(key, depth), block_dep,
                key_ready, tag_value(key, depth), _TRIE_TAGS, _TRIE_VALUE,
                _trie._OVERFLOW_OFFSET)
            if hit is not None:
                hit_depth = depth
                break
        trace.run(LOOP_TAIL_MISPREDICTED if hit_depth != self._typical_depth
                  else LOOP_TAIL)
        return trace.uops


class WormholeTraceGenerator(TraceGenerator):
    """Per-probe wormhole lookups: binary search then a bounded walk."""

    def __init__(self, index: WormholeIndex, probe_keys: Column) -> None:
        super().__init__(index, probe_keys)
        self._address_chain = address_chain(index.hash_spec, extra=1)

    def probe_uops(self, row: int) -> List[Uop]:
        """One wormhole lookup: binary search over prefix depths in the
        meta hash, then a single leaf scan."""
        wh = self.index
        read = wh.memory.read
        trace = TraceBuilder()
        load, compare, run = trace.load, trace.compare, trace.run

        key = int(self.probe_keys.values[row])
        key_ready = load(self.probe_keys.address_of(row))

        # Binary search over prefix depths.  Unlike the trie, the NEXT
        # depth to probe is decided by the CURRENT probe's outcome (the
        # last uop on its path), so each probe's address chain carries a
        # dependency on the previous probe — a short dependent chain (log
        # depths), traded for the tree's tall one.
        lo, hi = 0, _wormhole.MAX_DEPTH
        best = wh.first_leaf
        outcome_dep = key_ready
        while lo < hi:
            mid = (lo + hi + 1) // 2
            trace.alu(key_ready, outcome_dep)    # prefix at this depth,
            block_dep = run(self._address_chain)  # hash, bucket address
            value = probe_value(key, mid)
            found, outcome_dep = _bucket_chain(
                trace, read, wh.meta_bucket_addr(value), block_dep,
                key_ready, value, _META_TAGS, _META_VALUE,
                _wormhole._META_OVERFLOW_OFFSET)
            if found is None:
                hi = mid - 1
            else:
                best = read(found, 8)
                lo = mid

        # Forward leaf walk: anchors are read through a dependent chain.
        leaf = best
        leaf_dep = outcome_dep
        while True:
            next_ready = load(leaf + _wormhole._NEXT_LEAF_OFFSET, leaf_dep)
            nxt = read(leaf + _wormhole._NEXT_LEAF_OFFSET, 8)
            if nxt == NULL_PTR:
                run(BRANCH_PREV)
                break
            compare(nxt + _wormhole._KEYS_OFFSET, next_ready, key_ready)
            if read(nxt + _wormhole._KEYS_OFFSET, 4) > key:
                break
            leaf = nxt
            leaf_dep = next_ready

        _leaf_point_scan(trace, read, leaf, leaf_dep, key, key_ready)
        run(LOOP_TAIL)
        return trace.uops


class BatchedTreeTraceGenerator(TraceGenerator):
    """Level-wise batched descents: each trace consumes ``batch`` probes,
    descended together in key order."""

    def __init__(self, tree: BPlusTree, probe_keys: Column,
                 batch: int = 4) -> None:
        super().__init__(tree, probe_keys)
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.tuples_per_trace = batch

    def stream(self, rows: Optional[Sequence[int]] = None) -> Iterator[List[Uop]]:
        """Yield one trace per whole batch (a trailing partial batch is
        dropped, mirroring the serve layer's fixed-size batches)."""
        if rows is None:
            rows = range(len(self.probe_keys.values))
        rows = list(rows)
        batch = self.tuples_per_trace
        for start in range(0, len(rows) - batch + 1, batch):
            yield self.batch_uops(rows[start:start + batch])

    def batch_uops(self, rows: Sequence[int]) -> List[Uop]:
        """One level-wise batched descent: each distinct node on the
        batch's frontier is loaded once per level and later members of
        the group reuse the loaded block (and its key words, read once
        per node)."""
        tree = self.index
        read = tree.memory.read
        trace = TraceBuilder()
        load, compare_loaded = trace.load, trace.compare_loaded

        keys = [int(self.probe_keys.values[row]) for row in rows]
        key_ready = [load(self.probe_keys.address_of(row)) for row in rows]

        # frontier: probe slot -> (node, index of the parent's load).
        frontier = [(i, tree.root, key_ready[i])
                    for i in sorted(range(len(keys)), key=keys.__getitem__)]
        while frontier:
            groups: Dict[int, List] = {}
            for i, node, dep in frontier:
                groups.setdefault(node, []).append((i, dep))
            next_frontier = []
            for node, members in groups.items():
                # One fetch per distinct node per level — the batched
                # amortization.  Later members reuse the loaded block.
                meta = node + _btree._META_OFFSET
                node_ready = load(meta, members[0][1])
                trace.run(TEST_PREV)
                node_keys = [read(node + _btree._KEYS_OFFSET + offset, 4)
                             for offset in _SLOT_OFFSETS]
                leaf = read(meta, 8) & _btree.META_LEAF
                for i, _dep in members:
                    key = keys[i]
                    slot = 0
                    if leaf:
                        # Compare slot by slot up to the key (all on a miss).
                        while (slot < _btree.FANOUT - 1
                               and node_keys[slot] != key):
                            slot += 1
                        compare_loaded(node_ready, key_ready[i], slot + 1)
                        if node_keys[slot] == key:
                            load(node + _btree._PAYLOADS_OFFSET
                                 + _SLOT_OFFSETS[slot], node_ready)
                        continue
                    while slot < _btree.FANOUT and key > node_keys[slot]:
                        slot += 1
                    compare_loaded(node_ready, key_ready[i],
                                   min(slot + 1, _btree.FANOUT))
                    child = read(node + _btree._CHILDREN_OFFSET
                                 + _btree._CHILD_BYTES * slot, 8)
                    if child == NULL_PTR:
                        child = tree._last_real_child(node)
                    next_frontier.append((i, child, node_ready))
            frontier = next_frontier
        trace.run(LOOP_TAIL)
        return trace.uops


#: The trace generator of every index class: the hash kernel's and the
#: ordered zoo's (:data:`repro.workloads.ordered_kernel.ORDERED_CLASSES`).
TRACE_GENERATORS: Dict[str, Type[TraceGenerator]] = {
    "hash": ProbeTraceGenerator,
    "btree": TreeTraceGenerator,
    "trie": TrieTraceGenerator,
    "wormhole": WormholeTraceGenerator,
    "batched": BatchedTreeTraceGenerator,
}


def measure_ordered_indexing(index, probe_keys: Column, *,
                             index_class: str,
                             core: str = "ooo",
                             config: SystemConfig = DEFAULT_CONFIG,
                             warmup_probes: int = 64,
                             measure_probes: Optional[int] = None,
                             batch_size: int = 128,
                             warm_index: bool = True) -> CoreTimingResult:
    """Run an ``index_class`` probe loop on a baseline core model; return
    cycles/tuple (see :func:`repro.cpu.timing.time_probe_loop`)."""
    if index_class not in TRACE_GENERATORS:
        raise ValueError(f"unknown index class {index_class!r}")
    return time_probe_loop(TRACE_GENERATORS[index_class](index, probe_keys),
                           core=core, config=config,
                           warmup_probes=warmup_probes,
                           measure_probes=measure_probes,
                           batch_size=batch_size, warm_index=warm_index)
