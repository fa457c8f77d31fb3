"""Baseline-core traces and timing for the ordered-index zoo.

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

Addresses are real simulated-memory addresses read from the live
structures, so running a trace through the hierarchy reproduces true
block reuse — the same property :mod:`repro.cpu.trace` relies on.  Each
generator walks its structure once, steering by the words its trace
loads, each read once straight from simulated memory.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from ..config import SystemConfig, DEFAULT_CONFIG
from ..db import btree as _btree
from ..db import trie as _trie
from ..db import wormhole as _wormhole
from ..db.btree import BPlusTree
from ..db.column import Column
from ..db.trie import MlpTrie, probe_value, tag_value
from ..db.wormhole import WormholeIndex
from ..mem.hierarchy import MemoryHierarchy
from ..mem.physmem import NULL_PTR
from .timing import CoreTimingResult, _time_traces, warm_hash_index
from .trace import TraceGenerator, address_chain
from .uops import (BRANCH_PREV, LOOP_TAIL, LOOP_TAIL_MISPREDICTED, TEST_PREV,
                   TraceBuilder, Uop)


class TreeTraceGenerator(TraceGenerator):
    """Per-probe B+-tree descents: the dependent-load chain baseline."""

    def __init__(self, tree: BPlusTree, probe_keys: Column,
                 model_mispredicts: bool = True) -> None:
        super().__init__(probe_keys)
        self.tree = tree
        self.model_mispredicts = model_mispredicts

    def probe_uops(self, row: int) -> List[Uop]:
        """One root-to-leaf descent: a load per level, each dependent
        on its parent's load — the pointer chase an OoO window can only
        overlap *across* probes, never within one.  The descent is the
        functional search itself, reading each node word once."""
        tree = self.tree
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
            keys = node + _btree._KEYS_OFFSET
            if read(meta, 8) & _btree.META_LEAF:
                for slot in range(_btree.FANOUT):
                    compare(keys + _btree._KEY_BYTES * slot, meta_ready,
                            key_ready)
                    if read(keys + _btree._KEY_BYTES * slot, 4) == key:
                        load(node + _btree._PAYLOADS_OFFSET
                             + _btree._KEY_BYTES * slot, meta_ready)
                        break
                else:
                    if self.model_mispredicts:
                        # The miss exit deviates from the common found path.
                        trace.mispredicted_branch(meta_ready)
                break
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

    def __init__(self, trie: MlpTrie, probe_keys: Column,
                 model_mispredicts: bool = True) -> None:
        super().__init__(probe_keys)
        self.trie = trie
        self.model_mispredicts = model_mispredicts
        self._typical_depth = max(1, round(trie.mean_depth))
        self._address_chain = address_chain(trie.hash_spec, extra=1)

    def probe_uops(self, row: int) -> List[Uop]:
        """One MLP-trie lookup: every candidate bucket address depends
        only on the key load, so the level fetches issue in parallel."""
        trie = self.trie
        read = trie.memory.read
        trace = TraceBuilder()
        load, compare, run = trace.load, trace.compare, trace.run

        key = int(self.probe_keys.values[row])
        key_ready = load(self.probe_keys.address_of(row))

        hit_depth = None
        for depth in range(1, _trie.MAX_DEPTH + 1):
            # Probe value, hash and bucket address are functions of the
            # key alone: the whole address chain for this depth depends
            # only on the key load, NOT on any other depth — the MLP the
            # layout exists to expose.
            trace.alu(key_ready)                 # shift; then + depth tag,
            block_dep = run(self._address_chain)  # hash, bucket address

            expect = tag_value(key, depth)
            block = trie.bucket_addr(key, depth)
            while block != NULL_PTR:
                for index in range(_trie.SLOTS_PER_BUCKET):
                    slot = block + _trie._SLOT_BASE + index * _trie.SLOT_BYTES
                    compare(slot + _trie._TAG_OFFSET, block_dep, key_ready)
                    if read(slot + _trie._TAG_OFFSET, 8) == expect:
                        load(slot + _trie._PAYLOAD_OFFSET, block_dep)
                        hit_depth = depth
                        break
                if hit_depth is not None:
                    break
                # Overflow pointer: the intra-bucket chain IS dependent.
                block_dep = load(block + _trie._OVERFLOW_OFFSET, block_dep)
                run(BRANCH_PREV)
                block = read(block + _trie._OVERFLOW_OFFSET, 8)
            if hit_depth is not None:
                break
        mispredict = (self.model_mispredicts
                      and (hit_depth or _trie.MAX_DEPTH) != self._typical_depth)
        run(LOOP_TAIL_MISPREDICTED if mispredict else LOOP_TAIL)
        return trace.uops


class WormholeTraceGenerator(TraceGenerator):
    """Per-probe wormhole lookups: binary search then a bounded walk."""

    def __init__(self, index: WormholeIndex, probe_keys: Column,
                 model_mispredicts: bool = True) -> None:
        super().__init__(probe_keys)
        self.index = index
        self.model_mispredicts = model_mispredicts
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
        # depth to probe is decided by the CURRENT probe's outcome, so
        # each probe's address chain carries a dependency on the previous
        # probe — a short dependent chain (log depths), traded for the
        # tree's tall one.
        lo, hi = 0, _wormhole.MAX_DEPTH
        best = wh.first_leaf
        outcome_dep = key_ready
        while lo < hi:
            mid = (lo + hi + 1) // 2
            trace.alu(key_ready, outcome_dep)    # prefix at this depth,
            block_dep = run(self._address_chain)  # hash, bucket address

            value = probe_value(key, mid)
            found = None
            # The probe's outcome is the last uop on its path.
            outcome_dep = block_dep
            block = wh.meta_bucket_addr(value)
            while block != NULL_PTR:
                for index in range(_wormhole.META_SLOTS_PER_BUCKET):
                    slot = (block + _wormhole._META_SLOT_BASE
                            + index * _wormhole.META_SLOT_BYTES)
                    compare(slot + _wormhole._META_TAG_OFFSET, block_dep,
                            key_ready)
                    if read(slot + _wormhole._META_TAG_OFFSET, 8) == value:
                        outcome_dep = load(
                            slot + _wormhole._META_LEAF_OFFSET, block_dep)
                        found = read(slot + _wormhole._META_LEAF_OFFSET, 8)
                        break
                if found is not None:
                    break
                block_dep = load(block + _wormhole._META_OVERFLOW_OFFSET,
                                 block_dep)
                outcome_dep = run(BRANCH_PREV)
                block = read(block + _wormhole._META_OVERFLOW_OFFSET, 8)
            if found is None:
                hi = mid - 1
            else:
                best = found
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

        # Final leaf: scan slots for the key.
        for slot in range(_wormhole.FANOUT):
            offset = _btree._KEY_BYTES * slot
            compare(leaf + _wormhole._KEYS_OFFSET + offset, leaf_dep,
                    key_ready)
            if read(leaf + _wormhole._KEYS_OFFSET + offset, 4) == key:
                load(leaf + _wormhole._PAYLOADS_OFFSET + offset, leaf_dep)
                break
        else:
            if self.model_mispredicts:
                trace.mispredicted_branch(leaf_dep)
        run(LOOP_TAIL)
        return trace.uops


class BatchedTreeTraceGenerator(TraceGenerator):
    """Level-wise batched descents: each trace consumes ``batch`` probes."""

    def __init__(self, tree: BPlusTree, probe_keys: Column,
                 batch: int = 4, sort_batches: bool = True) -> None:
        super().__init__(probe_keys)
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.tree = tree
        self.batch = batch
        self.sort_batches = sort_batches
        self.tuples_per_trace = batch

    def stream(self, rows: Optional[Sequence[int]] = None) -> Iterator[List[Uop]]:
        """Yield one trace per whole batch (a trailing partial batch is
        dropped, mirroring the serve layer's fixed-size batches)."""
        if rows is None:
            rows = range(len(self.probe_keys.values))
        rows = list(rows)
        for start in range(0, len(rows) - self.batch + 1, self.batch):
            yield self.batch_uops(rows[start:start + self.batch])

    def batch_uops(self, rows: Sequence[int]) -> List[Uop]:
        """One level-wise batched descent: each distinct node on the
        batch's frontier is loaded once per level and later members of
        the group reuse the loaded block (and its key words, read once
        per node)."""
        tree = self.tree
        read = tree.memory.read
        trace = TraceBuilder()
        load, compare_loaded = trace.load, trace.compare_loaded

        keys = [int(self.probe_keys.values[row]) for row in rows]
        key_ready = [load(self.probe_keys.address_of(row)) for row in rows]
        order = sorted(range(len(keys)), key=keys.__getitem__) \
            if self.sort_batches else list(range(len(keys)))

        # frontier: probe slot -> (node, index of the parent's load).
        frontier = [(i, tree.root, key_ready[i]) for i in order]
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
                node_keys = [read(node + _btree._KEYS_OFFSET
                                  + _btree._KEY_BYTES * slot, 4)
                             for slot in range(_btree.FANOUT)]
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
                                 + _btree._KEY_BYTES * slot, node_ready)
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


def make_ordered_generator(index_class: str, index, probe_keys: Column, *,
                           batch: int = 4) -> TraceGenerator:
    """The trace generator matching an ordered workload class."""
    if index_class == "btree":
        return TreeTraceGenerator(index, probe_keys)
    if index_class == "trie":
        return TrieTraceGenerator(index, probe_keys)
    if index_class == "wormhole":
        return WormholeTraceGenerator(index, probe_keys)
    if index_class == "batched":
        return BatchedTreeTraceGenerator(index, probe_keys, batch=batch)
    raise ValueError(f"unknown ordered index class {index_class!r}")


def measure_ordered_indexing(index, probe_keys: Column, *,
                             index_class: str,
                             core: str = "ooo",
                             config: SystemConfig = DEFAULT_CONFIG,
                             warmup_probes: int = 64,
                             measure_probes: Optional[int] = None,
                             batch: int = 4,
                             batch_size: int = 128,
                             warm_index: bool = True) -> CoreTimingResult:
    """Run an ordered-index probe loop on a baseline core model.

    Mirrors :func:`repro.cpu.timing.measure_indexing`.

    ``warmup_probes``/``measure_probes`` count probes (tuples), not
    traces: for the batched class they are rounded down to whole batches.
    """
    memory = MemoryHierarchy(config)
    if warm_index:
        warm_hash_index(memory, index)
    generator = make_ordered_generator(index_class, index, probe_keys,
                                       batch=batch)
    per_trace = generator.tuples_per_trace
    total_rows = len(probe_keys.values)
    limit = total_rows if measure_probes is None else min(
        total_rows, warmup_probes + measure_probes)
    rows = range((limit // per_trace) * per_trace)
    warmup_traces = warmup_probes // per_trace
    if len(rows) // per_trace <= warmup_traces:
        raise ValueError(
            f"need more than {warmup_probes} probes to measure after warm-up")
    return _time_traces(generator.stream(rows), memory, core=core,
                        config=config, warmup_traces=warmup_traces,
                        batch_size=max(1, batch_size // per_trace),
                        tuples_per_trace=per_trace)
