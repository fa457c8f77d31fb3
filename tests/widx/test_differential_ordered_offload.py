"""Differential tests for the ordered-index zoo offload programs.

Every ordered traversal class — the B+-tree, the MLP-friendly trie, the
hash-accelerated wormhole, and the level-wise batched B+-tree — gets the
same wall the hash offload got:

* **Functional**: the payload multiset an offloaded walker run emits
  (``validate=False``, so the offload's own cross-check is out of the
  loop) against ground truth computed here with the functional index
  (``search`` / ``range_scan``), across lookups, misses and range scans.
* **Mechanical**: the full simulated outcome on the optimized memory
  system against the all-naive reference twin injected through the
  ``memory=``/``engine=``/``unit_cls=`` seams — cycles, payloads and
  every unit/memory counter must be bit-identical.
* **Grid**: index class x walker organization x workload size x seed,
  mirroring ``tests/pim/test_differential_pim.py``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.db.btree import BPlusTree
from repro.db.column import Column
from repro.db.trie import MlpTrie
from repro.db.types import DataType
from repro.db.wormhole import WormholeIndex
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.reference import use_reference_arrays
from repro.sim.reference import ReferenceEngine
from repro.widx.offload import (offload_batched_tree, offload_tree_ranges,
                                offload_tree_search, offload_trie_ranges,
                                offload_trie_search,
                                offload_wormhole_ranges,
                                offload_wormhole_search)
from repro.widx.reference import ReferenceWidxUnit

#: (seed, number of keys): tiny, one split level, multi level.
SHAPES = [(3, 8), (5, 60), (7, 400)]

INDEX_CLASSES = {
    "btree": (BPlusTree, offload_tree_search),
    "trie": (MlpTrie, offload_trie_search),
    "wormhole": (WormholeIndex, offload_wormhole_search),
}


def build_index(space, cls, seed, num_keys):
    rng = random.Random(seed)
    keys = rng.sample(range(1, 2**31), num_keys)
    payloads = [rng.randrange(1, 2**31) for _ in keys]
    return cls(space, keys, payloads), keys, dict(zip(keys, payloads))


def probe_column(space, keys, seed, count, match_fraction=0.7):
    rng = random.Random(seed + 1)
    values = [rng.choice(keys) if rng.random() < match_fraction
              else rng.randrange(1, 2**31)
              for _ in range(count)]
    column = Column("probes", DataType.U32,
                    np.asarray(values, dtype=np.uint32))
    column.materialize(space)
    return column


def random_ranges(keys, seed, count):
    rng = random.Random(seed + 2)
    lo, hi = min(keys), max(keys)
    ranges = []
    for _ in range(count):
        a, b = rng.randint(max(0, lo - 5), hi + 5), rng.randint(lo, hi + 5)
        ranges.append((min(a, b), max(a, b)))
    return ranges


def outcome_key(outcome):
    """Every externally observable artifact of one offload run."""
    run = outcome.run
    units = tuple(
        (name, stats.invocations.value, stats.instructions.value,
         stats.loads.value, stats.stores.value, stats.emitted.value,
         stats.cycles.comp, stats.cycles.mem, stats.cycles.tlb,
         stats.cycles.queue)
        for name, stats in sorted(run.unit_stats.items()))
    memory = {path: value for path, value in outcome.stats.items()
              if path.startswith("mem.")}
    return (run.total_cycles, run.matches, tuple(outcome.payloads),
            outcome.validated, units, memory)


def reference_kwargs(config):
    return dict(memory=use_reference_arrays(MemoryHierarchy(config)),
                engine=ReferenceEngine(),
                unit_cls=ReferenceWidxUnit)


# ---------------------------------------------------------------------------
# functional differentials: emitted payloads vs the functional index
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("index_class", sorted(INDEX_CLASSES))
@pytest.mark.parametrize("seed,num_keys", SHAPES)
@pytest.mark.parametrize("mode,walkers", [("shared", 1), ("shared", 4),
                                          ("private", 2)])
def test_search_payloads_match_functional_search(space, index_class, seed,
                                                 num_keys, mode, walkers):
    cls, offload = INDEX_CLASSES[index_class]
    index, keys, truth = build_index(space, cls, seed, num_keys)
    column = probe_column(space, keys, seed, count=min(120, 3 * num_keys))
    expected = sorted(truth[int(v)] for v in column.values
                      if int(v) in truth)
    outcome = offload(
        index, column,
        config=DEFAULT_CONFIG.with_widx(num_walkers=walkers, mode=mode),
        validate=False)
    assert sorted(outcome.payloads) == expected
    assert outcome.run.matches == len(expected)


@pytest.mark.parametrize("index_class", sorted(INDEX_CLASSES))
def test_search_all_misses_emit_nothing(space, index_class):
    cls, offload = INDEX_CLASSES[index_class]
    index, keys, _truth = build_index(space, cls, 5, 60)
    column = probe_column(space, keys, 5, count=80, match_fraction=0.0)
    config = DEFAULT_CONFIG.with_widx(num_walkers=2, mode="shared")
    outcome = offload(index, column, config=config, validate=False)
    assert outcome.payloads == []
    assert outcome.run.matches == 0


@pytest.mark.parametrize("seed,num_keys", SHAPES)
@pytest.mark.parametrize("walkers", [1, 3])
def test_tree_range_payloads_match_functional_scan(space, seed, num_keys,
                                                   walkers):
    tree, keys, _truth = build_index(space, BPlusTree, seed, num_keys)
    ranges = random_ranges(keys, seed, count=8)
    expected = sorted(payload for low, high in ranges
                      for _key, payload in tree.range_scan(low, high))
    outcome = offload_tree_ranges(
        tree, ranges,
        config=DEFAULT_CONFIG.with_widx(num_walkers=walkers, mode="shared"),
        validate=False)
    assert sorted(outcome.payloads) == expected
    assert outcome.run.matches == len(expected)


@pytest.mark.parametrize("seed,num_keys", SHAPES)
@pytest.mark.parametrize("walkers", [1, 3])
def test_trie_range_payloads_match_functional_scan(space, seed, num_keys,
                                                   walkers):
    trie, keys, _truth = build_index(space, MlpTrie, seed, num_keys)
    ranges = random_ranges(keys, seed, count=8)
    expected = sorted(payload for low, high in ranges
                      for _key, payload in trie.range_scan(low, high))
    outcome = offload_trie_ranges(
        trie, ranges,
        config=DEFAULT_CONFIG.with_widx(num_walkers=walkers, mode="shared"),
        validate=False)
    assert sorted(outcome.payloads) == expected
    assert outcome.run.matches == len(expected)


@pytest.mark.parametrize("seed,num_keys", SHAPES)
@pytest.mark.parametrize("walkers", [1, 3])
def test_wormhole_range_payloads_match_functional_scan(space, seed, num_keys,
                                                       walkers):
    index, keys, _truth = build_index(space, WormholeIndex, seed, num_keys)
    ranges = random_ranges(keys, seed, count=8)
    expected = sorted(payload for low, high in ranges
                      for _key, payload in index.range_scan(low, high))
    outcome = offload_wormhole_ranges(
        index, ranges,
        config=DEFAULT_CONFIG.with_widx(num_walkers=walkers, mode="shared"),
        validate=False)
    assert sorted(outcome.payloads) == expected
    assert outcome.run.matches == len(expected)


@pytest.mark.parametrize("seed,num_keys", SHAPES)
@pytest.mark.parametrize("walkers,batch", [(1, 4), (2, 2), (4, 3)])
def test_batched_tree_payloads_match_functional_search(space, seed, num_keys,
                                                       walkers, batch):
    tree, keys, truth = build_index(space, BPlusTree, seed, num_keys)
    count = (min(120, 3 * num_keys) // batch) * batch
    column = probe_column(space, keys, seed, count=count)
    expected = sorted(truth[int(v)] for v in column.values[:count]
                      if int(v) in truth)
    outcome = offload_batched_tree(
        tree, column, batch=batch,
        config=DEFAULT_CONFIG.with_widx(num_walkers=walkers),
        validate=False)
    assert sorted(outcome.payloads) == expected
    assert outcome.run.matches == len(expected)


def test_batched_tree_unsorted_batches_match_functional_search(space):
    """``sort_batches=False`` stages keys in arrival order; the emitted
    payload multiset must not depend on the staging order."""
    tree, keys, truth = build_index(space, BPlusTree, 7, 400)
    column = probe_column(space, keys, 7, count=120)
    expected = sorted(truth[int(v)] for v in column.values
                      if int(v) in truth)
    outcome = offload_batched_tree(
        tree, column, batch=4, sort_batches=False,
        config=DEFAULT_CONFIG.with_widx(num_walkers=2),
        validate=False)
    assert sorted(outcome.payloads) == expected


# ---------------------------------------------------------------------------
# mechanical differentials: optimized stack vs the all-naive twin
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("index_class", sorted(INDEX_CLASSES))
@pytest.mark.parametrize("walkers", [1, 2, 4])
def test_search_identical_on_reference_stack(space, index_class, walkers):
    cls, offload = INDEX_CLASSES[index_class]
    index, keys, _truth = build_index(space, cls, 5, 60)
    column = probe_column(space, keys, 5, count=100)
    config = DEFAULT_CONFIG.with_widx(num_walkers=walkers, mode="shared")
    optimized = offload(index, column, config=config)
    reference = offload(index, column, config=config,
                        **reference_kwargs(config))
    assert optimized.validated is reference.validated is True
    assert outcome_key(optimized) == outcome_key(reference)


@pytest.mark.parametrize("index_class", sorted(INDEX_CLASSES))
def test_search_identical_on_reference_stack_private_mode(space, index_class):
    cls, offload = INDEX_CLASSES[index_class]
    index, keys, _truth = build_index(space, cls, 7, 400)
    column = probe_column(space, keys, 7, count=100)
    config = DEFAULT_CONFIG.with_widx(num_walkers=2, mode="private")
    optimized = offload(index, column, config=config)
    reference = offload(index, column, config=config,
                        **reference_kwargs(config))
    assert outcome_key(optimized) == outcome_key(reference)


def test_tree_ranges_identical_on_reference_stack(space):
    tree, keys, _truth = build_index(space, BPlusTree, 7, 400)
    ranges = random_ranges(keys, 7, count=6)
    config = DEFAULT_CONFIG.with_widx(num_walkers=2, mode="shared")
    optimized = offload_tree_ranges(tree, ranges, config=config)
    reference = offload_tree_ranges(tree, ranges, config=config,
                                    **reference_kwargs(config))
    assert optimized.validated is reference.validated is True
    assert outcome_key(optimized) == outcome_key(reference)


def test_trie_ranges_identical_on_reference_stack(space):
    trie, keys, _truth = build_index(space, MlpTrie, 7, 400)
    ranges = random_ranges(keys, 7, count=6)
    config = DEFAULT_CONFIG.with_widx(num_walkers=2, mode="shared")
    optimized = offload_trie_ranges(trie, ranges, config=config)
    reference = offload_trie_ranges(trie, ranges, config=config,
                                    **reference_kwargs(config))
    assert outcome_key(optimized) == outcome_key(reference)


def test_wormhole_ranges_identical_on_reference_stack(space):
    index, keys, _truth = build_index(space, WormholeIndex, 7, 400)
    ranges = random_ranges(keys, 7, count=6)
    config = DEFAULT_CONFIG.with_widx(num_walkers=2, mode="shared")
    optimized = offload_wormhole_ranges(index, ranges, config=config)
    reference = offload_wormhole_ranges(index, ranges, config=config,
                                        **reference_kwargs(config))
    assert outcome_key(optimized) == outcome_key(reference)


@pytest.mark.parametrize("walkers", [1, 4])
def test_batched_tree_identical_on_reference_stack(space, walkers):
    tree, keys, _truth = build_index(space, BPlusTree, 5, 60)
    column = probe_column(space, keys, 5, count=100)
    config = DEFAULT_CONFIG.with_widx(num_walkers=walkers)
    optimized = offload_batched_tree(tree, column, config=config)
    reference = offload_batched_tree(tree, column, config=config,
                                     **reference_kwargs(config))
    assert outcome_key(optimized) == outcome_key(reference)


# ---------------------------------------------------------------------------
# grid: index class x walkers x workload size x seed, cold caches included
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("index_class", sorted(INDEX_CLASSES))
@pytest.mark.parametrize("seed,num_keys", SHAPES)
@pytest.mark.parametrize("walkers", [1, 2])
def test_grid_search_identical_on_reference_stack(space, index_class, seed,
                                                  num_keys, walkers):
    cls, offload = INDEX_CLASSES[index_class]
    index, keys, _truth = build_index(space, cls, seed, num_keys)
    column = probe_column(space, keys, seed, count=80, match_fraction=0.6)
    config = DEFAULT_CONFIG.with_widx(num_walkers=walkers, mode="shared")
    optimized = offload(index, column, config=config, warm=False)
    reference = offload(index, column, config=config, warm=False,
                        **reference_kwargs(config))
    assert outcome_key(optimized) == outcome_key(reference)


@pytest.mark.slow
@pytest.mark.parametrize("seed,num_keys", SHAPES)
@pytest.mark.parametrize("batch", [2, 4])
def test_grid_batched_tree_identical_on_reference_stack(space, seed,
                                                        num_keys, batch):
    tree, keys, _truth = build_index(space, BPlusTree, seed, num_keys)
    column = probe_column(space, keys, seed, count=80, match_fraction=0.6)
    config = DEFAULT_CONFIG.with_widx(num_walkers=2)
    optimized = offload_batched_tree(tree, column, config=config,
                                     batch=batch, warm=False)
    reference = offload_batched_tree(tree, column, config=config,
                                     batch=batch, warm=False,
                                     **reference_kwargs(config))
    assert outcome_key(optimized) == outcome_key(reference)
