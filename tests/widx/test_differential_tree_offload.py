"""Differential tests for the B+-tree offload programs.

Two independent comparisons, across random seeds and tree shapes:

* **Functional**: the payload multiset an offloaded
  ``tree_walker_program`` / ``tree_range_walker_program`` run emits
  (``validate=False``, so the offload's own cross-check is out of the
  loop) against ground truth computed here with the functional
  :meth:`BPlusTree.search` / :meth:`BPlusTree.range_scan`.
* **Mechanical**: the full simulated outcome on the optimized memory
  system against the naive reference-array twin injected through the
  ``memory=`` seam — cycles, payloads and every ``mem.*`` entry of the
  stats snapshot must be bit-identical, mirroring
  ``test_differential_offload.py``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.db.btree import BPlusTree, KEY_PAD
from repro.db.column import Column
from repro.db.types import DataType
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.reference import use_reference_arrays
from repro.widx.offload import offload_tree_ranges, offload_tree_search

#: (seed, number of keys): single leaf, one internal level, multi level.
TREE_SHAPES = [(3, 4), (5, 21), (7, 160), (11, 700)]


def build_tree(space, seed, num_keys):
    rng = random.Random(seed)
    keys = rng.sample(range(1, 2**31), num_keys)
    payloads = [rng.randrange(1, 2**31) for _ in keys]
    return BPlusTree(space, keys, payloads), keys, dict(zip(keys, payloads))


def probe_column(space, keys, seed, count, match_fraction=0.7):
    rng = random.Random(seed + 1)
    values = [rng.choice(keys) if rng.random() < match_fraction
              else rng.randrange(1, KEY_PAD)
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
        a, b = rng.randint(lo - 5, hi + 5), rng.randint(lo - 5, hi + 5)
        ranges.append((max(0, min(a, b)), max(a, b)))
    return ranges


def memory_key(outcome):
    """Every memory-system counter in the outcome's stats snapshot."""
    return {path: value for path, value in outcome.stats.items()
            if path.startswith("mem.")}


@pytest.mark.parametrize("seed,num_keys", TREE_SHAPES)
@pytest.mark.parametrize("mode,walkers", [("shared", 1), ("shared", 4),
                                          ("private", 2)])
def test_tree_search_payloads_match_functional_search(space, seed, num_keys,
                                                      mode, walkers):
    tree, keys, truth = build_tree(space, seed, num_keys)
    column = probe_column(space, keys, seed, count=min(120, 3 * num_keys))
    expected = sorted(truth[int(v)] for v in column.values
                      if int(v) in truth)
    outcome = offload_tree_search(
        tree, column, config=DEFAULT_CONFIG.with_widx(num_walkers=walkers,
                                                      mode=mode),
        validate=False)
    assert sorted(outcome.payloads) == expected
    assert outcome.run.matches == len(expected)


@pytest.mark.parametrize("seed,num_keys", TREE_SHAPES)
@pytest.mark.parametrize("walkers", [1, 3])
def test_tree_range_payloads_match_functional_scan(space, seed, num_keys,
                                                   walkers):
    tree, keys, _truth = build_tree(space, seed, num_keys)
    ranges = random_ranges(keys, seed, count=8)
    expected = sorted(payload for low, high in ranges
                      for _key, payload in tree.range_scan(low, high))
    outcome = offload_tree_ranges(
        tree, ranges, config=DEFAULT_CONFIG.with_widx(num_walkers=walkers,
                                                      mode="shared"),
        validate=False)
    assert sorted(outcome.payloads) == expected
    assert outcome.run.matches == len(expected)


@pytest.mark.parametrize("seed,num_keys", [(5, 21), (7, 160)])
def test_tree_search_identical_on_reference_memory_system(space, seed,
                                                          num_keys):
    tree, keys, _truth = build_tree(space, seed, num_keys)
    column = probe_column(space, keys, seed, count=100)
    config = DEFAULT_CONFIG.with_widx(num_walkers=2, mode="shared")
    optimized = offload_tree_search(tree, column, config=config)
    reference = offload_tree_search(
        tree, column, config=config,
        memory=use_reference_arrays(MemoryHierarchy(config)))
    assert optimized.validated is reference.validated is True
    assert optimized.run.total_cycles == reference.run.total_cycles
    assert optimized.payloads == reference.payloads
    assert memory_key(optimized) == memory_key(reference)


def test_tree_ranges_identical_on_reference_memory_system(space):
    tree, keys, _truth = build_tree(space, 7, 160)
    ranges = random_ranges(keys, 7, count=6)
    config = DEFAULT_CONFIG.with_widx(num_walkers=2, mode="shared")
    optimized = offload_tree_ranges(tree, ranges, config=config)
    reference = offload_tree_ranges(
        tree, ranges, config=config,
        memory=use_reference_arrays(MemoryHierarchy(config)))
    assert optimized.validated is reference.validated is True
    assert optimized.run.total_cycles == reference.run.total_cycles
    assert optimized.payloads == reference.payloads
    assert memory_key(optimized) == memory_key(reference)
