"""Every ordered-index Widx offload returns a complete outcome.

All seven ordered offloads (B+-tree search and ranges, trie search and
ranges, wormhole search and ranges, batched B+-tree) build their outcome
through one shared tail, so each carries the registry snapshot the
harness merges into ``--stats-json`` and the ledger's traced event count.
The snapshot's ``sim.engine.dispatched`` must equal the dispatch count of
the engine that ran it — an offload that skipped the snapshot
would silently undercount every event it simulated.
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
from repro.sim.engine import Engine
from repro.widx import machine as machine_module
from repro.widx.offload import (offload_batched_tree, offload_tree_ranges,
                                offload_tree_search, offload_trie_ranges,
                                offload_trie_search, offload_wormhole_ranges,
                                offload_wormhole_search)


def _build(space, cls):
    rng = random.Random(11)
    keys = rng.sample(range(1, 2**31), 120)
    payloads = [rng.randrange(1, 2**31) for _ in keys]
    return cls(space, keys, payloads), sorted(keys)


def _column(space, keys):
    rng = random.Random(12)
    values = [rng.choice(keys) for _ in range(64)]
    column = Column("probes", DataType.U32,
                    np.asarray(values, dtype=np.uint32))
    column.materialize(space)
    return column


def _ranges(keys):
    return [(keys[10], keys[30]), (keys[50], keys[52]), (keys[90], keys[119])]


OFFLOADS = {
    "tree-search": (BPlusTree, offload_tree_search, "search"),
    "tree-ranges": (BPlusTree, offload_tree_ranges, "ranges"),
    "trie-search": (MlpTrie, offload_trie_search, "search"),
    "trie-ranges": (MlpTrie, offload_trie_ranges, "ranges"),
    "wormhole-search": (WormholeIndex, offload_wormhole_search, "search"),
    "wormhole-ranges": (WormholeIndex, offload_wormhole_ranges, "ranges"),
    "batched": (BPlusTree, offload_batched_tree, "search"),
}


@pytest.mark.parametrize("name", sorted(OFFLOADS))
def test_ordered_outcome_carries_engine_snapshot(space, monkeypatch, name):
    engines = []

    class RecordingEngine(Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(machine_module, "Engine", RecordingEngine)
    cls, offload, kind = OFFLOADS[name]
    index, keys = _build(space, cls)
    argument = _column(space, keys) if kind == "search" else _ranges(keys)
    config = DEFAULT_CONFIG.with_widx(num_walkers=2)
    memory = MemoryHierarchy(config)
    outcome = offload(index, argument, config=config, memory=memory)

    assert outcome.stats is not None
    assert len(engines) == 1
    dispatched = engines[0].dispatched.value
    assert dispatched > 0
    assert outcome.stats["sim.engine.dispatched"]["value"] == dispatched
    assert outcome.stats["mem.loads"]["value"] == memory.stats.loads.value
