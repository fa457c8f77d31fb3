"""Pins the warm order of every index's ``working_set()``.

Warming installs blocks in the listed order, and LLC replacement state
follows install order, so reordering an index's regions changes every
warmed measurement built on it.  Each structure's regions are named by
the address-space region they start in.
"""

import random

from repro.db.btree import BPlusTree
from repro.db.trie import MlpTrie
from repro.db.wormhole import WormholeIndex
from tests.conftest import build_indirect_index


def _region_names(space, working_set):
    names = []
    for base, size in working_set:
        region = space.find(base)
        assert region.base == base and 0 < size <= region.size
        names.append(region.name)
    return names


def _ordered_keys(count=256, seed=5):
    return random.Random(seed).sample(range(1 << 31), count)


def test_hash_index_warms_buckets_nodes_then_base_column(space):
    index, _keys, _truth = build_indirect_index(space, num_keys=200)
    names = _region_names(space, index.working_set())
    assert names == ["index:buckets", "index:nodes",
                     index.key_column.region.name]


def test_btree_warms_its_nodes(space):
    keys = _ordered_keys()
    tree = BPlusTree(space, keys, range(len(keys)))
    assert _region_names(space, tree.working_set()) == ["btree:nodes"]


def test_trie_warms_buckets_then_overflow(space):
    keys = _ordered_keys()
    trie = MlpTrie(space, keys, range(len(keys)))
    assert trie.overflow is not None
    assert _region_names(space, trie.working_set()) == [
        "trie:buckets", "trie:overflow"]


def test_wormhole_warms_leaves_meta_then_overflow(space):
    keys = _ordered_keys()
    index = WormholeIndex(space, keys, range(len(keys)))
    assert index.overflow is not None
    assert _region_names(space, index.working_set()) == [
        "wormhole:leaves", "wormhole:meta", "wormhole:overflow"]
