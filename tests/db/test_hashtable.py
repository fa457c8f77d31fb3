"""Tests for the simulated-memory hash index."""

import pytest

from repro.db.hashfn import ROBUST_HASH_32
from repro.db.hashtable import HashIndex, choose_num_buckets
from repro.db.node import KERNEL_LAYOUT, WIDE_LAYOUT
from repro.errors import PlanError
from tests.conftest import build_direct_index, build_indirect_index


class TestChooseNumBuckets:
    def test_power_of_two(self):
        for n in (1, 5, 1000, 4096):
            buckets = choose_num_buckets(n)
            assert buckets & (buckets - 1) == 0

    def test_respects_target_depth(self):
        assert choose_num_buckets(1024, 1.0) == 1024
        assert choose_num_buckets(1024, 2.0) == 512
        assert choose_num_buckets(1024, 4.0) == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_num_buckets(0)
        with pytest.raises(ValueError):
            choose_num_buckets(10, 0)


class TestDirectIndex:
    def test_every_inserted_key_is_found(self, space):
        index, keys, truth = build_direct_index(space, num_keys=1500)
        for key, payload in truth.items():
            assert index.probe(key) == [payload]

    def test_missing_keys_return_empty(self, space):
        index, keys, truth = build_direct_index(space, num_keys=500)
        absent = max(truth) + 1000
        assert index.probe(absent) == []

    def test_duplicate_keys_return_all_payloads(self, space):
        index = HashIndex(space, KERNEL_LAYOUT, 64, ROBUST_HASH_32,
                          capacity=10)
        index.insert(42, 1)
        index.insert(42, 2)
        index.insert(42, 3)
        assert sorted(index.probe(42)) == [1, 2, 3]

    def test_sentinel_key_rejected(self, space):
        index = HashIndex(space, KERNEL_LAYOUT, 64, ROBUST_HASH_32,
                          capacity=4)
        with pytest.raises(ValueError):
            index.insert(KERNEL_LAYOUT.empty_sentinel, 1)

    def test_capacity_exhaustion_detected(self, space):
        index = HashIndex(space, KERNEL_LAYOUT, 2, ROBUST_HASH_32, capacity=2)
        # Force three entries into two buckets: at most 1 can overflow.
        index.insert(1, 1)
        index.insert(2, 2)
        index.insert(3, 3)
        with pytest.raises(PlanError):
            for key in range(4, 20):
                index.insert(key, key)

    def test_stats_consistency(self, space):
        index, keys, truth = build_direct_index(space, num_keys=1000,
                                                nodes_per_bucket=2.0)
        stats = index.stats()
        assert stats.num_keys == 1000
        assert stats.used_buckets <= stats.num_buckets
        assert stats.overflow_nodes == 1000 - stats.used_buckets
        assert stats.max_chain >= 1
        assert stats.nodes_per_used_bucket >= 1.0

    def test_walk_chain_order_starts_at_header(self, space):
        index, keys, truth = build_direct_index(space, num_keys=200)
        key = int(keys[0])
        chain = list(index.walk_chain(key))
        assert chain[0] == index.bucket_addr(index.bucket_of_key(key))

    def test_probe_count_nodes_matches_chain(self, space):
        index, keys, truth = build_direct_index(space, num_keys=300)
        key = int(keys[5])
        _, visited = index.probe_count_nodes(key)
        assert visited == len(list(index.walk_chain(key)))

    def test_footprint_grows_with_overflow(self, space):
        index = HashIndex(space, KERNEL_LAYOUT, 64, ROBUST_HASH_32,
                          capacity=64)
        before = index.footprint_bytes
        index.insert(1, 1)
        index.insert(1 + 64 * 7, 2)  # likely different bucket; header only
        index.insert(1, 3)           # duplicate -> overflow node
        assert index.footprint_bytes > before

    def test_wide_layout_roundtrip(self, space):
        index = HashIndex(space, WIDE_LAYOUT, 128, ROBUST_HASH_32,
                          capacity=16)
        big_key = (1 << 40) + 7
        big_payload = (1 << 50) + 3
        index.insert(big_key, big_payload)
        assert index.probe(big_key) == [big_payload]

    def test_build_bulk(self, space):
        index = HashIndex(space, KERNEL_LAYOUT, 256, ROBUST_HASH_32,
                          capacity=100)
        index.build(range(1, 101), range(101, 201))
        assert index.num_keys == 100
        assert index.probe(50) == [150]

    def test_build_length_mismatch(self, space):
        index = HashIndex(space, KERNEL_LAYOUT, 64, ROBUST_HASH_32,
                          capacity=10)
        with pytest.raises(ValueError):
            index.build([1, 2], [1])


class TestIndirectIndex:
    def test_probe_returns_row_ids(self, space):
        index, keys, truth = build_indirect_index(space, num_keys=800)
        for key, row in list(truth.items())[:100]:
            assert index.probe(key) == [row]

    def test_key_loaded_from_base_column(self, space):
        index, keys, truth = build_indirect_index(space, num_keys=100)
        key = int(keys[3])
        chain = list(index.walk_chain(key))
        matching = [n for n in chain if index.node_key(n) == key]
        assert matching, "probe key must be found via the base column"

    def test_insert_validates_row_contents(self, space):
        index, keys, truth = build_indirect_index(space, num_keys=50)
        with pytest.raises(PlanError):
            index.insert(123456, 0)  # row 0 does not hold key 123456

    def test_requires_base_column(self, space):
        from repro.db.node import MONETDB_LAYOUT
        with pytest.raises(PlanError):
            HashIndex(space, MONETDB_LAYOUT, 64, ROBUST_HASH_32, capacity=8)

    def test_misses_return_empty(self, space):
        index, keys, truth = build_indirect_index(space, num_keys=200)
        assert index.probe(max(truth) + 999) == []


def test_bucket_count_must_be_power_of_two(space):
    with pytest.raises(ValueError):
        HashIndex(space, KERNEL_LAYOUT, 100, ROBUST_HASH_32, capacity=10)


def test_empty_bucket_chain_is_empty(space):
    index = HashIndex(space, KERNEL_LAYOUT, 64, ROBUST_HASH_32, capacity=4)
    index.insert(7, 1)
    empty_buckets = [b for b in range(64)
                     if b != index.bucket_of_key(7)]
    assert index.chain_length(empty_buckets[0]) == 0
