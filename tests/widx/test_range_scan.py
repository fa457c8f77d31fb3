"""Tests for multi-range B+-tree scans on Widx."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DEFAULT_CONFIG
from repro.db.btree import BPlusTree, KEY_PAD
from repro.db.datagen import make_rng, unique_keys
from repro.errors import WidxFault
from repro.mem.layout import AddressSpace
from repro.widx.offload import offload_tree_ranges


def make_tree(space, n=5_000, seed=13):
    keys = unique_keys(n, 4, make_rng(seed))
    tree = BPlusTree(space, keys.tolist(), list(range(1, n + 1)))
    return tree, sorted(keys.tolist())


class TestRangeOffload:
    def test_single_range_validates(self, space):
        tree, keys = make_tree(space)
        outcome = offload_tree_ranges(tree, [(keys[100], keys[160])])
        assert outcome.validated is True
        assert outcome.matches == 61

    def test_many_ranges_across_walkers(self, space):
        tree, keys = make_tree(space)
        rng = make_rng(5)
        ranges = []
        for _ in range(30):
            start = int(rng.integers(0, len(keys) - 60))
            ranges.append((keys[start], keys[start + int(rng.integers(0, 50))]))
        for walkers in (1, 2, 4):
            outcome = offload_tree_ranges(
                tree, ranges, config=DEFAULT_CONFIG.with_walkers(walkers))
            assert outcome.validated is True

    def test_inter_range_parallelism_speeds_up(self, space):
        tree, keys = make_tree(space, n=40_000)
        rng = make_rng(6)
        ranges = []
        for _ in range(60):
            start = int(rng.integers(0, len(keys) - 120))
            ranges.append((keys[start], keys[start + 100]))
        times = {}
        for walkers in (1, 4):
            outcome = offload_tree_ranges(
                tree, ranges, config=DEFAULT_CONFIG.with_walkers(walkers))
            times[walkers] = outcome.run.total_cycles
        assert times[1] / times[4] > 2.0

    def test_empty_range_emits_nothing(self, space):
        tree, keys = make_tree(space, n=200)
        gap_low = keys[10] + 1
        gap_high = keys[11] - 1
        if gap_low > gap_high:
            pytest.skip("no gap between adjacent keys in this sample")
        outcome = offload_tree_ranges(tree, [(gap_low, gap_high)])
        assert outcome.matches == 0

    def test_range_covering_everything(self, space):
        tree, keys = make_tree(space, n=500)
        outcome = offload_tree_ranges(tree, [(0, KEY_PAD - 1)])
        assert outcome.matches == 500

    def test_overlapping_ranges_duplicate_results(self, space):
        tree, keys = make_tree(space, n=300)
        span = (keys[0], keys[50])
        outcome = offload_tree_ranges(tree, [span, span])
        assert outcome.matches == 2 * 51

    def test_bad_inputs_rejected(self, space):
        tree, keys = make_tree(space, n=100)
        with pytest.raises(WidxFault):
            offload_tree_ranges(tree, [])
        with pytest.raises(WidxFault):
            offload_tree_ranges(tree, [(5, 1)])
        with pytest.raises(WidxFault):
            offload_tree_ranges(tree, [(0, KEY_PAD)])
        with pytest.raises(WidxFault):
            offload_tree_ranges(
                tree, [(1, 2)],
                config=DEFAULT_CONFIG.with_widx(mode="private"))


@settings(max_examples=15, deadline=None)
@given(keys=st.lists(st.integers(min_value=1, max_value=100_000),
                     min_size=4, max_size=120, unique=True),
       bounds=st.lists(st.tuples(st.integers(0, 110_000),
                                 st.integers(0, 110_000)),
                       min_size=1, max_size=8))
def test_widx_ranges_equal_software_scan(keys, bounds):
    space = AddressSpace()
    tree = BPlusTree(space, keys, list(range(len(keys))))
    ranges = [(min(a, b), max(a, b)) for a, b in bounds]
    outcome = offload_tree_ranges(tree, ranges)
    assert outcome.validated is True
