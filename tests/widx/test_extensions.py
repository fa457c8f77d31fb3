"""Tests for the Section 7 extensions: B+-tree offload, LLC-side
placement, and the fault/fallback path."""

import dataclasses

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.db.btree import BPlusTree
from repro.db.column import Column
from repro.db.datagen import make_rng, unique_keys
from repro.db.types import DataType
from repro.errors import WidxFault
from repro.mem.llcside import LLC_SIDE_BUFFER, LlcSideMemory
from repro.widx.offload import offload_probe, offload_tree_search
from tests.conftest import build_direct_index, materialized_probe_column


def make_tree_workload(space, n=2000, probes=400, seed=21):
    rng = make_rng(seed)
    keys = unique_keys(n, 4, rng)
    tree = BPlusTree(space, keys.tolist(), list(range(1, n + 1)))
    hits = rng.choice(keys, probes // 2)
    misses = (keys.max() + 1 + rng.integers(0, 1000, probes - probes // 2)
              ).astype(np.uint32)
    column = Column("probes", DataType.U32, np.concatenate([hits, misses]))
    column.materialize(space)
    return tree, column


class TestTreeOffload:
    def test_validates_against_software_search(self, space):
        tree, column = make_tree_workload(space)
        outcome = offload_tree_search(tree, column)
        assert outcome.validated is True
        assert outcome.matches == 200

    @pytest.mark.parametrize("walkers", [1, 2, 4])
    def test_walker_scaling(self, space, walkers):
        tree, column = make_tree_workload(space)
        outcome = offload_tree_search(
            tree, column, config=DEFAULT_CONFIG.with_walkers(walkers))
        assert outcome.validated is True

    def test_more_walkers_are_faster(self, space):
        tree, column = make_tree_workload(space, n=60_000, probes=600)
        times = {}
        for walkers in (1, 4):
            outcome = offload_tree_search(
                tree, column, config=DEFAULT_CONFIG.with_walkers(walkers))
            times[walkers] = outcome.cycles_per_tuple
        assert times[1] / times[4] > 2.0

    def test_private_mode_supported(self, space):
        tree, column = make_tree_workload(space)
        config = DEFAULT_CONFIG.with_widx(mode="private", num_walkers=2)
        outcome = offload_tree_search(tree, column, config=config)
        assert outcome.validated is True

    def test_coupled_mode_rejected(self, space):
        tree, column = make_tree_workload(space)
        config = DEFAULT_CONFIG.with_widx(mode="coupled")
        with pytest.raises(WidxFault, match="hashing stage"):
            offload_tree_search(tree, column, config=config)

    def test_tree_probe_costs_scale_with_height(self, space):
        shallow, column_a = make_tree_workload(space, n=300, probes=300)
        from repro.mem.layout import AddressSpace
        other = AddressSpace()
        deep, column_b = make_tree_workload(other, n=60_000, probes=300)
        fast = offload_tree_search(shallow, column_a)
        slow = offload_tree_search(deep, column_b)
        assert slow.cycles_per_tuple > fast.cycles_per_tuple

    def test_rejects_non_tree(self, space):
        index, keys, truth = build_direct_index(space, num_keys=50)
        column = materialized_probe_column(space, keys, count=10)
        with pytest.raises(WidxFault, match="BPlusTree"):
            offload_tree_search(index, column)


def llc_config(**widx_overrides):
    widx = dataclasses.replace(DEFAULT_CONFIG.widx, placement="llc",
                               **widx_overrides)
    return dataclasses.replace(DEFAULT_CONFIG, widx=widx)


class TestLlcSidePlacement:
    def test_functionally_identical(self, space):
        index, keys, truth = build_direct_index(space, num_keys=3000)
        column = materialized_probe_column(space, keys, count=300)
        outcome = offload_probe(index, column, config=llc_config())
        assert outcome.validated is True

    def test_uses_dedicated_memory_path(self, space):
        index, keys, truth = build_direct_index(space, num_keys=3000)
        column = materialized_probe_column(space, keys, count=200)
        outcome = offload_probe(index, column, config=llc_config())
        stats = outcome.stats
        assert stats["mem.loads"]["value"] > 0
        # The dedicated buffer's MSHR pool, no core-side crossbar, and the
        # shared LLC behind the buffer (the PIM path has neither).
        assert (stats["mem.l1d.mshrs.usage"]["capacity"]
                == LLC_SIDE_BUFFER.mshrs != DEFAULT_CONFIG.l1d.mshrs)
        assert "mem.crossbar.traversals" not in stats
        assert stats["mem.llc.accesses"]["value"] > 0

    def test_no_crossbar_between_buffer_and_llc(self):
        memory = LlcSideMemory(DEFAULT_CONFIG)
        memory.warm_block(0x1_0000, "llc")
        result = memory.load(0x1_0000, 0.0)
        # TLB walk (dedicated TLB, cold) + LLC hit — no 2x4-cycle crossbar.
        assert result.level == "LLC"
        core = DEFAULT_CONFIG
        assert result.complete - result.tlb_stall <= (
            core.llc.latency_cycles + 2)

    def test_dedicated_tlb_reach_is_smaller(self, space):
        # An index beyond the 8 MB dedicated-TLB reach (but inside the
        # host MMU's 16 MB) suffers TLB stalls only LLC-side — one of the
        # paper's trade-offs.  ~700K 16 B entries ≈ 12.6 MB.
        index, keys, truth = build_direct_index(space, num_keys=700_000,
                                                nodes_per_bucket=2.0)
        column = materialized_probe_column(space, keys, count=400)
        core_side = offload_probe(index, column, config=DEFAULT_CONFIG)
        llc_side = offload_probe(index, column, config=llc_config())
        core_tlb = core_side.run.walker_breakdown().tlb
        llc_tlb = llc_side.run.walker_breakdown().tlb
        assert llc_tlb > core_tlb


class TestFaultFallback:
    def corrupt(self, machine):
        # Point walker 0's node pointer base at unmapped memory by
        # corrupting the dispatcher's bucket base register.
        name = ("dispatcher" if "dispatcher" in machine.units
                else "dispatcher0")
        machine.configure_unit(name, {3: 0x7FFF_FF00})

    def test_fault_without_fallback_raises(self, space):
        index, keys, truth = build_direct_index(space, num_keys=500)
        column = materialized_probe_column(space, keys, count=100)
        with pytest.raises(Exception):
            offload_probe(index, column, configure_hook=self.corrupt)

    def test_fault_falls_back_to_host(self, space):
        index, keys, truth = build_direct_index(space, num_keys=500)
        column = materialized_probe_column(space, keys, count=100)
        outcome = offload_probe(index, column, configure_hook=self.corrupt,
                                fallback_to_host=True)
        assert outcome.fell_back is True
        assert outcome.validated is True
        # The host recomputed every match correctly.
        expected = []
        for row in range(100):
            expected.extend(index.probe(int(column.values[row])))
        assert sorted(outcome.payloads) == sorted(expected)

    def test_fallback_charges_wasted_cycles(self, space):
        index, keys, truth = build_direct_index(space, num_keys=500)
        column = materialized_probe_column(space, keys, count=100)
        clean = offload_probe(index, column)
        fell = offload_probe(index, column, configure_hook=self.corrupt,
                             fallback_to_host=True)
        assert fell.run.total_cycles > clean.run.total_cycles
        assert fell.abort_cycles >= 0

    def test_clean_run_never_falls_back(self, space):
        index, keys, truth = build_direct_index(space, num_keys=500)
        column = materialized_probe_column(space, keys, count=100)
        outcome = offload_probe(index, column, fallback_to_host=True)
        assert outcome.fell_back is False
