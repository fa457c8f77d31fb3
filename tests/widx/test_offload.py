"""Tests for the full Widx offload (correctness and organization behavior)."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.errors import WidxFault
from repro.mem.hierarchy import MemoryHierarchy
from repro.widx.offload import offload_probe
from tests.conftest import (build_direct_index, build_indirect_index,
                            materialized_probe_column)


def run_offload(space, indirect=False, mode="shared", walkers=2,
                probes=300, match_fraction=1.0, num_keys=1500, memory=None):
    if indirect:
        index, keys, truth = build_indirect_index(space, num_keys=num_keys)
    else:
        index, keys, truth = build_direct_index(space, num_keys=num_keys)
    column = materialized_probe_column(space, keys, count=probes,
                                       match_fraction=match_fraction)
    config = DEFAULT_CONFIG.with_widx(mode=mode, num_walkers=walkers)
    outcome = offload_probe(index, column, config=config, probes=probes,
                            memory=memory)
    return index, column, outcome


class TestCorrectness:
    @pytest.mark.parametrize("mode", ["shared", "private", "coupled"])
    def test_every_mode_validates_against_reference(self, space, mode):
        _, _, outcome = run_offload(space, mode=mode)
        assert outcome.validated is True
        assert outcome.matches == 300

    @pytest.mark.parametrize("walkers", [1, 2, 4, 8])
    def test_every_walker_count_is_correct(self, space, walkers):
        _, _, outcome = run_offload(space, walkers=walkers)
        assert outcome.validated is True

    def test_indirect_schema_correct(self, space):
        _, _, outcome = run_offload(space, indirect=True)
        assert outcome.validated is True

    def test_misses_emit_nothing(self, space):
        _, _, outcome = run_offload(space, match_fraction=0.0)
        assert outcome.matches == 0

    def test_partial_match_fraction(self, space):
        _, _, outcome = run_offload(space, match_fraction=0.5, probes=600)
        assert 200 < outcome.matches < 400

    def test_payloads_stored_in_output_region(self, space):
        index, column, outcome = run_offload(space, probes=100)
        expected = []
        for row in range(100):
            expected.extend(index.probe(int(column.values[row])))
        assert sorted(outcome.payloads) == sorted(expected)

    def test_probe_subset_parameter(self, space):
        index, keys, truth = build_direct_index(space)
        column = materialized_probe_column(space, keys, count=500)
        outcome = offload_probe(index, column, probes=50)
        assert outcome.run.tuples == 50
        assert outcome.matches == 50


class TestBehavior:
    def test_more_walkers_go_faster(self, space):
        # A DRAM-resident index: walker scaling is memory-bound and
        # near-linear (paper Figure 8a).
        index, keys, truth = build_direct_index(space, num_keys=200_000,
                                                nodes_per_bucket=2.0)
        column = materialized_probe_column(space, keys, count=600)
        times = {}
        for walkers in (1, 2, 4):
            config = DEFAULT_CONFIG.with_widx(num_walkers=walkers)
            outcome = offload_probe(index, column, config=config)
            times[walkers] = outcome.cycles_per_tuple
        assert times[2] < times[1]
        assert times[4] < times[2]
        assert times[1] / times[4] > 2.5

    def test_decoupled_hashing_beats_coupled(self, space):
        """The paper: decoupling cuts time per traversal by ~29%."""
        index, keys, truth = build_direct_index(
            space, num_keys=30_000,
            hash_spec=__import__("repro.db.hashfn", fromlist=["x"]).ROBUST_HASH_32)
        column = materialized_probe_column(space, keys, count=600)
        coupled = offload_probe(
            index, column,
            config=DEFAULT_CONFIG.with_widx(mode="coupled", num_walkers=2))
        decoupled = offload_probe(
            index, column,
            config=DEFAULT_CONFIG.with_widx(mode="private", num_walkers=2))
        reduction = 1 - decoupled.cycles_per_tuple / coupled.cycles_per_tuple
        assert 0.10 < reduction < 0.45

    def test_shared_dispatcher_feeds_four_walkers(self, space):
        """One dispatcher keeps 4 walkers nearly as busy as private ones —
        in the regime Figure 5 predicts (long walks: deep buckets and/or
        high LLC miss ratio).  Shallow cache-resident indexes starve
        instead; that regime is asserted separately below."""
        index, keys, truth = build_direct_index(space, num_keys=250_000,
                                                nodes_per_bucket=2.0)
        column = materialized_probe_column(space, keys, count=800)
        shared = offload_probe(
            index, column,
            config=DEFAULT_CONFIG.with_widx(mode="shared", num_walkers=4))
        private = offload_probe(
            index, column,
            config=DEFAULT_CONFIG.with_widx(mode="private", num_walkers=4))
        assert shared.cycles_per_tuple < 1.25 * private.cycles_per_tuple

    def test_shared_dispatcher_starves_walkers_on_shallow_cached_index(
            self, space):
        """Figure 5's exception: 1-node buckets with low LLC miss ratio
        leave one dispatcher unable to feed four walkers."""
        index, keys, truth = build_direct_index(space, num_keys=40_000,
                                                nodes_per_bucket=1.0)
        column = materialized_probe_column(space, keys, count=800)
        outcome = offload_probe(
            index, column,
            config=DEFAULT_CONFIG.with_widx(mode="shared", num_walkers=4))
        breakdown = outcome.run.walker_cycles_per_tuple()
        assert breakdown.idle > 0.1 * breakdown.total

    def test_walker_breakdown_covers_runtime(self, space):
        _, _, outcome = run_offload(space, walkers=2)
        breakdown = outcome.run.walker_cycles_per_tuple()
        assert breakdown.total == pytest.approx(
            outcome.run.cycles_per_tuple, rel=0.05)

    def test_config_cost_amortized(self, space):
        """Section 4.3: configuration cost is negligible vs the bulk probe."""
        _, _, outcome = run_offload(space, probes=300)
        assert outcome.run.config_cycles < 0.05 * outcome.run.total_cycles

    def test_unmaterialized_probe_column_rejected(self, space):
        from repro.db.column import Column
        from repro.db.types import DataType
        index, keys, truth = build_direct_index(space)
        loose = Column("loose", DataType.U32, [1, 2])
        with pytest.raises(WidxFault):
            offload_probe(index, loose)

    def test_memory_stats_available(self, space):
        memory = MemoryHierarchy(DEFAULT_CONFIG)
        _, _, outcome = run_offload(space, memory=memory)
        memory.stats.check()
        assert memory.stats.loads > 0
        assert outcome.stats["mem.loads"]["value"] == memory.stats.loads.value

    def test_programs_exposed_for_inspection(self, space):
        _, _, outcome = run_offload(space, mode="shared")
        assert {"dispatcher", "walker", "producer"} <= set(outcome.programs)
        assert ".role H" in outcome.programs["dispatcher"].source
