"""Tests for the shared-LLC CMP and multi-threaded offloads."""

import pytest

from repro.cmp import ChipMultiprocessor, run_multicore_offload
from repro.config import DEFAULT_CONFIG
from repro.errors import ConfigError, WidxFault
from tests.conftest import build_direct_index, materialized_probe_column


@pytest.fixture
def workload(space):
    index, keys, truth = build_direct_index(space, num_keys=30_000,
                                            nodes_per_bucket=2.0)
    column = materialized_probe_column(space, keys, count=800)
    return index, column


class TestChipMultiprocessor:
    def test_cores_share_llc_and_dram(self):
        cmp_system = ChipMultiprocessor(DEFAULT_CONFIG, 4)
        assert len(cmp_system.cores) == 4
        for core in cmp_system.cores:
            assert core.llc is cmp_system.shared_llc
            assert core.dram is cmp_system.shared_dram

    def test_l1_and_tlb_are_private(self):
        cmp_system = ChipMultiprocessor(DEFAULT_CONFIG, 2)
        a, b = cmp_system.cores
        assert a.l1d is not b.l1d
        assert a.tlb is not b.tlb

    def test_default_core_count_from_table2(self):
        assert ChipMultiprocessor(DEFAULT_CONFIG).num_cores == 4

    def test_core_count_validated(self):
        with pytest.raises(ConfigError):
            ChipMultiprocessor(DEFAULT_CONFIG, 0)

    def test_one_core_fill_is_visible_to_another(self):
        cmp_system = ChipMultiprocessor(DEFAULT_CONFIG, 2)
        addr = 0x1_0000
        first = cmp_system.core(0).load(addr, 0.0)
        assert first.level == "DRAM"
        # Core 1 misses its private L1 but hits the now-shared LLC line.
        second = cmp_system.core(1).load(addr, first.complete + 10)
        assert second.level == "LLC"


class TestMulticoreOffload:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_every_thread_count_validates(self, workload, threads):
        index, column = workload
        result = run_multicore_offload(index, column, threads=threads,
                                       probes=800)
        assert result.validated is True
        assert result.matches == 800
        assert len(result.per_core) == threads

    def test_threads_increase_aggregate_throughput(self, workload):
        index, column = workload
        single = run_multicore_offload(index, column, threads=1, probes=800)
        quad = run_multicore_offload(index, column, threads=4, probes=800)
        assert quad.cycles_per_tuple < 0.5 * single.cycles_per_tuple

    def test_scaling_is_sublinear_under_bandwidth_contention(self, space):
        """Four cores x four walkers approach the two controllers' limit,
        so 4-thread scaling lands below 4x (the Figure 4c wall, end to
        end)."""
        index, keys, truth = build_direct_index(space, num_keys=400_000,
                                                nodes_per_bucket=2.0)
        column = materialized_probe_column(space, keys, count=1600)
        single = run_multicore_offload(index, column, threads=1,
                                       probes=1600)
        quad = run_multicore_offload(index, column, threads=4, probes=1600)
        speedup = single.cycles_per_tuple / quad.cycles_per_tuple
        assert 2.0 < speedup < 3.9
        assert quad.dram_utilization > 2.5 * single.dram_utilization

    def test_probe_chunks_cover_stream_exactly(self, workload):
        index, column = workload
        result = run_multicore_offload(index, column, threads=3, probes=799)
        assert sum(r.tuples for r in result.per_core.values()) == 799

    def test_requires_enough_probes(self, workload):
        index, column = workload
        with pytest.raises(WidxFault):
            run_multicore_offload(index, column, threads=4, probes=2)

    def test_only_shared_mode_supported(self, workload):
        index, column = workload
        config = DEFAULT_CONFIG.with_widx(mode="coupled")
        with pytest.raises(WidxFault, match="shared"):
            run_multicore_offload(index, column, config=config, probes=100)


class TestMulticoreBaseline:
    def test_baseline_runs_and_scales(self, workload):
        from repro.cmp import run_multicore_baseline
        index, column = workload
        single = run_multicore_baseline(index, column, threads=1,
                                        probes=800)
        quad = run_multicore_baseline(index, column, threads=4, probes=800)
        assert single.tuples == quad.tuples == 800
        assert quad.cycles_per_tuple < 0.4 * single.cycles_per_tuple
        assert len(quad.per_core_cycles) == 4

    def test_inorder_chip_slower_than_ooo_chip(self, workload):
        from repro.cmp import run_multicore_baseline
        index, column = workload
        ooo = run_multicore_baseline(index, column, threads=2, probes=400,
                                     core="ooo")
        ino = run_multicore_baseline(index, column, threads=2, probes=400,
                                     core="inorder")
        assert ino.cycles_per_tuple > ooo.cycles_per_tuple

    #: Per-core completion cycles (``repr``) of a 2-thread chip over
    #: the 400 first probes of :func:`workload`.
    PINNED_PER_CORE = {
        "ooo": {0: "11397.0", 1: "10821.0"},
        "inorder": {0: "17344.0", 1: "17241.0"},
    }

    @pytest.mark.parametrize("core", sorted(PINNED_PER_CORE))
    def test_per_core_cycles_are_pinned(self, workload, core):
        from repro.cmp import run_multicore_baseline
        index, column = workload
        result = run_multicore_baseline(index, column, threads=2,
                                        probes=400, core=core)
        per_core = {i: repr(c) for i, c in result.per_core_cycles.items()}
        assert per_core == self.PINNED_PER_CORE[core]

    def test_unknown_core_rejected(self, workload):
        from repro.cmp import run_multicore_baseline
        from repro.errors import WidxFault
        index, column = workload
        with pytest.raises(WidxFault):
            run_multicore_baseline(index, column, threads=2, probes=100,
                                   core="vliw")

    def test_widx_chip_beats_baseline_chip(self, workload):
        from repro.cmp import run_multicore_baseline, run_multicore_offload
        index, column = workload
        baseline = run_multicore_baseline(index, column, threads=2,
                                          probes=600)
        accelerated = run_multicore_offload(index, column, threads=2,
                                            probes=600)
        assert accelerated.cycles_per_tuple < baseline.cycles_per_tuple
