"""Calibration tests: the shapes the paper's evaluation reports.

These use reduced probe counts so they stay test-suite-fast; the full
benchmark harness regenerates the figures at higher fidelity.  Thresholds
are deliberately loose — they guard the *shape* (who wins, roughly by how
much, where the regimes flip), not exact numbers.
"""

import pytest

from repro.harness.runner import (MeasurementCache, RunSettings, geomean,
                                  measure_kernel, measure_query)
from repro.workloads.tpcds import TPCDS_SIMULATED
from repro.workloads.tpch import TPCH_SIMULATED

# Calibration points simulate several full figure sweeps.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def cache():
    return MeasurementCache(runs=RunSettings(probes=1200, warmup=300))


def spec_by(benchmark_queries, number):
    return [q for q in benchmark_queries if q.number == number][0]


class TestKernelShapes:
    def test_small_kernel_speedup_band(self, cache):
        measurement = measure_kernel(cache, "Small", [1, 4])
        assert 0.7 < measurement.speedup(1) < 1.4   # paper: ~1x
        assert 1.8 < measurement.speedup(4) < 4.5   # paper: ~2-4x

    def test_memory_time_grows_with_index_size(self, cache):
        small = measure_kernel(cache, "Small", [1]).walker_breakdown(1)
        medium = measure_kernel(cache, "Medium", [1]).walker_breakdown(1)
        assert medium.mem > small.mem

    def test_walkers_cut_memory_time_linearly(self, cache):
        measurement = measure_kernel(cache, "Medium", [1, 2, 4])
        mem1 = measurement.walker_breakdown(1).mem
        mem4 = measurement.walker_breakdown(4).mem
        assert mem1 / mem4 == pytest.approx(4.0, rel=0.3)


class TestDssShapes:
    def test_tpch_small_index_queries_have_no_tlb_stalls(self, cache):
        for number in (2, 11, 17):
            spec = spec_by(TPCH_SIMULATED, number)
            breakdown = measure_query(cache, spec, [1]).walker_breakdown(1)
            assert breakdown.tlb < 0.01 * breakdown.total, spec.label

    def test_tpch_memory_intensive_queries_show_tlb_stalls(self, cache):
        saw_tlb = []
        for number in (19, 20, 22):
            spec = spec_by(TPCH_SIMULATED, number)
            breakdown = measure_query(cache, spec, [1]).walker_breakdown(1)
            saw_tlb.append(breakdown.tlb / breakdown.total)
        assert max(saw_tlb) > 0.01          # visible on at least one
        assert max(saw_tlb) < 0.15          # paper: up to 8%

    def test_tpcds_l1_resident_queries_idle_at_four_walkers(self, cache):
        spec = spec_by(TPCDS_SIMULATED, 37)
        breakdown = measure_query(cache, spec, [4]).walker_breakdown(4)
        idle = breakdown.idle + breakdown.queue
        assert idle > 0.2 * breakdown.total

    def test_tpcds_memory_time_lower_than_tpch(self, cache):
        tpch_mem = [measure_query(cache, q, [1]).walker_breakdown(1).mem
                    for q in TPCH_SIMULATED[:2]]
        tpcds_mem = [measure_query(cache, q, [1]).walker_breakdown(1).mem
                     for q in TPCDS_SIMULATED
                     if q.number in (5, 37)]
        assert max(tpcds_mem) < min(tpch_mem)

    def test_every_query_speeds_up_with_four_walkers(self, cache):
        for spec in TPCH_SIMULATED + TPCDS_SIMULATED:
            measurement = measure_query(cache, spec, [4])
            assert measurement.speedup(4) > 1.3, spec.label

    def test_geomean_speedup_near_paper(self, cache):
        speedups = [measure_query(cache, spec, [4]).speedup(4)
                    for spec in TPCH_SIMULATED + TPCDS_SIMULATED]
        assert 2.4 < geomean(speedups) < 3.8   # paper: 3.1x

    def test_indirect_layout_costs_more_comp_per_node(self, cache):
        """Paper §6.2: MonetDB's indirect keys need more address
        computation per node than the kernel's simple layout."""
        kernel_index, _ = cache.kernel_workload("Medium")
        query_spec = spec_by(TPCH_SIMULATED, 11)
        query_index, _ = cache.query_workload(query_spec)
        kernel = measure_kernel(cache, "Medium", [1]).walker_breakdown(1)
        query = measure_query(cache, query_spec, [1]).walker_breakdown(1)
        kernel_comp_per_node = (kernel.comp /
                                kernel_index.stats().nodes_per_used_bucket)
        query_comp_per_node = (query.comp /
                               query_index.stats().nodes_per_used_bucket)
        assert query_comp_per_node > kernel_comp_per_node
