"""Tests for the campaign layer: point enumeration, parallel prefetch and
the serial / parallel / cache-hit equivalence guarantee."""

import pytest

from repro.harness.cachestore import CacheStore
from repro.harness.campaign import (Campaign, baseline_point, dedup_points,
                                    group_by_workload, kernel_points,
                                    query_points, widx_point)
from repro.harness.fig8 import run_fig8b
from repro.harness.runner import MeasurementCache, RunSettings
from repro.workloads.tpch import TPCH_SIMULATED

RUNS = RunSettings(probes=400, warmup=100)

#: A deliberately small but multi-workload slice of Figure 8b.
SIZES = ("Small", "Medium")
WALKERS = (1, 2)


class TestPointEnumeration:
    def test_kernel_points_cover_baseline_and_walkers(self):
        points = kernel_points(["Small"], [1, 4])
        assert baseline_point("kernel", "Small", "ooo") in points
        assert widx_point("kernel", "Small", 1) in points
        assert widx_point("kernel", "Small", 4) in points
        assert len(points) == 3

    def test_query_points_optionally_include_inorder(self):
        spec = TPCH_SIMULATED[0]
        name = f"{spec.benchmark}:{spec.number}"
        with_inorder = query_points([spec], [4], include_inorder=True)
        without = query_points([spec], [4])
        assert baseline_point("query", name, "inorder") in with_inorder
        assert baseline_point("query", name, "inorder") not in without

    def test_dedup_preserves_first_occurrence_order(self):
        a = widx_point("kernel", "Small", 1)
        b = baseline_point("kernel", "Small", "ooo")
        assert dedup_points([a, b, a, b, a]) == [a, b]

    def test_groups_are_per_workload_in_canonical_order(self):
        points = (kernel_points(["Medium", "Small"], [4, 1])
                  + [baseline_point("kernel", "Small", "inorder")])
        groups = group_by_workload(points)
        assert len(groups) == 2
        for group in groups:
            assert len({point.workload for point in group}) == 1
            ops = [point.order_key() for point in group]
            assert ops == sorted(ops)
        small = next(g for g in groups if g[0].name == "Small")
        # ooo baseline, inorder baseline, then walkers ascending.
        assert [p.core or p.walkers for p in small] == ["ooo", "inorder", 1, 4]

    def test_cache_tuple_matches_measurement_cache_keys(self):
        assert (widx_point("query", "tpch:20", 4).cache_tuple()
                == ("widx", "query", "tpch:20", 4, "shared"))
        assert (baseline_point("kernel", "Large", "ooo").cache_tuple()
                == ("baseline", "kernel", "Large", "ooo"))


class TestEquivalence:
    """The acceptance property: serial, --jobs 2 and cache-hit runs of one
    figure produce identical ``Report.to_dict()`` output."""

    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        cache_dir = str(tmp_path_factory.mktemp("measurements"))
        points = kernel_points(SIZES, WALKERS)

        # 1. Serial: the driver measures lazily, no campaign, no store.
        serial_cache = MeasurementCache(runs=RUNS)
        serial = run_fig8b(serial_cache, sizes=SIZES, walker_counts=WALKERS)

        # 2. Parallel: campaign prefetch across 2 worker processes,
        #    persisting into the store.
        parallel_cache = MeasurementCache(runs=RUNS,
                                          store=CacheStore(cache_dir))
        outcome = Campaign(parallel_cache).run(points, jobs=2)
        assert outcome.measured_points == len(points)
        parallel = run_fig8b(parallel_cache, sizes=SIZES,
                             walker_counts=WALKERS)

        # 3. Cache hit: a fresh process-equivalent reads the store only.
        hit_cache = MeasurementCache(runs=RUNS, store=CacheStore(cache_dir))
        hit_outcome = Campaign(hit_cache).run(points, jobs=2)
        assert hit_outcome.measured_points == 0
        assert hit_outcome.cached_points == len(points)
        hit = run_fig8b(hit_cache, sizes=SIZES, walker_counts=WALKERS)
        assert hit_cache.measured_points == 0  # drivers never simulated

        return cache_dir, serial, parallel, hit

    def test_parallel_matches_serial_exactly(self, reports):
        _dir, serial, parallel, _hit = reports
        assert parallel.to_dict() == serial.to_dict()

    def test_cache_hit_matches_serial_exactly(self, reports):
        _dir, serial, _parallel, hit = reports
        assert hit.to_dict() == serial.to_dict()

    def test_corrupted_entry_is_remeasured_not_fatal(self, reports):
        cache_dir, serial, _parallel, _hit = reports
        store = CacheStore(cache_dir)
        cache = MeasurementCache(runs=RUNS, store=store)
        # Corrupt one entry on disk; the campaign must transparently
        # re-measure exactly that point and still reproduce the report.
        victim = cache.point_key(widx_point("kernel", "Small", 2).cache_tuple())
        with open(store.path(victim), "w") as handle:
            handle.write('{"half a wrapper":')
        outcome = Campaign(cache).run(kernel_points(SIZES, WALKERS), jobs=1)
        assert outcome.measured_points == 1
        report = run_fig8b(cache, sizes=SIZES, walker_counts=WALKERS)
        assert report.to_dict() == serial.to_dict()
