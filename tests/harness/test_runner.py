"""Tests for the measurement runner and its cache."""

import pytest

from repro.errors import ConfigError, SimulationHang
from repro.harness import runner
from repro.harness.cachestore import CacheStore
from repro.harness.runner import (DEFAULT_RUNS, MeasurementCache,
                                  RunSettings, WorkloadMeasurement,
                                  baseline_point, geomean, index_point,
                                  measurement_key, measure_kernel,
                                  widx_point)


def test_run_settings_measured():
    settings = RunSettings(probes=1000, warmup=250)
    assert settings.measured == 750


def test_default_settings_sane():
    assert DEFAULT_RUNS.probes > DEFAULT_RUNS.warmup > 0


def test_run_settings_rejects_warmup_at_or_above_probes():
    with pytest.raises(ConfigError):
        RunSettings(probes=100, warmup=100)
    with pytest.raises(ConfigError):
        RunSettings(probes=100, warmup=200)


def test_run_settings_rejects_nonpositive_probes_and_negative_warmup():
    with pytest.raises(ConfigError):
        RunSettings(probes=0, warmup=0)
    with pytest.raises(ConfigError):
        RunSettings(probes=100, warmup=-1)


def test_geomean_basic_and_empty():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        geomean([])


def test_geomean_names_the_offending_value():
    with pytest.raises(ValueError, match="0.0"):
        geomean([1.0, 0.0, 2.0])
    with pytest.raises(ValueError, match="-3.5"):
        geomean([1.0, -3.5])


def test_measurement_key_is_stable_and_discriminating():
    from repro.config import DEFAULT_CONFIG, SystemConfig

    point = ("baseline", "kernel", "Small", "ooo")
    runs = RunSettings(probes=400, warmup=100)
    key = measurement_key(DEFAULT_CONFIG, runs, point)
    assert key == measurement_key(SystemConfig(), RunSettings(
        probes=400, warmup=100), point)
    assert key != measurement_key(DEFAULT_CONFIG, runs,
                                  ("baseline", "kernel", "Small", "inorder"))
    assert key != measurement_key(DEFAULT_CONFIG, RunSettings(
        probes=400, warmup=100, seed=7), point)
    assert key != measurement_key(DEFAULT_CONFIG.with_walkers(2), runs, point)


#: One point of each measurement kind, with its store key as computed
#: before the cache lost its bulk-replay switch: persistent caches filled
#: by earlier trees must keep hitting.
PINNED_POINT_KEYS = [
    (("baseline", "kernel", "Small", "ooo"),
     "3f7094d0381612be23a3a5cd7aaea1817ab9562cd8667e1c40098e8987fd5580"),
    (("widx", "kernel", "Small", 4, "shared"),
     "8eed73746f3d01f44e1e11d2625d03ef0d1873d4885f19dee2a9fd45b6ce1043"),
    (("pim", "kernel", "Small", 4, "shared", 8),
     "5baa702533e54ac929fc6f4dc362fa92bf0beace4b83dbd7949ef0ae473f2205"),
    (("index", "ordered", "btree:Small", "ooo", 0, ""),
     "73a49f63fc7efcc556e6010ebfc5d6780596d9bd8810e7e5f0d1503b226a81e1"),
    (("serve", "kernel", "Small", "widx", 4, "shared", 16),
     "b8f3e89c8bb7e383fd7ce3b1b7c956b1c8395b47c9de566f444abb2755a1a102"),
]


@pytest.mark.parametrize("point,expected", PINNED_POINT_KEYS,
                         ids=[point[0] for point, _ in PINNED_POINT_KEYS])
def test_point_keys_are_pinned(point, expected):
    cache = MeasurementCache(runs=RunSettings(probes=400, warmup=100))
    assert cache.point_key(point) == expected


def test_store_backed_cache_survives_process_restart(tmp_path):
    runs = RunSettings(probes=400, warmup=100)
    first = MeasurementCache(runs=runs, store=CacheStore(str(tmp_path)))
    measured = first.measure(baseline_point("kernel", "Small", "ooo"))
    assert first.measured_points == 1

    # A fresh cache (new "process") on the same store must not re-measure.
    second = MeasurementCache(runs=runs, store=CacheStore(str(tmp_path)))
    restored = second.measure(baseline_point("kernel", "Small", "ooo"))
    assert second.measured_points == 0
    assert second.store_hits == 1
    assert restored == measured  # CoreTimingResult round-trips exactly


def test_workload_measurement_requires_data():
    measurement = WorkloadMeasurement(name="empty")
    with pytest.raises(KeyError):
        measurement.speedup(4)


def test_kernel_workload_cached_by_size():
    cache = MeasurementCache(runs=RunSettings(probes=400, warmup=100))
    first = cache.kernel_workload("Small")
    second = cache.kernel_workload("Small")
    assert first is second


def test_baseline_and_widx_measurements_cached():
    cache = MeasurementCache(runs=RunSettings(probes=400, warmup=100))
    a = cache.measure(baseline_point("kernel", "Small", "ooo"))
    b = cache.measure(baseline_point("kernel", "Small", "ooo"))
    assert a is b
    w1 = cache.measure(widx_point("kernel", "Small", 2))
    w2 = cache.measure(widx_point("kernel", "Small", 2))
    assert w1 is w2
    assert cache.measure(widx_point("kernel", "Small", 1)) is not w1
    assert cache.measured_points == 3


def test_unknown_query_name_rejected():
    cache = MeasurementCache(runs=RunSettings(probes=400, warmup=100))
    with pytest.raises(KeyError):
        cache.measure(baseline_point("query", "tpch:999", "ooo"))


def test_unknown_ordered_core_rejected():
    cache = MeasurementCache(runs=RunSettings(probes=400, warmup=100))
    with pytest.raises(ConfigError, match="unknown ordered-index core"):
        cache.measure(index_point("trie:Small", "gpu"))


def test_hang_on_a_baseline_point_names_the_point(monkeypatch):
    """Every op shares one measure path, so the point note that Widx
    hangs carry reaches baseline points too."""
    def hang(*_args, **_kwargs):
        raise SimulationHang("wedged")

    monkeypatch.setattr(runner, "measure_indexing", hang)
    cache = MeasurementCache(runs=RunSettings(probes=400, warmup=100))
    point = baseline_point("kernel", "Small", "ooo")
    with pytest.raises(SimulationHang) as caught:
        cache.measure(point)
    assert (f"while measuring point {point.cache_tuple()!r}"
            in caught.value.__notes__)
    assert cache.measured_points == 0


def test_measure_kernel_populates_everything():
    cache = MeasurementCache(runs=RunSettings(probes=400, warmup=100))
    measurement = measure_kernel(cache, "Small", [1, 2])
    assert measurement.ooo is not None
    assert set(measurement.widx) == {1, 2}
    assert measurement.speedup(2) > measurement.speedup(1) * 1.4
    breakdown = measurement.walker_breakdown(1)
    assert breakdown.total > 0
