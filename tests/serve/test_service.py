"""Tests for service-time calibration on the detailed simulators."""

import json
import zlib

import pytest

from repro.errors import ServeError
from repro.serve.service import ServiceMeasurement, ServiceModel, measure_service
from repro.workloads.hashjoin_kernel import build_kernel_workload


@pytest.fixture(scope="module")
def small_workload():
    return build_kernel_workload("Small", 64, seed=42)


def test_core_backend_measures_whole_batch_cost(small_workload):
    index, probes = small_workload
    one = measure_service(index, probes, backend="inorder", batch_keys=8)
    four = measure_service(index, probes, backend="inorder", batch_keys=32)
    assert one.cycles > 0
    assert four.cycles > one.cycles
    # Per-key cost must not grow with batch size (warm-up amortizes).
    assert four.cycles_per_key <= one.cycles_per_key
    assert one.stats  # registry snapshot attached


#: ``measure_service`` on the core backends over the Small kernel (64
#: probes, seed 42): (backend, batch_keys) -> (``repr`` of the cycles,
#: CRC-32 of the stats snapshot as sorted JSON).
CORE_SERVICE_PINS = {
    ("ooo", 8): ("550.0", 0x28228551),
    ("ooo", 32): ("1458.0", 0x656356e9),
    ("inorder", 8): ("723.0", 0x83f454d6),
    ("inorder", 32): ("2441.0", 0xa198b9fe),
}


@pytest.mark.parametrize("backend,batch_keys", sorted(CORE_SERVICE_PINS))
def test_core_backend_measurement_is_pinned(small_workload, backend,
                                            batch_keys):
    index, probes = small_workload
    measurement = measure_service(index, probes, backend=backend,
                                  batch_keys=batch_keys)
    crc = zlib.crc32(json.dumps(measurement.stats, sort_keys=True).encode())
    assert (repr(measurement.cycles), crc) == \
        CORE_SERVICE_PINS[(backend, batch_keys)], f"crc {crc:#010x}"


def test_widx_backend_includes_configuration_cost(small_workload):
    index, probes = small_workload
    measurement = measure_service(index, probes, backend="widx",
                                  batch_keys=8, walkers=1, mode="shared")
    assert measurement.backend == "widx"
    assert measurement.walkers == 1 and measurement.mode == "shared"
    # Config cycles are folded in: a batch costs more than the raw run
    # of the same offload without them would.
    from repro.widx.offload import offload_probe
    outcome = offload_probe(index, probes, config=None or
                            __import__("repro.config",
                                       fromlist=["DEFAULT_CONFIG"]
                                       ).DEFAULT_CONFIG.with_widx(
                                           num_walkers=1, mode="shared"),
                            probes=8)
    assert measurement.cycles == pytest.approx(
        outcome.run.total_cycles + outcome.run.config_cycles)


def test_widx_beats_inorder_at_every_calibrated_batch(small_workload):
    """The acceptance criterion's calibration-level core: Widx service
    time is strictly below the in-order core's at equal batch size."""
    index, probes = small_workload
    for batch_keys in (8, 16, 32):
        core = measure_service(index, probes, backend="inorder",
                               batch_keys=batch_keys)
        widx = measure_service(index, probes, backend="widx",
                               batch_keys=batch_keys, walkers=1,
                               mode="shared")
        assert widx.cycles < core.cycles


def test_measurement_validation(small_workload):
    index, probes = small_workload
    with pytest.raises(ServeError):
        measure_service(index, probes, backend="inorder", batch_keys=0)
    with pytest.raises(ServeError):
        measure_service(index, probes, backend="inorder", batch_keys=10**6)
    with pytest.raises(ServeError):
        measure_service(index, probes, backend="widx", batch_keys=8)
    with pytest.raises(ServeError):
        measure_service(index, probes, backend="inorder", batch_keys=8,
                        walkers=2)
    with pytest.raises(ServeError):
        measure_service(index, probes, backend="vliw", batch_keys=8)


def test_model_from_measurements_checks_key_multiples():
    good = ServiceMeasurement(backend="inorder", kind="kernel", name="Small",
                              walkers=0, mode="", batch_keys=16, cycles=50.0)
    model = ServiceModel.from_measurements("inorder", 8, [good])
    assert model.calibrated_batches == [2]
    bad = ServiceMeasurement(backend="inorder", kind="kernel", name="Small",
                             walkers=0, mode="", batch_keys=12, cycles=50.0)
    with pytest.raises(ServeError):
        ServiceModel.from_measurements("inorder", 8, [bad])


def test_scaled_model_multiplies_every_batch_cost():
    model = ServiceModel("m", 8, {1: 100.0, 2: 160.0, 4: 280.0})
    double = model.scaled(2.0)
    for batch in (1, 2, 3, 4, 8):
        assert double.cycles_for(batch) == pytest.approx(
            2.0 * model.cycles_for(batch))
    assert double.keys_per_request == model.keys_per_request
    # The original is untouched (scaled returns a copy).
    assert model.cycles_for(1) == 100.0


def test_scaled_rejects_non_positive_and_non_finite_factors():
    model = ServiceModel("m", 8, {1: 100.0})
    for factor in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ServeError):
            model.scaled(factor)
