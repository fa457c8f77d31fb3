"""Unit tests for the bank-side (PIM) walker backend's building blocks.

Covers the layers the differential wall composes: :class:`PimConfig`
validation, the per-bank port model (:class:`DramBankPorts`), the
bank-side memory path (:class:`PimBankMemory` — store interconnect
charge, warm-level semantics, observability, deliberately absent LLC),
the launch-latency charge in ``configuration_cycles``, the ``pim``
service-calibration backend and the campaign cache/point plumbing.
"""

from __future__ import annotations

import pytest

from repro.config import (DEFAULT_CONFIG, ConfigError, PimConfig,
                          SystemConfig, stable_digest)
from repro.errors import ServeError
from repro.harness.campaign import pim_point
from repro.harness.runner import MeasurementCache, RunSettings
from repro.mem.dram import DramBankPorts
from repro.mem.pimside import PimBankMemory
from repro.obs import StatsRegistry
from repro.pim import pim_config
from repro.serve.service import measure_service
from tests.conftest import build_direct_index, materialized_probe_column

QUICK = RunSettings(probes=400, warmup=100, seed=42)


# ---------------------------------------------------------------------------
# PimConfig
# ---------------------------------------------------------------------------

def test_pim_config_defaults_and_digest_stability():
    cfg = SystemConfig()
    assert cfg.pim == PimConfig()
    assert cfg.pim.num_banks == 8
    assert cfg.pim.walkers_per_bank == 2
    # Two identically-parameterized configs hash identically (the
    # measurement cache keys on this) and a bank-count change re-keys.
    assert (stable_digest(SystemConfig().canonical_dict())
            == stable_digest(SystemConfig().canonical_dict()))
    assert (stable_digest(cfg.with_pim(num_banks=4).canonical_dict())
            != stable_digest(cfg.canonical_dict()))


@pytest.mark.parametrize("kwargs", [
    {"num_banks": 0}, {"num_banks": 65},
    {"walkers_per_bank": 0}, {"walkers_per_bank": 17},
    {"launch_cycles": -1.0}, {"bank_access_ns": 0.0},
])
def test_pim_config_rejects_out_of_range_parameters(kwargs):
    with pytest.raises(ConfigError):
        PimConfig(**kwargs)


def test_pim_config_bank_latency_scales_with_frequency():
    cfg = PimConfig(bank_access_ns=25.0)
    assert cfg.bank_latency_cycles(2.0) == 50
    assert cfg.bank_latency_cycles(4.0) == 100


def test_pim_config_helper_builds_pim_placement():
    config = pim_config(walkers=4, banks=2, walkers_per_bank=1,
                        launch_cycles=0.0)
    assert config.widx.placement == "pim"
    assert config.widx.num_walkers == 4
    assert config.pim.num_banks == 2
    assert config.pim.walkers_per_bank == 1
    assert config.pim.launch_cycles == 0.0
    # None overrides keep the incoming values.
    passthrough = pim_config(config)
    assert passthrough == config


# ---------------------------------------------------------------------------
# DramBankPorts
# ---------------------------------------------------------------------------

def test_bank_ports_interleave_blocks_across_banks():
    ports = DramBankPorts(PimConfig(num_banks=4), freq_ghz=2.0)
    assert [ports.bank_of(block) for block in range(8)] == [
        0, 1, 2, 3, 0, 1, 2, 3]


def test_bank_ports_serialize_conflicting_accesses():
    """Three same-cycle accesses to one bank with two slots: two start
    immediately, the third waits one full service time."""
    ports = DramBankPorts(PimConfig(num_banks=2, walkers_per_bank=2),
                          freq_ghz=2.0)
    latency = ports.latency_cycles
    first = ports.access(0, now=0.0)
    second = ports.access(2, now=0.0)   # block 2 -> bank 0 again
    third = ports.access(4, now=0.0)
    assert first == second == latency
    assert third == 2 * latency
    # A different bank is unaffected by bank 0's backlog.
    assert ports.access(1, now=0.0) == latency
    assert ports.accesses.value == 4


def test_bank_ports_utilization_and_registration():
    ports = DramBankPorts(PimConfig(num_banks=2, walkers_per_bank=1),
                          freq_ghz=2.0)
    ports.access(0, now=0.0)
    ports.access(1, now=0.0)
    elapsed = float(ports.latency_cycles)
    # Both banks busy for exactly one service each.
    assert ports.busy_cycles == 2 * ports.latency_cycles
    assert ports.utilization(elapsed) == pytest.approx(1.0)
    registry = StatsRegistry()
    ports.register_into(registry, "dram")
    snapshot = registry.to_dict()
    assert snapshot["dram.accesses"]["value"] == 2
    assert any(key.startswith("dram.bank0") for key in snapshot)


# ---------------------------------------------------------------------------
# PimBankMemory
# ---------------------------------------------------------------------------

def test_pim_memory_has_no_llc_by_design():
    memory = PimBankMemory(DEFAULT_CONFIG)
    assert not hasattr(memory, "llc")


def test_pim_memory_store_pays_the_interconnect_return():
    """A store and a load of the same cold address differ in completion
    time by exactly the host interconnect hop (the result-return path)."""
    config = DEFAULT_CONFIG
    loaded = PimBankMemory(config).load(0x4000, now=0.0)
    stored = PimBankMemory(config).store(0x4000, now=0.0)
    assert stored.level == loaded.level == "DRAM"
    assert stored.complete == loaded.complete + config.interconnect_cycles
    assert PimBankMemory(config).stats.stores.value == 0


def test_pim_memory_miss_then_hit_through_the_buffer():
    memory = PimBankMemory(DEFAULT_CONFIG)
    miss = memory.load(0x8000, now=0.0)
    assert miss.level == "DRAM"
    hit = memory.load(0x8000, now=miss.complete)
    assert hit.level == "L1"
    assert hit.complete < miss.complete + memory.banks.latency_cycles
    assert memory.stats.dram_blocks.value == 1
    assert memory.stats.loads.value == 2


def test_pim_memory_warm_levels():
    config = DEFAULT_CONFIG
    # Default ("llc") warming = translations only: the bank array is the
    # data's home, so the first touch still reads a bank...
    memory = PimBankMemory(config)
    memory.warm_range(0x1000, 256)
    assert memory.load(0x1000, now=0.0).level == "DRAM"
    assert memory.load(0x1000, now=0.0).tlb_stall == 0.0
    # ...while "l1" warming also fills the scratch buffer.
    memory = PimBankMemory(config)
    memory.warm_block(0x1000, level="l1")
    assert memory.load(0x1000, now=0.0).level == "L1"
    with pytest.raises(ValueError):
        PimBankMemory(config).warm_block(0x1000, level="l3")


def test_pim_memory_registers_all_components():
    memory = PimBankMemory(DEFAULT_CONFIG)
    memory.load(0x2000, now=0.0)
    registry = StatsRegistry()
    memory.register_into(registry, "mem")
    snapshot = registry.to_dict()
    assert snapshot["mem.loads"]["value"] == 1
    assert snapshot["mem.dram.accesses"]["value"] == 1
    assert "mem.l1d.hits" in snapshot
    assert "mem.tlb.misses" in snapshot
    # Workers drop shared-structure registration when merging snapshots.
    private = StatsRegistry()
    memory.register_into(private, "mem", include_shared=False)
    assert not any(key.startswith("mem.dram.bank")
                   for key in private.to_dict())


# ---------------------------------------------------------------------------
# launch latency lands in configuration_cycles
# ---------------------------------------------------------------------------

def test_launch_latency_is_charged_to_config_cycles_only(space):
    index, keys, _truth = build_direct_index(space, num_keys=1000)
    column = materialized_probe_column(space, keys, count=100)
    from repro.widx.offload import offload_probe
    cheap = offload_probe(index, column,
                          config=pim_config(launch_cycles=0.0), probes=100)
    dear = offload_probe(index, column,
                         config=pim_config(launch_cycles=750.0), probes=100)
    assert dear.run.config_cycles - cheap.run.config_cycles == 750.0
    assert dear.run.total_cycles == cheap.run.total_cycles
    assert tuple(dear.payloads) == tuple(cheap.payloads)


# ---------------------------------------------------------------------------
# service calibration and campaign plumbing
# ---------------------------------------------------------------------------

def test_measure_service_pim_backend_charges_the_launch(space):
    index, keys, _truth = build_direct_index(space, num_keys=1000)
    column = materialized_probe_column(space, keys, count=64)
    base = measure_service(index, column, backend="pim", batch_keys=16,
                           walkers=2)
    config = pim_config(launch_cycles=DEFAULT_CONFIG.pim.launch_cycles + 300)
    dearer = measure_service(index, column, backend="pim", batch_keys=16,
                             walkers=2, config=config)
    assert dearer.backend == "pim"
    assert dearer.cycles == base.cycles + 300.0
    with pytest.raises(ServeError):
        measure_service(index, column, backend="pim", batch_keys=16,
                        walkers=0)


def test_measurement_cache_pim_point_roundtrip():
    cache = MeasurementCache(runs=QUICK)
    first = cache.measure(pim_point("kernel", "Small", 2, 4))
    assert cache.measured_points == 1
    again = cache.measure(pim_point("kernel", "Small", 2, 4))
    assert cache.measured_points == 1  # cache hit, no re-simulation
    assert again.run.total_cycles == first.run.total_cycles
    assert first.run.config_cycles >= DEFAULT_CONFIG.pim.launch_cycles


def test_pim_point_declares_distinct_cache_keys():
    a = pim_point("kernel", "Small", 2, 4)
    b = pim_point("kernel", "Small", 2, 8)
    assert a.op == "pim"
    assert a.cache_tuple() != b.cache_tuple()
    assert a.cache_tuple() == pim_point("kernel", "Small", 2, 4).cache_tuple()
