"""Every field of every engine-driven figure result, pinned.

The serve-sweep CRC and the fig-indexes golden only cover printed
columns.  These CRCs cover one whole result per engine-driven point —
each field by ``repr`` plus the registry snapshot as sorted JSON — so a
change to the discrete-event engine that reorders a single same-cycle
wakeup, or dispatches one event more or fewer, fails here even when the
rounded figures do not move:

* every level of the serve-sweep (fig-serve's fifo sweep, then
  fig-resilience's faulted sweep) at :data:`figserve.SWEEP_REQUESTS`
  requests per level: one :class:`ServeResult` each, whose snapshot
  carries ``serve.engine.dispatched``;
* every fig-indexes Widx offload at probes=400, warmup=100, seed 42: one
  :class:`OffloadOutcome` each (``memory`` is a live object and is left
  out; its counters are in the snapshot, as is ``sim.engine.dispatched``,
  except on the B+-tree row, whose driver takes no snapshot and is
  pinned by its run result and payloads alone).
"""

from __future__ import annotations

import dataclasses
import json
import zlib

import pytest

from repro.harness import figindexes, figresilience, figserve
from repro.harness.runner import (MeasurementCache, RunSettings, index_point,
                                  widx_point)
from repro.serve.faults import WalkerFaultModel
from repro.serve.policies import parse_policy
from repro.serve.simulate import ResilienceConfig, run_open_loop
from repro.workloads.ordered_kernel import ORDERED_CLASSES

#: CRC-32 of :func:`result_text` per serve-sweep level, keyed by
#: (backend, policy, load fraction, faults per walker per Mcycle).
PINNED_SERVE = {
    ("inorder", "fifo", 0.3, 0.0): 0x2fb8f242,
    ("inorder", "fifo", 0.5, 0.0): 0x423b66c1,
    ("inorder", "fifo", 0.7, 0.0): 0x906c6d03,
    ("inorder", "fifo", 0.85, 0.0): 0xb5f50adf,
    ("inorder", "fifo", 0.95, 0.0): 0x9a53879e,
    ("widx-1", "fifo", 0.3, 0.0): 0x2fc9f2b0,
    ("widx-1", "fifo", 0.5, 0.0): 0x2225848f,
    ("widx-1", "fifo", 0.7, 0.0): 0x4056e018,
    ("widx-1", "fifo", 0.85, 0.0): 0x092b0828,
    ("widx-1", "fifo", 0.95, 0.0): 0x9af2d5e9,
    ("widx-2", "fifo", 0.3, 0.0): 0x87e21a14,
    ("widx-2", "fifo", 0.5, 0.0): 0x6241ed96,
    ("widx-2", "fifo", 0.7, 0.0): 0x7678e54c,
    ("widx-2", "fifo", 0.85, 0.0): 0xaa82fdb2,
    ("widx-2", "fifo", 0.95, 0.0): 0x5abf5622,
    ("widx-4", "fifo", 0.3, 0.0): 0xe885d6a6,
    ("widx-4", "fifo", 0.5, 0.0): 0x49c4170f,
    ("widx-4", "fifo", 0.7, 0.0): 0xea3ab3c0,
    ("widx-4", "fifo", 0.85, 0.0): 0xa2914884,
    ("widx-4", "fifo", 0.95, 0.0): 0xed6571dd,
    ("widx-1", "shed:32", 0.5, 0.0): 0xf41d379b,
    ("widx-1", "shed:32", 0.8, 0.0): 0xa669ee45,
    ("widx-1", "shed:32", 0.5, 4.0): 0x329118cc,
    ("widx-1", "shed:32", 0.8, 4.0): 0x6a08b42d,
    ("widx-1", "shed:32", 0.5, 16.0): 0x7341e982,
    ("widx-1", "shed:32", 0.8, 16.0): 0x1bbb65c1,
    ("widx-2", "shed:32", 0.5, 0.0): 0xd38de3be,
    ("widx-2", "shed:32", 0.8, 0.0): 0x2392f5d2,
    ("widx-2", "shed:32", 0.5, 4.0): 0x6a1d3ed3,
    ("widx-2", "shed:32", 0.8, 4.0): 0x55157526,
    ("widx-2", "shed:32", 0.5, 16.0): 0x372ae553,
    ("widx-2", "shed:32", 0.8, 16.0): 0x466dd4b1,
    ("widx-4", "shed:32", 0.5, 0.0): 0x1393e73e,
    ("widx-4", "shed:32", 0.8, 0.0): 0x8430ee70,
    ("widx-4", "shed:32", 0.5, 4.0): 0x0aed4a2f,
    ("widx-4", "shed:32", 0.8, 4.0): 0xc7d96957,
    ("widx-4", "shed:32", 0.5, 16.0): 0x6f02e3c0,
    ("widx-4", "shed:32", 0.8, 16.0): 0x1d72f3d7,
}

#: CRC-32 of :func:`result_text` per fig-indexes Widx offload (the hash
#: row is the Small kernel).  The btree row's snapshot was ``None`` until
#: the B+-tree offloads shared the ordered outcome tail; with ``stats``
#: read as ``null`` its text still hashes to the old pin, 0x6d5aa1c5.
PINNED_WIDX = {
    "hash": 0x41850b69,
    "btree": 0xa20264b5,
    "trie": 0x7994601e,
    "wormhole": 0xd8ef456a,
    "batched": 0xd9c6486c,
}


def result_text(result) -> str:
    """Every field by ``repr`` (but a live ``memory``), then the stats
    snapshot as sorted JSON."""
    fields = [f"{f.name}={getattr(result, f.name)!r}"
              for f in dataclasses.fields(result)
              if f.name not in ("stats", "memory")]
    return "\n".join(fields + [json.dumps(result.stats, sort_keys=True)])


def crc(result) -> int:
    return zlib.crc32(result_text(result).encode())


@pytest.fixture(scope="module")
def cache():
    return MeasurementCache(runs=RunSettings(probes=400, warmup=100, seed=42))


def serve_levels(cache):
    """(key, ServeResult) per serve-sweep level, in sweep order."""
    cores = cache.config.num_cores
    seed = cache.runs.seed
    models = {label: figserve.service_model(cache, label, backend, walkers,
                                            mode)
              for label, backend, walkers, mode in figserve.BACKENDS}
    for label, _backend, _walkers, _mode in figserve.BACKENDS:
        model = models[label]
        saturation = cores * model.saturation_rate()
        for fraction in figserve.LOAD_FRACTIONS:
            yield (label, "fifo", fraction, 0.0), run_open_loop(
                model, rate=fraction * saturation,
                num_requests=figserve.SWEEP_REQUESTS,
                policy=parse_policy("fifo"), cores=cores, seed=seed)
    shed = f"shed:{figresilience.SHED_DEPTH}"
    for label, _backend, walkers, _mode in figresilience.FAULT_BACKENDS:
        model = models[label]
        saturation = cores * model.saturation_rate()
        slo = figresilience.SLO_SERVICE_MULTIPLE * model.cycles_for(1)
        for rate in figresilience.FAULT_RATES:
            faults = WalkerFaultModel(seed=seed, rate=rate,
                                      walkers_per_core=walkers)
            resilience = ResilienceConfig(
                slo=slo, faults=faults if faults.active else None,
                fallback=models["inorder"] if faults.active else None)
            for fraction in figresilience.LOAD_FRACTIONS:
                yield (label, shed, fraction, rate), run_open_loop(
                    model, rate=fraction * saturation,
                    num_requests=figserve.SWEEP_REQUESTS,
                    policy=parse_policy(shed), cores=cores, seed=seed,
                    resilience=resilience)


def widx_outcome(cache, row: str):
    walkers = figindexes.INDEX_WALKERS
    if row == "hash":
        return cache.measure(widx_point("kernel", figindexes.INDEX_SIZE,
                                        walkers, "shared"))
    return cache.measure(index_point(f"{row}:{figindexes.INDEX_SIZE}",
                                     "widx", walkers,
                                     figindexes._widx_mode(row)))


def test_every_serve_sweep_level_is_bit_identical(cache):
    actual = {key: crc(result) for key, result in serve_levels(cache)}
    assert sorted(actual) == sorted(PINNED_SERVE)
    moved = {key: f"{value:#010x}" for key, value in actual.items()
             if value != PINNED_SERVE[key]}
    assert not moved, f"serve-sweep levels moved: {moved}"


def test_every_fig_indexes_widx_point_is_pinned():
    assert set(PINNED_WIDX) == {"hash", *ORDERED_CLASSES}


@pytest.mark.parametrize("row", sorted(PINNED_WIDX))
def test_widx_outcome_is_bit_identical(cache, row):
    value = crc(widx_outcome(cache, row))
    assert value == PINNED_WIDX[row], f"{row}: crc {value:#010x}"
