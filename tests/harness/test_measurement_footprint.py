"""A measured point keeps only plain results, never the simulated machine.

Each offload builds a warmed memory hierarchy, a Widx machine and an
event engine; on a ``Large`` kernel the hierarchy alone is ~12 MB of
cache-array state.  Once the point is measured none of it may stay
reachable from the :class:`MeasurementCache` — otherwise every cached
outcome pins its machine for the life of the campaign.  And a freshly
measured outcome must agree with its store round trip on every field the
store keeps, so the two are interchangeable to every consumer.
"""

from __future__ import annotations

import gc
import json
import types
from collections import deque

import pytest

from repro.harness.cachestore import decode_measurement, encode_measurement
from repro.harness.runner import (MeasurementCache, RunSettings,
                                  index_point, pim_point, widx_point)
from repro.mem.cache import CacheArray
from repro.mem.hierarchy import MemoryPath
from repro.sim.engine import Engine
from repro.widx.machine import WidxMachine

RUNS = RunSettings(probes=400, warmup=100, seed=42)

#: Simulation objects no measured result may keep alive.
MACHINE_TYPES = (MemoryPath, CacheArray, WidxMachine, Engine)

#: Classes and modules: walking them would reach every module global,
#: not what the cache itself holds.
_OPAQUE = (type, types.ModuleType)

POINTS = {
    "kernel-widx": widx_point("kernel", "Small", 2),
    "pim": pim_point("kernel", "Small", 2, banks=4),
    "ordered-widx": index_point("btree:Small", "widx", 2, "shared"),
}


def reachable_machine_objects(root):
    """Every :data:`MACHINE_TYPES` instance reachable from ``root``,
    breadth-first over :func:`gc.get_referents`; a function is followed
    into its closure only, not its globals."""
    seen = {id(root)}
    queue = deque([root])
    found = []
    while queue:
        obj = queue.popleft()
        if isinstance(obj, MACHINE_TYPES):
            found.append(type(obj).__name__)
        for child in gc.get_referents(obj):
            if isinstance(child, types.FunctionType):
                child = child.__closure__ or ()
            if id(child) not in seen and not isinstance(child, _OPAQUE):
                seen.add(id(child))
                queue.append(child)
    return found


@pytest.fixture(scope="module")
def measured():
    """One cache with the three points measured in turn; after each, the
    walk covers that point and every point measured before it."""
    cache = MeasurementCache(runs=RUNS)
    leaks = {}
    for name, point in POINTS.items():
        cache.measure(point)
        leaks[name] = reachable_machine_objects(cache)
    return cache, leaks


@pytest.mark.parametrize("name", sorted(POINTS))
def test_measured_point_holds_no_simulation_objects(measured, name):
    _cache, leaks = measured
    assert leaks[name] == []


@pytest.mark.parametrize("name", sorted(POINTS))
def test_fresh_outcome_matches_its_store_round_trip(measured, name):
    cache, _leaks = measured
    fresh = cache.measure(POINTS[name])
    stored = decode_measurement(
        json.loads(json.dumps(encode_measurement(fresh))))
    assert fresh.fell_back is False
    for field in ("run", "validated", "fell_back", "abort_cycles", "stats"):
        assert getattr(stored, field) == getattr(fresh, field), field
