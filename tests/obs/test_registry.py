"""Tests for the stats registry: registration, snapshots, merging."""

import json

import pytest

from repro.errors import SimulationError
from repro.obs import Counter, StatsRegistry


def test_register_returns_the_live_object():
    registry = StatsRegistry()
    counter = registry.register("mem.l1d.misses", Counter())
    counter += 3
    assert registry.get("mem.l1d.misses") == 3


def test_duplicate_and_empty_paths_rejected():
    registry = StatsRegistry()
    registry.register("a.b", Counter())
    with pytest.raises(SimulationError):
        registry.register("a.b", Counter())
    with pytest.raises(SimulationError):
        registry.register("", Counter())


def test_non_metric_rejected():
    with pytest.raises(SimulationError):
        StatsRegistry().register("x", object())


def test_get_or_create_helpers_enforce_kinds():
    registry = StatsRegistry()
    counter = registry.counter("hits")
    assert registry.counter("hits") is counter
    registry.histogram("lat")
    registry.occupancy("pool", capacity=8)
    assert registry.get("pool").capacity == 8
    with pytest.raises(SimulationError):
        registry.histogram("hits")
    with pytest.raises(SimulationError):
        registry.counter("lat")
    with pytest.raises(SimulationError):
        registry.occupancy("lat")


def test_scope_prepends_prefix():
    registry = StatsRegistry()
    scope = registry.scope("cmp.core0")
    scope.counter("misses")
    nested = scope.scope("l1d")
    nested.counter("hits")
    assert "cmp.core0.misses" in registry
    assert "cmp.core0.l1d.hits" in registry


def test_container_protocol():
    registry = StatsRegistry()
    registry.counter("b")
    registry.counter("a")
    assert len(registry) == 2
    assert list(registry) == ["a", "b"]
    assert registry.paths() == ["a", "b"]
    assert "a" in registry and "z" not in registry


def test_to_dict_is_sorted_and_json_ready():
    registry = StatsRegistry()
    registry.counter("z").add(1)
    registry.counter("a").add(2)
    snapshot = registry.to_dict()
    assert list(snapshot) == ["a", "z"]
    assert json.loads(json.dumps(snapshot)) == snapshot


def test_from_dict_round_trip_detaches_copies():
    registry = StatsRegistry()
    registry.counter("a").add(5)
    clone = StatsRegistry.from_dict(registry.to_dict())
    clone.get("a").add(1)
    assert registry.get("a") == 5
    assert clone.get("a") == 6


def test_merge_accumulates_matching_paths():
    a, b = StatsRegistry(), StatsRegistry()
    a.counter("hits").add(2)
    b.counter("hits").add(3)
    b.counter("only.b").add(7)
    a.merge(b)
    assert a.get("hits") == 5
    assert a.get("only.b") == 7
    # The adopted metric is a copy, not b's live object.
    b.get("only.b").add(1)
    assert a.get("only.b") == 7


def test_merge_accepts_snapshot_dicts():
    a = StatsRegistry()
    a.counter("x").add(1)
    a.merge({"x": {"kind": "counter", "value": 4}})
    assert a.get("x") == 5


def test_merge_is_associative_over_worker_snapshots():
    """Folding worker snapshots in any grouping gives the same totals."""
    def worker(value):
        registry = StatsRegistry()
        registry.counter("n").add(value)
        histogram = registry.histogram("h")
        histogram.record(value)
        return registry.to_dict()

    snapshots = [worker(v) for v in (1, 2, 3)]

    serial = StatsRegistry()
    for snapshot in snapshots:
        serial.merge(snapshot)

    grouped = StatsRegistry()
    pair = StatsRegistry()
    pair.merge(snapshots[0])
    pair.merge(snapshots[1])
    grouped.merge(pair)
    grouped.merge(snapshots[2])

    assert serial.to_dict() == grouped.to_dict()


def test_merge_kind_mismatch_raises():
    a, b = StatsRegistry(), StatsRegistry()
    a.counter("x")
    b.histogram("x")
    with pytest.raises(SimulationError):
        a.merge(b)


def test_merge_all_metric_kinds():
    a, b = StatsRegistry(), StatsRegistry()
    for registry, value in ((a, 2), (b, 5)):
        registry.counter("c").add(value)
        registry.histogram("h").record(value)
        registry.occupancy("o", capacity=8).record(value)
    a.merge(b)
    assert a.get("c") == 7
    assert a.get("h").count == 2
    assert a.get("o").peak == 5
