"""Acceptance tests for the ordered-index zoo figure (fig-indexes).

The headline properties: the report is deterministic and byte-identical
across serial, parallel and cache-hit campaigns; the new
``"index"`` measurement op rides the campaign's chaos-recovery plumbing
bit-identically; and the opt-in batched serving column extends fig-serve
without moving its committed golden.

Regenerate the golden (only after an *intentional* model change) with::

    PYTHONPATH=src python -c "
    from tests.harness.test_figindexes import regenerate; regenerate()"
"""

import io
import os

import pytest

from repro.errors import SimulationHang
from repro.harness import figindexes, figserve
from repro.harness.campaign import (Campaign, RetryPolicy, index_point,
                                    serve_point)
from repro.harness.cachestore import encode_measurement
from repro.harness.chaos import ChaosSpec
from repro.harness.cli import main
from repro.harness.runner import MeasurementCache, RunSettings
from repro.sim.watchdog import WatchdogLimits
from repro.widx.offload import offload_trie_search

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

SETTINGS = RunSettings(probes=400, warmup=100, seed=42)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def report_body(text):
    return [line for line in text.splitlines() if not line.startswith("[")]


def _figindexes_text() -> str:
    cache = MeasurementCache(runs=SETTINGS)
    return figindexes.run_fig_indexes(cache).format() + "\n"


def _golden(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8",
              newline="") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# point declarations
# ---------------------------------------------------------------------------

def test_declares_one_point_per_backend_per_class():
    points = figindexes.points_fig_indexes()
    # 5 rows x 3 backends; the hash row rides the fig8 kernel points.
    assert len(points) == 15
    assert len({point.cache_tuple() for point in points}) == 15
    index_ops = [p for p in points if p.op == "index"]
    assert len(index_ops) == 12
    assert {p.kind for p in index_ops} == {"ordered"}
    assert {p.name.split(":")[1] for p in index_ops} == {"Small"}


def test_hash_row_shares_the_fig8_small_points():
    from repro.harness import fig8
    fig8_tuples = {p.cache_tuple() for p in fig8.points_fig8(["Small"])}
    index_tuples = {p.cache_tuple() for p in figindexes.points_fig_indexes()}
    shared = fig8_tuples & index_tuples
    # The ooo baseline and the 4-walker shared offload overlap (fig8
    # does not declare an in-order point).
    assert len(shared) == 2


def test_batched_point_uses_the_coupled_organization():
    points = figindexes.points_fig_indexes()
    batched = [p for p in points
               if p.op == "index" and p.name.startswith("batched")
               and p.core == "widx"]
    assert len(batched) == 1
    assert batched[0].mode == "coupled"


# ---------------------------------------------------------------------------
# watchdog budgets reach every ordered-index Widx point
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("index_class,mode", [("btree", "shared"),
                                              ("trie", "shared"),
                                              ("wormhole", "shared"),
                                              ("batched", "coupled")])
def test_tight_watchdog_limits_hang_ordered_widx_points(index_class, mode):
    cache = MeasurementCache(runs=SETTINGS,
                             watchdog_limits=WatchdogLimits(max_cycles=50.0))
    name = f"{index_class}:Small"
    with pytest.raises(SimulationHang) as caught:
        cache.measure(index_point(name, "widx", walkers=2, mode=mode))
    point = ("index", "ordered", name, "widx", 2, mode)
    assert f"while measuring point {point!r}" in caught.value.__notes__
    assert cache.measured_points == 0


@pytest.mark.parametrize("kind,name,backend,mode", [
    ("kernel", "Small", "widx", "shared"),
    ("ordered", "batched:Small", "batched", "coupled")])
def test_tight_watchdog_limits_hang_widx_serve_points(kind, name, backend,
                                                      mode):
    """Serving calibrations run real offloads, so the cache's watchdog
    budget must reach them too — the batched tree backend included."""
    cache = MeasurementCache(runs=SETTINGS,
                             watchdog_limits=WatchdogLimits(max_cycles=50.0))
    point = serve_point(kind, name, backend, 4, 2, mode)
    with pytest.raises(SimulationHang) as caught:
        cache.measure(point)
    assert (f"while measuring point {point.cache_tuple()!r}"
            in caught.value.__notes__)
    assert cache.measured_points == 0


def test_ordered_widx_point_without_limits_runs_the_default_watchdog():
    cache = MeasurementCache(runs=SETTINGS)
    outcome = cache.measure(index_point("trie:Small", "widx", walkers=2,
                                        mode="shared"))
    index, probes = MeasurementCache(runs=SETTINGS).ordered_workload(
        "trie:Small")
    direct = offload_trie_search(
        index, probes, probes=SETTINGS.probes,
        config=cache.config.with_widx(num_walkers=2, mode="shared"))
    assert outcome.run.total_cycles == direct.run.total_cycles
    assert outcome.stats == direct.stats


# ---------------------------------------------------------------------------
# the report itself
# ---------------------------------------------------------------------------

def test_figindexes_report_matches_golden():
    assert _figindexes_text() == _golden("figindexes_p400_w100_s42.txt")


def test_report_covers_every_traversal_class():
    cache = MeasurementCache(runs=SETTINGS)
    report = figindexes.run_fig_indexes(cache)
    assert report.column("index") == ["hash", "btree", "trie", "wormhole",
                                      "batched"]
    for column in ("inorder", "ooo", f"widx_{figindexes.INDEX_WALKERS}w"):
        assert all(v > 0 for v in report.column(column))
    for speedup, ooo, widx in zip(report.column("speedup"),
                                  report.column("ooo"),
                                  report.column(
                                      f"widx_{figindexes.INDEX_WALKERS}w")):
        assert speedup == pytest.approx(ooo / widx)


def test_batching_beats_the_per_probe_descent_on_the_baselines():
    """The amortization the batched traversal exists for: on the same
    tree, the level-wise descent is cheaper per tuple than per-probe
    descents on both baseline cores."""
    cache = MeasurementCache(runs=SETTINGS)
    report = figindexes.run_fig_indexes(cache)
    rows = dict(zip(report.column("index"),
                    zip(report.column("inorder"), report.column("ooo"))))
    assert rows["batched"][0] < rows["btree"][0]
    assert rows["batched"][1] < rows["btree"][1]


# ---------------------------------------------------------------------------
# bit-identity: serial / parallel / cache-hit
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_cli_serial_parallel_and_cache_hit_are_bit_identical(tmp_path):
    """The headline acceptance property for fig-indexes."""
    base = ("--figure", "fig-indexes", "--probes", "400", "--warmup", "100",
            "--cache-dir", str(tmp_path))
    code1, serial = run_cli(*base, "--jobs", "1", "--no-cache")
    code2, parallel = run_cli(*base, "--jobs", "2")
    code3, cached = run_cli(*base, "--jobs", "1")
    assert code1 == code2 == code3 == 0
    assert "15 measured" in parallel
    assert "15 cached, 0 measured" in cached
    assert (report_body(serial) == report_body(parallel)
            == report_body(cached))


# ---------------------------------------------------------------------------
# chaos: the "index" op rides the campaign recovery plumbing
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_chaos_killed_index_point_retries_bit_identical():
    """A worker killed while measuring an ordered-index point is retried,
    and the recovered measurement is bit-identical to a fault-free
    campaign's — for both a baseline and a Widx offload point."""
    points = [index_point("trie:Small", "ooo"),
              index_point("wormhole:Small", "widx", 2, "shared")]

    clean_cache = MeasurementCache(runs=SETTINGS)
    Campaign(clean_cache).run(points, jobs=1)

    chaos_cache = MeasurementCache(runs=SETTINGS)
    chaos = ChaosSpec(seed=11, kill_rate=1.0, error_rate=0.5,
                      max_injections=1, target="index")
    outcome = Campaign(
        chaos_cache, policy=RetryPolicy(max_retries=3, backoff_base=0.01,
                                        degrade_after=50),
        chaos=chaos).run(points, jobs=2)
    assert outcome.ok
    assert outcome.measured_points == len(points)

    for point in points:
        clean = encode_measurement(clean_cache.measure(point))
        recovered = encode_measurement(chaos_cache.measure(point))
        assert clean == recovered, point


# ---------------------------------------------------------------------------
# the opt-in batched serving column
# ---------------------------------------------------------------------------

def test_batched_backend_extends_fig_serve_points():
    plain = figserve.points_fig_serve()
    extended = figserve.points_fig_serve(include_batched=True)
    assert len(extended) == len(plain) + len(figserve.CALIBRATED_BATCHES)
    extra = [p for p in extended if p.kind == "ordered"]
    assert all(p.name == figserve.BATCHED_NAME for p in extra)
    assert all(p.op == "serve" for p in extra)


@pytest.mark.slow
def test_fig_serve_batched_column_leaves_base_rows_untouched():
    """``--batched-tree`` appends rows and a note; every pre-existing
    value stays bit-identical (only column padding reflows for the wider
    label, so the committed fig-serve golden still holds without it)."""
    cache = MeasurementCache(runs=SETTINGS)
    plain = figserve.run_fig_serve(cache)
    extended = figserve.run_fig_serve(cache, include_batched=True)
    batched_label = figserve.BATCHED_BACKEND[0]
    assert set(extended.column("backend")) == (
        set(plain.column("backend")) | {batched_label})
    keep = [i for i, backend in enumerate(extended.column("backend"))
            if backend != batched_label]
    for column in plain.columns:
        values = extended.column(column)
        assert [values[i] for i in keep] == plain.column(column), column
    assert [note for note in extended.notes
            if batched_label not in note] == plain.notes


def regenerate() -> None:  # pragma: no cover - maintenance helper
    with open(os.path.join(GOLDEN_DIR, "figindexes_p400_w100_s42.txt"),
              "w", encoding="utf-8", newline="") as handle:
        handle.write(_figindexes_text())
