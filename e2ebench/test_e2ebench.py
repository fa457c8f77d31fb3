"""Tests of the benchmark's own helpers, and of each workload shortened at
a held-out seed.

Run from the repository root::

    python -m pytest e2ebench -q
"""

import pytest

import hostspeed
import run
import tracing
import workloads
from repro.config import DEFAULT_CONFIG
from repro.cpu import timing
from repro.harness import figresilience, figserve
from repro.mem.hierarchy import MemoryHierarchy
from repro.workloads.hashjoin_kernel import build_kernel_workload

#: A seed none of the pinned results were produced at.
HELD_OUT_SEED = 7


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, "test")


def test_self_time_subtracts_nested_children():
    spans = [
        _span("harness.campaign", 0.0, 10.0, -1),
        _span("widx.offload", 1.0, 4.0, 0),
        _span("sim.engine", 2.0, 3.0, 1),
        _span("widx.offload", 5.0, 9.0, 0),
        _span("harness.render", 10.0, 10.5, -1),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({"harness.campaign": 3.0,
                                 "widx.offload": 2.0 + 4.0,
                                 "sim.engine": 1.0,
                                 "harness.render": 0.5})
    # Self times partition the time the top-level spans cover.
    assert sum(own.values()) == pytest.approx(tracing.top_level_time(spans))
    assert tracing.top_level_time(spans) == pytest.approx(10.5)


def test_tracer_records_nesting_and_counts():
    targets = {"cpu.warm": ("repro.cpu.timing:warm_hash_index",),
               "mem.warm": ("repro.mem.hierarchy:MemoryHierarchy.warm_range",)}
    index, _probes = build_kernel_workload("Small", 16, seed=HELD_OUT_SEED)
    memory = MemoryHierarchy(DEFAULT_CONFIG)
    block = DEFAULT_CONFIG.l1d.block_bytes
    with tracing.Tracer("unit", targets) as tracer:
        timing.warm_hash_index(memory, index)
        inner = len(tracer.spans) - 1
        warmed = tracer.counts["mem.warm_blocks"]
        memory.warm_range(block // 2, 3 * block)  # straddles 4 blocks
    outer, *children, last = tracer.spans
    assert (outer.name, outer.parent) == ("cpu.warm", -1)
    assert len(children) == inner >= 1
    assert all((span.name, span.parent) == ("mem.warm", 0)
               for span in children)
    assert (last.name, last.parent) == ("mem.warm", -1)
    assert {span.run_id for span in tracer.spans} == {"unit"}
    assert tracer.counts["mem.warm_blocks"] == warmed + 4
    own = tracing.self_times(tracer.spans)
    assert own["cpu.warm"] == pytest.approx(
        outer.duration - sum(span.duration for span in children))


def test_wrappers_removed_even_when_traced_code_raises():
    original = vars(MemoryHierarchy)["warm_range"]
    with pytest.raises(RuntimeError):
        with tracing.Tracer("unit"):
            assert tracing.leftover_wrappers()
            raise RuntimeError("boom")
    assert vars(MemoryHierarchy)["warm_range"] is original
    assert tracing.leftover_wrappers() == []


def test_normalized_seconds_sums_each_units_median():
    ref = hostspeed.REFERENCE_PROBE_S
    steady = ({"build": 2.0, "point": 1.0}, {"build": ref, "point": ref})
    # The host ran twice as fast: times and probes halve together.
    burst = ({"build": 1.0, "point": 0.5},
             {"build": ref / 2, "point": ref / 2})
    assert run.normalized_seconds([steady]) == pytest.approx(3.0)
    assert run.normalized_seconds([steady, burst, burst]) == pytest.approx(
        3.0)
    # A unit that got slower at the same host speed still counts.
    slower = ({"build": 2.0, "point": 1.5}, steady[1])
    assert run.normalized_seconds([slower, burst, slower]) == pytest.approx(
        3.5)


def test_laps_partition_a_phase_and_probe_around_each_unit():
    probes = iter([1.0, 3.0, 5.0, 7.0])
    laps = workloads.Laps(lambda: next(probes))
    laps.lap("a")
    laps.lap("b")
    first, first_probes = laps.take()
    laps.lap("c")
    second, second_probes = laps.take()
    assert list(first) == ["a", "b"] and list(second) == ["c"]
    assert all(seconds >= 0 for seconds in first.values())
    assert first_probes == {"a": 2.0, "b": 4.0}
    assert second_probes == {"c": 6.0}
    assert workloads.Laps().take()[1] == {}


def test_one_byte_report_change_fails_the_crc_gate():
    text = workloads.read_golden("fig8_p400_w100_s42.txt")
    checks = workloads.Checks()
    assert workloads.crc_gate(checks, text, workloads.crc32(text), "golden")
    changed = text[:100] + chr(ord(text[100]) ^ 1) + text[101:]
    assert not workloads.crc_gate(checks, changed, workloads.crc32(text),
                                  "golden")
    assert (checks.attempted, checks.failed) == (2, 1)


def test_shortened_index_zoo_matches_the_committed_golden():
    # The benchmark builds every index before the campaign; the figure
    # path builds each on first use.  The reports must not differ.
    checks = workloads.Checks()
    rep = workloads.execute("index-zoo", workloads.PINNED_SEED, full=False)
    workloads.check_rep(rep, checks)
    assert checks.attempted > 0 and checks.failures == []


def test_serve_sweep_reproduces_the_figure_rows():
    rep = workloads.execute("serve-sweep", workloads.PINNED_SEED, full=False)
    serve_rows = figserve.run_fig_serve(rep.cache).rows
    resilience_rows = figresilience.run_fig_resilience(rep.cache).rows
    assert len(rep.sweeps) == len(serve_rows) + len(resilience_rows)
    for row, result in zip(serve_rows, rep.sweeps):
        assert row[0] == result.label
        assert tuple(row[2:]) == (result.offered, result.achieved,
                                  result.p50, result.p95, result.p99)
    for row, result in zip(resilience_rows, rep.sweeps[len(serve_rows):]):
        assert row[0] == result.label
        assert (row[3], row[6], row[7], row[8], row[9]) == (
            result.offered, result.completed, result.expired,
            result.faults, result.p99)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_held_out_seed_passes_every_check(workload):
    checks = workloads.Checks()
    metrics, tracer = run.traced_pair(workload, HELD_OUT_SEED, checks,
                                      full=False)
    assert checks.attempted > 0 and checks.failures == []
    assert tracing.leftover_wrappers() == []
    assert metrics["workloads.builds"] >= 1
    assert metrics["sim.events"] > 0
    assert metrics["trace.unattributed_share"] < 0.05
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert {span.run_id for span in tracer.spans} == {
        f"{workload}-s{HELD_OUT_SEED}-0"}
