"""Acceptance tests for the serving figure (fig-serve)."""

import io

import pytest

from repro.harness import figserve
from repro.harness.cli import main
from repro.harness.runner import MeasurementCache, RunSettings

#: Small settings keep each calibration point sub-second.
SETTINGS = RunSettings(probes=400, warmup=100, seed=42)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def report_body(text):
    return [line for line in text.splitlines() if not line.startswith("[")]


@pytest.fixture(scope="module")
def report():
    """One warm fig-serve report shared by the read-only assertions."""
    cache = MeasurementCache(runs=SETTINGS)
    return figserve.run_fig_serve(cache)


def test_declares_twelve_calibration_points():
    points = figserve.points_fig_serve()
    assert len(points) == 12
    assert all(point.op == "serve" for point in points)
    assert len({point.cache_tuple() for point in points}) == 12


def test_sweep_covers_every_backend_and_load_level(report):
    backends = report.column("backend")
    assert backends == [label
                        for label, _b, _w, _m in figserve.BACKENDS
                        for _ in figserve.LOAD_FRACTIONS]
    loads = report.column("load")
    assert set(loads) == {round(f, 2) for f in figserve.LOAD_FRACTIONS}


def test_p99_non_decreasing_in_offered_load_per_backend(report):
    rows = list(zip(report.column("backend"), report.column("offered"),
                    report.column("p99")))
    for label, _backend, _walkers, _mode in figserve.BACKENDS:
        curve = sorted((offered, p99) for b, offered, p99 in rows
                       if b == label)
        p99s = [p99 for _offered, p99 in curve]
        assert p99s == sorted(p99s), f"{label} p99 not monotone: {p99s}"


def test_widx_sustains_higher_saturation_than_inorder(report):
    saturation = {}
    for note in report.notes:
        if "saturation" in note and "requests/kcycle" in note:
            label, rest = note.split(":", 1)
            saturation[label] = float(rest.split()[1])
    assert saturation["widx-1"] > saturation["inorder"]
    assert "UNEXPECTED" not in "\n".join(report.notes)


def test_quantiles_ordered_in_every_row(report):
    for p50, p95, p99 in zip(report.column("p50"), report.column("p95"),
                             report.column("p99")):
        assert p50 <= p95 <= p99


def test_policy_variants_change_the_sweep():
    cache = MeasurementCache(runs=SETTINGS)
    fifo = figserve.run_fig_serve(cache, "fifo")
    batched = figserve.run_fig_serve(cache, "size:4")
    assert fifo.column("p50") != batched.column("p50")
    assert "policy=size:4" in batched.title


def test_cli_serial_parallel_and_cache_hit_are_bit_identical(tmp_path):
    """The headline acceptance property for fig-serve."""
    base = ("--figure", "fig-serve", "--probes", "400", "--warmup", "100",
            "--cache-dir", str(tmp_path))
    code1, serial = run_cli(*base, "--jobs", "1", "--no-cache")
    code2, parallel = run_cli(*base, "--jobs", "2")
    code3, cached = run_cli(*base, "--jobs", "1")
    assert code1 == code2 == code3 == 0
    assert "12 measured" in parallel
    assert "12 cached, 0 measured" in cached
    assert report_body(serial) == report_body(parallel) == report_body(cached)


def test_cli_rejects_bad_serve_policy():
    code, text = run_cli("--figure", "fig-serve", "--serve-policy", "lifo")
    assert code == 2
    assert "policy" in text


# ---------------------------------------------------------------------------
# byte-identity: the resilience layer must not move fig-serve by one bit
# ---------------------------------------------------------------------------

def test_fig_serve_report_matches_pre_resilience_golden():
    """The golden was rendered from the tree before admission control,
    walker faults, and the controller existed.  Every level runs on the
    one serving driver; with no SLO, no wrappers and no fault model
    armed it keeps that tree's event schedule, and the report is
    byte-identical."""
    import os
    golden_path = os.path.join(os.path.dirname(__file__), "goldens",
                               "figserve_p400_w100_s42.txt")
    with open(golden_path, "r", encoding="utf-8", newline="") as handle:
        golden = handle.read()
    cache = MeasurementCache(runs=SETTINGS)
    assert figserve.run_fig_serve(cache).format() + "\n" == golden


def test_fig_serve_with_slo_adds_goodput_columns():
    cache = MeasurementCache(runs=SETTINGS)
    report = figserve.run_fig_serve(cache, slo=5000.0)
    assert "goodput" in report.columns
    assert "shed" in report.columns
    assert all(shed == 0 for shed in report.column("shed"))  # no controller
    for goodput, achieved in zip(report.column("goodput"),
                                 report.column("achieved")):
        assert goodput <= achieved + 5e-5  # goodput rounds to 4 places


def test_fig_serve_controller_engages_under_the_slo(space=None):
    """A tight SLO plus a controller: the degraded-mode loop must
    actually shed at the highest load levels."""
    cache = MeasurementCache(runs=SETTINGS)
    report = figserve.run_fig_serve(cache, slo=1200.0,
                                    controller_spec="p99:3000:1:3:shed")
    assert sum(report.column("shed")) > 0
    assert "controller=p99:3000:1:3:shed" in report.title
