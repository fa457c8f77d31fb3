"""Acceptance tests for the resilience figure (fig-resilience)."""

import io

import pytest

from repro.harness import figresilience, figserve
from repro.harness.cli import main
from repro.harness.runner import MeasurementCache, RunSettings

SETTINGS = RunSettings(probes=400, warmup=100, seed=42)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def report_body(text):
    return [line for line in text.splitlines() if not line.startswith("[")]


@pytest.fixture(scope="module")
def report():
    """One warm fig-resilience report shared by the read-only asserts."""
    cache = MeasurementCache(runs=SETTINGS)
    return figresilience.run_fig_resilience(cache)


def test_reuses_the_fig_serve_calibration_points():
    ours = {p.cache_tuple() for p in figresilience.points_fig_resilience()}
    theirs = {p.cache_tuple() for p in figserve.points_fig_serve()}
    assert ours == theirs   # a warm fig-serve cache renders this figure


def test_grid_covers_every_backend_rate_and_load(report):
    expected = len(figresilience.FAULT_BACKENDS) \
        * len(figresilience.FAULT_RATES) \
        * len(figresilience.LOAD_FRACTIONS)
    assert len(report.column("backend")) == expected
    assert set(report.column("rate")) == set(figresilience.FAULT_RATES)
    assert set(report.column("load")) == set(figresilience.LOAD_FRACTIONS)
    # Only walker-backed backends are swept; in-order is the fallback.
    assert all(label.startswith("widx") for label in report.column("backend"))


def test_faults_land_at_positive_rates(report):
    rows = list(zip(report.column("rate"), report.column("faults")))
    assert all(faults == 0 for rate, faults in rows if rate == 0.0)
    assert any(faults > 0 for rate, faults in rows if rate > 0.0)


def test_conservation_holds_in_every_row(report):
    from repro.harness.figserve import SWEEP_REQUESTS
    for served, shed_frac, expired in zip(report.column("served"),
                                          report.column("shed_frac"),
                                          report.column("expired")):
        shed = round(shed_frac * SWEEP_REQUESTS)
        assert served + shed + expired == SWEEP_REQUESTS


def test_fault_free_rows_dominate_every_faulted_row(report):
    """Goodput under faults never beats the fault-free run of the same
    backend and load — capacity only degrades."""
    rows = list(zip(report.column("backend"), report.column("rate"),
                    report.column("load"), report.column("goodput")))
    clean = {(b, load): g for b, rate, load, g in rows if rate == 0.0}
    for backend, rate, load, goodput in rows:
        if rate > 0.0:
            assert goodput <= clean[(backend, load)], \
                f"{backend} load {load} rate {rate}: {goodput} beats clean"


def test_faults_visibly_degrade_the_most_walker_heavy_backend(report):
    """widx-4 has the most walkers to lose; at the highest rate its
    goodput must measurably drop (not a within-noise wiggle)."""
    rows = list(zip(report.column("backend"), report.column("rate"),
                    report.column("load"), report.column("goodput")))
    top_rate = max(figresilience.FAULT_RATES)
    for load in figresilience.LOAD_FRACTIONS:
        clean = next(g for b, r, l, g in rows
                     if b == "widx-4" and r == 0.0 and l == load)
        worst = next(g for b, r, l, g in rows
                     if b == "widx-4" and r == top_rate and l == load)
        assert worst < 0.75 * clean


def test_report_is_deterministic_across_fresh_caches():
    a = figresilience.run_fig_resilience(MeasurementCache(runs=SETTINGS))
    b = figresilience.run_fig_resilience(MeasurementCache(runs=SETTINGS))
    assert a.format() == b.format()


def test_notes_document_slo_and_fallback(report):
    text = "\n".join(report.notes)
    assert "fallback: inorder" in text
    assert "deaths per walker per megacycle" in text
    assert "non-increasing" in text


@pytest.mark.slow
def test_cli_serial_jobs_and_cache_hit_render_bit_identical(tmp_path):
    args = ("--figure", "fig-resilience", "--probes", "400",
            "--warmup", "100")
    code, serial = run_cli(*args)
    assert code == 0
    cache_dir = str(tmp_path / "cache")
    code, jobs = run_cli(*args, "--jobs", "4", "--cache-dir", cache_dir)
    assert code == 0
    code, hit = run_cli(*args, "--jobs", "4", "--cache-dir", cache_dir)
    assert code == 0
    assert report_body(serial) == report_body(jobs) == report_body(hit)
    assert "12 cached, 0 measured" in hit
