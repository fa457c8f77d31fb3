"""Smoke tests for the micro-benchmark CLI (``python -m repro.bench``).

The full suite (all benchmarks, floor enforcement) runs in CI's bench
job; these cover the command paths quickly with one benchmark and one
repeat.
"""

import json

import pytest

from repro.bench import SCHEMA, run_benchmarks
from repro.bench.__main__ import main


def test_table_run_prints_every_selected_benchmark(capsys):
    code = main(["--only", "engine_dispatch", "--repeats", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "engine_dispatch" in out
    assert "speedup" in out


def test_check_passes_when_fingerprints_match(tmp_path, capsys):
    """The CI guard's happy path, made wall-clock-independent: the
    baseline carries this run's own (machine-independent) fingerprint
    and a speedup low enough that timing noise cannot trip the
    regression check — only a fingerprint mismatch could fail."""
    result = run_benchmarks(repeats=1, only=["engine_dispatch"])[0]
    entry = result.to_dict()
    entry["speedup"] = 0.01
    baseline = {"schema": SCHEMA, "repeats": 1,
                "benchmarks": {result.name: entry}}
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(baseline))
    code = main(["--only", "engine_dispatch", "--repeats", "1",
                 "--check", str(path)])
    assert code == 0
    assert "within tolerance" in capsys.readouterr().out


def test_committed_baseline_fingerprints_match(capsys):
    """The committed BENCH_sim.json's simulated-result fingerprints are
    machine-independent and must match a fresh run exactly.  (Speedups
    are wall-clock and only checked in the CI bench job.)"""
    result = run_benchmarks(repeats=1, only=["engine_dispatch"])[0]
    baseline = json.load(open("BENCH_sim.json"))
    assert baseline["schema"] == SCHEMA
    entry = baseline["benchmarks"][result.name]
    assert entry["fingerprint"] == result.fingerprint


def test_committed_serve_resilience_fingerprint_matches(capsys):
    """Same contract for the serving bench: it only reports a ratio
    after proving the SLO-armed sweep bit-identical to the one with
    nothing armed, and its sweep, faulted-sweep and live-replay fingerprints must
    all match the baseline."""
    result = run_benchmarks(repeats=1, only=["serve_resilience"])[0]
    baseline = json.load(open("BENCH_sim.json"))
    entry = baseline["benchmarks"][result.name]
    assert entry["fingerprint"] == result.fingerprint


def test_check_fails_on_fingerprint_drift(tmp_path, capsys):
    result = run_benchmarks(repeats=1, only=["engine_dispatch"])[0]
    entry = result.to_dict()
    entry["fingerprint"] = "0" * len(entry["fingerprint"])
    baseline = {"schema": SCHEMA, "repeats": 1,
                "benchmarks": {result.name: entry}}
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(baseline))
    code = main(["--only", "engine_dispatch", "--repeats", "1",
                 "--check", str(path)])
    assert code == 1
    assert "fingerprint changed" in capsys.readouterr().err


def test_check_rejects_wrong_schema(tmp_path, capsys):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"schema": "bogus/9", "benchmarks": {}}))
    code = main(["--only", "engine_dispatch", "--repeats", "1",
                 "--check", str(path)])
    assert code == 1
    assert "schema" in capsys.readouterr().err


def test_output_and_check_are_mutually_exclusive(tmp_path):
    with pytest.raises(SystemExit):
        main(["--output", "a.json", "--check", "b.json"])
    with pytest.raises(SystemExit):
        main(["--repeats", "0"])
