"""Tests for the command-line driver."""

import io

import pytest

from repro.harness.cli import EXPERIMENTS, list_experiments, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_list():
    code, text = run_cli("--list")
    assert code == 0
    for name in EXPERIMENTS:
        assert name in text


def test_no_arguments_is_an_error():
    code, text = run_cli()
    assert code == 2
    assert "nothing to do" in text


def test_unknown_figure_rejected():
    code, text = run_cli("--figure", "99z")
    assert code == 2
    assert "unknown figure '99z'" in text


def test_single_analytic_figure():
    code, text = run_cli("--figure", "4b")
    assert code == 0
    assert "MSHR" in text
    assert "[4b:" in text


def test_fast_runs_all_analytic_experiments():
    code, text = run_cli("--fast")
    assert code == 0
    for name in ("2a", "2b", "4a", "4c", "5", "area"):
        assert f"[{name}:" in text


def test_probes_must_exceed_warmup():
    code, text = run_cli("--figure", "4b", "--probes", "100",
                         "--warmup", "200")
    assert code == 2


def test_repeatable_figure_flag():
    code, text = run_cli("--figure", "4b", "--figure", "4c")
    assert code == 0
    assert "[4b:" in text and "[4c:" in text


def test_simulated_figure_with_tiny_settings():
    code, text = run_cli("--figure", "8b", "--probes", "500",
                         "--warmup", "120")
    assert code == 0
    assert "Figure 8b" in text


def test_experiment_registry_covers_every_paper_artifact():
    expected = {"2a", "2b", "4a", "4b", "4c", "5", "8a", "8b", "9a", "9b",
                "10", "11", "query-level", "area", "serve", "resilience",
                "pim", "indexes"}
    assert set(EXPERIMENTS) == expected


def test_list_experiments_marks_kinds():
    text = list_experiments()
    assert "analytic" in text and "simulation" in text


def test_every_simulated_experiment_declares_points():
    for name, (needs, _runner, points) in EXPERIMENTS.items():
        if needs:
            declared = points()
            assert declared, f"{name} declares no measurement points"
        else:
            assert points is None


def test_jobs_must_be_positive():
    code, _text = run_cli("--figure", "4b", "--jobs", "0")
    assert code == 2


def test_campaign_pre_pass_reported():
    code, text = run_cli("--figure", "8b", "--probes", "400",
                         "--warmup", "100", "--jobs", "1")
    assert code == 0
    assert "campaign: 12 points, 0 cached, 12 measured" in text


def test_cache_dir_second_run_hits(tmp_path):
    """The acceptance property: a repeat run with --cache-dir re-measures
    nothing and prints a byte-identical report."""
    args = ("--figure", "8b", "--probes", "400", "--warmup", "100",
            "--cache-dir", str(tmp_path), "--jobs", "1")
    code1, first = run_cli(*args)
    code2, second = run_cli(*args)
    assert code1 == code2 == 0
    assert "12 measured" in first
    assert "12 cached, 0 measured" in second

    def report_body(text):
        lines = text.splitlines()
        return [line for line in lines
                if not line.startswith("[")]  # drop timing/campaign lines

    assert report_body(first) == report_body(second)


def test_fig_serve_token_resolves():
    from repro.harness.cli import resolve_figures
    assert resolve_figures(["fig-serve"]) == ["serve"]
    assert resolve_figures(["serve"]) == ["serve"]


def test_fig_pim_token_resolves():
    from repro.harness.cli import resolve_figures
    assert resolve_figures(["fig-pim"]) == ["pim"]
    assert resolve_figures(["pim"]) == ["pim"]
    assert resolve_figures(["FIG-PIM"]) == ["pim"]


def test_fig_indexes_token_resolves():
    from repro.harness.cli import resolve_figures
    assert resolve_figures(["fig-indexes"]) == ["indexes"]
    assert resolve_figures(["indexes"]) == ["indexes"]
    assert resolve_figures(["FIG-INDEXES"]) == ["indexes"]


def test_bare_figure_numbers_still_expand_to_panels():
    from repro.harness.cli import resolve_figures
    assert resolve_figures(["8"]) == ["8a", "8b"]
    assert resolve_figures(["fig9"]) == ["9a", "9b"]
    assert resolve_figures(["10"]) == ["10"]
    assert resolve_figures(["8", "8b"]) == ["8a", "8b"]  # dedup, first wins


def test_nonnumeric_prefixes_no_longer_fuzzy_match():
    """Regression: 's' used to silently expand to 'serve'; every
    non-digit token must now match an experiment id exactly, and the
    rejection names the valid ids."""
    from repro.harness.cli import resolve_figures
    for token in ("s", "serv", "p", "pi", "quer", ""):
        with pytest.raises(ValueError) as excinfo:
            resolve_figures([token])
        message = str(excinfo.value)
        assert f"unknown figure {token!r}" in message
        assert "pim" in message and "serve" in message  # lists valid ids


def test_unknown_figure_error_lists_choices_on_the_cli():
    code, text = run_cli("--figure", "s")
    assert code == 2
    assert "unknown figure 's'" in text
    assert "choose from" in text
    assert "pim" in text


def test_bad_serve_policy_rejected_before_any_measurement():
    code, text = run_cli("--figure", "serve", "--serve-policy", "size:0")
    assert code == 2
    assert "batch" in text or "policy" in text


def test_chaos_rate_validated():
    code, _text = run_cli("--figure", "8b", "--chaos", "1",
                          "--chaos-rate", "1.5")
    assert code == 2


def test_chaos_flag_threads_through_with_a_reaper(monkeypatch):
    import repro.harness.cli as cli
    captured = {}

    def fake_run(names, settings, out=None, chaos=None, policy=None,
                 **kwargs):
        captured["chaos"] = chaos
        captured["policy"] = policy
        return []

    monkeypatch.setattr(cli, "run_experiments", fake_run)
    code, _ = run_cli("--figure", "8b", "--chaos", "9",
                      "--chaos-rate", "0.4")
    assert code == 0
    chaos = captured["chaos"]
    assert chaos is not None and chaos.seed == 9
    assert chaos.kill_rate == chaos.hang_rate == chaos.error_rate == 0.4
    # Injected hangs need a progress timeout to be recoverable, so the
    # CLI supplies one when the user did not.
    assert captured["policy"].point_timeout is not None


def test_chaos_zero_rate_smoke_end_to_end(tmp_path):
    """The --chaos plumbing (ChaosStore wrap, spec construction) at an
    injection rate of zero: the full path runs and the figure renders."""
    code, text = run_cli("--figure", "8b", "--probes", "400",
                         "--warmup", "100", "--jobs", "1",
                         "--cache-dir", str(tmp_path),
                         "--chaos", "3", "--chaos-rate", "0.0")
    assert code == 0
    assert "Figure 8b" in text


def test_no_cache_disables_the_store(tmp_path, monkeypatch):
    import repro.harness.cli as cli
    captured = {}

    def fake_run(names, settings, out=None, store=None, jobs=1, **kwargs):
        captured["store"] = store
        captured["jobs"] = jobs
        return []

    monkeypatch.setattr(cli, "run_experiments", fake_run)
    code, _ = run_cli("--figure", "8b", "--cache-dir", str(tmp_path),
                      "--no-cache", "--jobs", "3")
    assert code == 0
    assert captured["store"] is None
    assert captured["jobs"] == 3

    code, _ = run_cli("--figure", "8b", "--cache-dir", str(tmp_path),
                      "--jobs", "2")
    assert code == 0
    assert captured["store"] is not None
    assert captured["store"].directory == str(tmp_path)
