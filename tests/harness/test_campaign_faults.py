"""Fault-tolerance tests for the campaign scheduler.

Each test injects one deterministic fault class (see
``repro.harness.chaos``) and asserts the campaign's advertised recovery:
retry with backoff for kills and errors, progress-timeout reaping for
hangs, degradation to serial when workers keep dying, and a failure
manifest plus poisoned cache entries when retries run out.
"""

import pytest

from repro.errors import CampaignInterrupted, MeasurementFailed
from repro.harness import campaign as campaign_module
from repro.harness.campaign import (Campaign, RetryPolicy, baseline_point,
                                    kernel_points)
from repro.harness.cachestore import encode_measurement
from repro.harness.chaos import ChaosSpec
from repro.harness.runner import MeasurementCache, RunSettings

# Campaign fault drills re-run full figure campaigns.
pytestmark = pytest.mark.slow

RUNS = RunSettings(probes=400, warmup=100)

#: Two workloads so the parallel scheduler has two groups to fan out.
#: Small/Medium measure in well under a second each, so a progress
#: timeout of a few seconds cannot reap a *healthy* worker even on a
#: single-core CI machine where parallel workers contend for the CPU.
POINTS = kernel_points(["Small", "Medium"], [1])


def _fresh_cache():
    return MeasurementCache(runs=RUNS)


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(point_timeout=0)
    with pytest.raises(ValueError):
        RetryPolicy(degrade_after=0)


def test_backoff_is_exponential_and_capped():
    policy = RetryPolicy(backoff_base=0.5, backoff_cap=3.0)
    assert policy.backoff(0) == 0.0
    assert policy.backoff(1) == 0.5
    assert policy.backoff(2) == 1.0
    assert policy.backoff(3) == 2.0
    assert policy.backoff(4) == 3.0  # capped
    assert policy.backoff(10) == 3.0


def test_worker_kill_retried_and_recovered():
    cache = _fresh_cache()
    chaos = ChaosSpec(seed=7, kill_rate=1.0, max_injections=1)
    campaign = Campaign(
        cache, policy=RetryPolicy(max_retries=2, backoff_base=0.01,
                                  degrade_after=50),
        chaos=chaos)
    outcome = campaign.run(POINTS, jobs=2)
    assert outcome.ok
    assert outcome.measured_points == len(POINTS)
    assert outcome.retries >= 1
    assert not outcome.degraded_to_serial
    assert not outcome.failures


def test_hung_worker_reaped_by_progress_timeout():
    cache = _fresh_cache()
    chaos = ChaosSpec(seed=7, hang_rate=1.0, max_injections=1,
                      hang_seconds=300.0)
    # The timeout must exceed a legitimate measurement (a few seconds at
    # these probe counts) while still reaping the 300s hang quickly.
    campaign = Campaign(
        cache, policy=RetryPolicy(max_retries=2, backoff_base=0.01,
                                  point_timeout=10.0, degrade_after=50),
        chaos=chaos)
    outcome = campaign.run(POINTS, jobs=2)
    assert outcome.ok
    assert outcome.measured_points == len(POINTS)
    assert outcome.retries >= 1


def test_retry_exhaustion_poisons_and_manifests():
    cache = _fresh_cache()
    chaos = ChaosSpec(seed=7, error_rate=1.0, max_injections=99)
    campaign = Campaign(
        cache, policy=RetryPolicy(max_retries=1, backoff_base=0.0),
        chaos=chaos)
    outcome = campaign.run(POINTS, jobs=1)  # serial: errors inject there too
    assert not outcome.ok
    assert len(outcome.failures) == len(POINTS)
    assert outcome.measured_points == 0
    for failure in outcome.failures:
        assert failure.kind == "error"
        assert failure.attempts == 2  # initial try + 1 retry
        assert "ChaosError" in failure.detail

    # Poisoned points fail fast instead of silently re-simulating.
    with pytest.raises(MeasurementFailed, match="poisoned"):
        cache.measure(baseline_point("kernel", "Small", "ooo"))

    # A new campaign is a fresh chance: poison clears, points measure.
    clean = Campaign(cache, policy=RetryPolicy(max_retries=0))
    recovered = clean.run(POINTS, jobs=1)
    assert recovered.ok
    assert recovered.measured_points == len(POINTS)
    assert cache.measure(
        baseline_point("kernel", "Small", "ooo")).cycles_per_tuple > 0


def test_persistent_worker_failure_degrades_to_serial():
    cache = _fresh_cache()
    # Unlimited kills: every worker attempt dies, so only the serial
    # executor (which never runs worker fault sites) can finish.
    chaos = ChaosSpec(seed=7, kill_rate=1.0, max_injections=10_000)
    campaign = Campaign(
        cache, policy=RetryPolicy(max_retries=50, backoff_base=0.0,
                                  degrade_after=2),
        chaos=chaos)
    outcome = campaign.run(POINTS, jobs=2)
    assert outcome.degraded_to_serial
    assert outcome.ok
    assert outcome.measured_points == len(POINTS)


def test_chaos_recovered_results_bit_identical_to_fault_free():
    clean_cache = _fresh_cache()
    Campaign(clean_cache).run(POINTS, jobs=1)

    chaos_cache = _fresh_cache()
    chaos = ChaosSpec(seed=13, kill_rate=0.6, error_rate=0.6,
                      max_injections=1)
    outcome = Campaign(
        chaos_cache, policy=RetryPolicy(max_retries=3, backoff_base=0.01,
                                        degrade_after=50),
        chaos=chaos).run(POINTS, jobs=2)
    assert outcome.ok

    for point in POINTS:
        clean = encode_measurement(clean_cache.measure(point))
        recovered = encode_measurement(chaos_cache.measure(point))
        assert clean == recovered, point


def test_keyboard_interrupt_parallel_raises_campaign_interrupted(monkeypatch):
    cache = _fresh_cache()

    def interrupt(*_args, **_kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(campaign_module.mpconnection, "wait", interrupt)
    campaign = Campaign(cache)
    with pytest.raises(CampaignInterrupted) as excinfo:
        campaign.run(POINTS, jobs=2)
    assert "resume" in str(excinfo.value)
    assert excinfo.value.total == len(POINTS)


def test_keyboard_interrupt_serial_raises_campaign_interrupted(monkeypatch):
    cache = _fresh_cache()

    def interrupt(*_args, **_kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cache, "measure", interrupt)
    campaign = Campaign(cache)
    with pytest.raises(CampaignInterrupted):
        campaign.run(POINTS, jobs=1)


def test_chaos_killed_serve_point_retries_bit_identical():
    """The serve op rides the same retry/chaos plumbing as every other
    campaign op: a worker killed while calibrating a service point is
    retried, and the recovered measurement is bit-identical to a
    fault-free campaign's."""
    from repro.harness.campaign import serve_point

    serve_points = [serve_point("kernel", "Small", "widx", 8, 1, "shared"),
                    serve_point("kernel", "Small", "inorder", 8)]

    clean_cache = _fresh_cache()
    Campaign(clean_cache).run(serve_points, jobs=1)

    chaos_cache = _fresh_cache()
    chaos = ChaosSpec(seed=11, kill_rate=1.0, error_rate=0.5,
                      max_injections=1, target="serve")
    outcome = Campaign(
        chaos_cache, policy=RetryPolicy(max_retries=3, backoff_base=0.01,
                                        degrade_after=50),
        chaos=chaos).run(serve_points, jobs=2)
    assert outcome.ok
    assert outcome.measured_points == len(serve_points)

    for point in serve_points:
        clean = encode_measurement(clean_cache.measure(point))
        recovered = encode_measurement(chaos_cache.measure(point))
        assert clean == recovered, point
