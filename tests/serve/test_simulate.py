"""Tests for the open-loop serving simulation."""

import pytest

from repro.errors import ServeError
from repro.obs import StatsRegistry
from repro.serve.arrivals import Request
from repro.serve.control import parse_controller
from repro.serve.faults import WalkerFaultModel
from repro.serve.policies import (BatchByDeadline, BatchBySize, FifoPolicy,
                                  parse_policy)
from repro.serve.service import ServiceModel
from repro.serve.simulate import (ResilienceConfig, build_requests,
                                  run_open_loop, simulate_service)

#: A synthetic calibration: 100 cycles for one request, amortizing to
#: 70/request at batch 4 — shaped like the real Widx measurements.
MODEL = ServiceModel("synthetic", 8, {1: 100.0, 2: 160.0, 4: 280.0})


def run(rate, *, policy=None, cores=2, requests=300, seed=42, **kwargs):
    return run_open_loop(MODEL, rate=rate, num_requests=requests,
                         policy=policy or FifoPolicy(), cores=cores,
                         seed=seed, **kwargs)


# ---------------------------------------------------------------------------
# service model
# ---------------------------------------------------------------------------

def test_service_model_interpolates_and_extrapolates():
    assert MODEL.cycles_for(1) == 100.0
    assert MODEL.cycles_for(2) == 160.0
    assert MODEL.cycles_for(3) == pytest.approx(220.0)   # midpoint of 2..4
    assert MODEL.cycles_for(8) == pytest.approx(280.0 + 4 * 60.0)
    assert MODEL.saturation_rate() == pytest.approx(10.0)
    assert MODEL.saturation_rate(4) == pytest.approx(4000.0 / 280.0)


def test_service_model_validation():
    with pytest.raises(ServeError):
        ServiceModel("m", 8, {})
    with pytest.raises(ServeError):
        ServiceModel("m", 8, {0: 10.0})
    with pytest.raises(ServeError):
        ServiceModel("m", 8, {1: 0.0})
    with pytest.raises(ServeError):
        ServiceModel("m", 0, {1: 10.0})
    with pytest.raises(ServeError):
        MODEL.cycles_for(0)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_same_seed_same_result_bit_identical():
    a = run(10.0)
    b = run(10.0)
    assert a.latency.to_dict() == b.latency.to_dict()
    assert a.stats == b.stats
    assert (a.completed, a.makespan) == (b.completed, b.makespan)


def test_different_seed_different_latencies():
    assert run(10.0, seed=1).stats != run(10.0, seed=2).stats


# ---------------------------------------------------------------------------
# conservation and accounting
# ---------------------------------------------------------------------------

def test_every_request_completes_and_is_recorded():
    result = run(12.0, requests=250)
    assert result.completed == result.requests == 250
    assert result.latency.count == 250
    registry = StatsRegistry.from_dict(result.stats)
    assert registry.get("serve.completed").value == 250
    assert registry.get("serve.batches").value >= 1
    assert registry.get("serve.busy_cycles").value > 0


def test_latency_is_at_least_the_service_time():
    result = run(2.0)  # light load: mostly pure service time
    # Engine time arithmetic (arrival + delay - arrival) can lose an ulp.
    assert result.latency.min >= MODEL.cycles_for(1) * (1 - 1e-12)


def test_makespan_covers_the_last_arrival():
    result = run(10.0)
    assert result.makespan > 0
    assert result.achieved > 0


def test_achieved_is_measured_from_the_first_arrival():
    """Regression: achieved used to divide by the full makespan, so the
    idle lead-in before the first request counted as busy time and
    understated throughput at low loads and small request counts."""
    requests = [Request(seq=0, client=0, arrival=5000.0, keys=8),
                Request(seq=1, client=0, arrival=5100.0, keys=8)]
    result = simulate_service(requests, MODEL, policy=FifoPolicy(), cores=1)
    assert result.first_arrival == 5000.0
    span = result.makespan - result.first_arrival
    assert result.achieved == result.completed * 1000.0 / span
    # The old formula (divide by the whole makespan) was visibly lower.
    assert result.achieved > result.completed * 1000.0 / result.makespan


def test_achieved_is_invariant_under_a_shifted_stream():
    """Delaying every arrival by a constant must not change achieved
    throughput: the served window shifts with the work."""
    base = [Request(seq=i, client=0, arrival=100.0 * (i + 1), keys=8)
            for i in range(20)]
    shifted = [Request(seq=r.seq, client=r.client,
                       arrival=r.arrival + 40_000.0, keys=r.keys)
               for r in base]
    a = simulate_service(base, MODEL, policy=FifoPolicy(), cores=2)
    b = simulate_service(shifted, MODEL, policy=FifoPolicy(), cores=2)
    assert a.achieved == pytest.approx(b.achieved, rel=1e-12)


# ---------------------------------------------------------------------------
# open-loop load behaviour
# ---------------------------------------------------------------------------

def test_p99_weakly_non_decreasing_in_offered_load():
    saturation = 2 * MODEL.saturation_rate()
    previous = -1.0
    for fraction in (0.2, 0.4, 0.6, 0.8, 0.95, 1.2):
        result = run(fraction * saturation)
        assert result.p99 >= previous
        previous = result.p99


def test_overload_saturates_throughput_not_latency():
    """Beyond saturation the backlog (and tail) grows but achieved
    throughput tops out near capacity — the open-loop signature."""
    saturation = 2 * MODEL.saturation_rate()
    at_cap = run(0.95 * saturation, requests=400)
    beyond = run(2.0 * saturation, requests=400)
    assert beyond.p99 > 2 * at_cap.p99
    assert beyond.achieved <= saturation * 1.05
    assert beyond.achieved == pytest.approx(saturation, rel=0.15)


def test_quantiles_are_ordered():
    result = run(15.0)
    assert result.p50 <= result.p95 <= result.p99
    assert result.latency.min <= result.p50
    assert result.p99 <= result.latency.max


# ---------------------------------------------------------------------------
# batching policies under load
# ---------------------------------------------------------------------------

def test_batching_beats_fifo_on_throughput_under_overload():
    """With economies of scale in the service curve, sweeping the backlog
    in batches clears an overload faster than FIFO."""
    rate = 3 * MODEL.saturation_rate()  # far beyond 1-core FIFO capacity
    fifo = run(rate, cores=1, policy=FifoPolicy(), requests=200)
    batched = run(rate, cores=1, policy=BatchBySize(4), requests=200)
    assert batched.makespan < fifo.makespan
    assert batched.achieved > fifo.achieved


def test_deadline_batching_trades_light_load_latency():
    """At light load a deadline policy pays its hold-open delay."""
    rate = 0.2 * MODEL.saturation_rate()
    fifo = run(rate, cores=1, policy=FifoPolicy())
    held = run(rate, cores=1, policy=BatchByDeadline(400.0))
    assert held.p50 > fifo.p50


# ---------------------------------------------------------------------------
# which serve counters a run publishes
# ---------------------------------------------------------------------------

DROP_COUNTERS = ("serve.shed", "serve.expired", "serve.aborts")
SLO = 5_000.0
FAULTS = WalkerFaultModel(seed=7, rate=40.0, walkers_per_core=2)


@pytest.mark.parametrize("armed,policy,kwargs", [
    (False, "fifo", {}),
    (False, "size:4", {"resilience": ResilienceConfig()}),
    (False, "fifo", {"resilience": ResilienceConfig(
        faults=WalkerFaultModel(seed=7, rate=0.0, walkers_per_core=2))}),
    (True, "shed:64", {}),
    (True, "timeout:50000", {}),
    (True, "fifo", {"queue_depth": 1000}),
    (True, "fifo", {"resilience": ResilienceConfig(slo=SLO)}),
    (True, "fifo", {"resilience": ResilienceConfig(
        faults=FAULTS, fallback=MODEL.scaled(2.5))}),
    (True, "fifo", {"resilience": ResilienceConfig(
        slo=SLO, controller=parse_controller("p99:2000"))}),
], ids=["plain", "empty-config", "zero-rate-faults", "shed", "timeout",
        "queue-depth", "slo", "faults", "controller"])
def test_drop_counters_are_published_only_when_resilience_is_armed(
        armed, policy, kwargs):
    result = run(10.0, policy=parse_policy(policy), **kwargs)
    published = [name for name in DROP_COUNTERS if name in result.stats]
    assert published == (list(DROP_COUNTERS) if armed else [])
    resilience = kwargs.get("resilience")
    has_slo = resilience is not None and resilience.slo is not None
    assert ("serve.in_slo" in result.stats) == has_slo
    assert (result.shed, result.expired) == (0, 0)
    assert result.completed == result.requests


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_rejects_empty_request_stream():
    with pytest.raises(ServeError):
        simulate_service([], MODEL, policy=FifoPolicy(), cores=1)


def test_rejects_mismatched_keys_per_request():
    bad = [Request(seq=0, client=0, arrival=1.0, keys=99)]
    with pytest.raises(ServeError):
        simulate_service(bad, MODEL, policy=FifoPolicy(), cores=1)


def test_rejects_bad_core_and_client_counts():
    requests = build_requests(1.0, 4, 8)
    with pytest.raises(ServeError):
        simulate_service(requests, MODEL, policy=FifoPolicy(), cores=0)
    with pytest.raises(ServeError):
        build_requests(1.0, 4, 8, clients=0)
    with pytest.raises(ServeError):
        build_requests(1.0, 2, 8, clients=3)
    with pytest.raises(ServeError):
        build_requests(1.0, 4, 8, arrival="uniform")


def test_multi_client_streams_merge_into_one_ordered_stream():
    requests = build_requests(4.0, 30, 8, clients=3, seed=5)
    assert len(requests) == 30
    assert [r.seq for r in requests] == list(range(30))
    assert all(a.arrival <= b.arrival
               for a, b in zip(requests, requests[1:]))
    assert {r.client for r in requests} == {0, 1, 2}
    result = simulate_service(requests, MODEL, policy=FifoPolicy(), cores=2)
    assert result.completed == 30
