"""Tests for admission control, load shedding, and request deadlines."""

import pytest

from repro.errors import ServeError
from repro.obs import StatsRegistry
from repro.serve.policies import FifoPolicy, parse_policy
from repro.serve.service import ServiceModel
from repro.serve.simulate import (ResilienceConfig, run_open_loop,
                                  simulate_service)
from repro.serve.arrivals import Request

MODEL = ServiceModel("synthetic", 8, {1: 100.0, 2: 160.0, 4: 280.0})


def run(rate, *, policy=None, cores=2, requests=300, seed=42, **kwargs):
    return run_open_loop(MODEL, rate=rate, num_requests=requests,
                         policy=policy or FifoPolicy(), cores=cores,
                         seed=seed, **kwargs)


# ---------------------------------------------------------------------------
# clean-path parity: an armed feature that never fires leaves the run
# bit-identical to one with nothing armed
# ---------------------------------------------------------------------------

def test_slo_only_run_matches_plain_run_bit_identical():
    plain = run(10.0)
    resilient = run(10.0, resilience=ResilienceConfig(slo=5000.0))
    assert resilient.latency.to_dict() == plain.latency.to_dict()
    assert resilient.makespan == plain.makespan
    assert resilient.completed == plain.completed
    assert (resilient.shed, resilient.expired) == (0, 0)


def test_unreached_shed_depth_matches_plain_run():
    """A shed bound deeper than the worst backlog never fires, and the
    run is bit-identical to the plain path."""
    plain = run(10.0)
    shed = run(10.0, policy=parse_policy("shed:100000"))
    assert shed.latency.to_dict() == plain.latency.to_dict()
    assert shed.makespan == plain.makespan
    assert shed.shed == 0


def test_slo_accounting_counts_in_slo_completions():
    # An SLO above the worst latency counts everything; below the best
    # service time, nothing; in between, strictly some of each.
    everything = run(10.0, resilience=ResilienceConfig(slo=1e12))
    assert everything.in_slo == everything.completed
    assert everything.goodput == pytest.approx(everything.achieved)
    nothing = run(10.0, resilience=ResilienceConfig(slo=1.0))
    assert nothing.in_slo == 0
    assert nothing.goodput == 0.0
    some = run(10.0, resilience=ResilienceConfig(slo=everything.p50))
    assert 0 < some.in_slo < some.completed
    assert 0.0 < some.goodput < some.achieved
    span = some.makespan - some.first_arrival
    assert some.goodput == pytest.approx(some.in_slo * 1000.0 / span)


# ---------------------------------------------------------------------------
# shedding
# ---------------------------------------------------------------------------

def test_overload_with_shed_policy_sheds_and_conserves():
    rate = 3 * 2 * MODEL.saturation_rate()
    result = run(rate, policy=parse_policy("shed:4"), requests=400)
    assert result.shed > 0
    assert result.completed + result.shed + result.expired == 400
    registry = StatsRegistry.from_dict(result.stats)
    assert registry.get("serve.shed").value == result.shed


def test_shedding_bounds_the_tail_under_overload():
    """Shedding trades completions for latency: the shed run's p99 is
    bounded by the (small) queue it admits into."""
    rate = 3 * 2 * MODEL.saturation_rate()
    unbounded = run(rate, requests=400)
    shed = run(rate, policy=parse_policy("shed:4"), requests=400)
    assert shed.p99 < unbounded.p99
    assert shed.completed < 400
    assert shed.shed_fraction > 0


def test_tighter_shed_depth_sheds_weakly_more():
    rate = 3 * 2 * MODEL.saturation_rate()
    loose = run(rate, policy=parse_policy("shed:64"), requests=400)
    tight = run(rate, policy=parse_policy("shed:4"), requests=400)
    assert tight.shed >= loose.shed


def test_queue_depth_with_shed_wrapper_takes_the_tighter_bound():
    rate = 3 * 2 * MODEL.saturation_rate()
    a = run(rate, policy=parse_policy("shed:100"), queue_depth=4,
            requests=400)
    b = run(rate, policy=parse_policy("shed:4"), requests=400)
    assert a.shed == b.shed
    assert a.latency.to_dict() == b.latency.to_dict()


# ---------------------------------------------------------------------------
# the admission-queue-full contract (satellite): a full queue without a
# declared shed depth must raise, never silently block
# ---------------------------------------------------------------------------

def test_full_queue_without_shed_policy_raises_serve_error():
    rate = 3 * 2 * MODEL.saturation_rate()
    with pytest.raises(ServeError, match="shed"):
        run(rate, queue_depth=2, requests=400)


def test_full_queue_error_names_the_queue_and_the_fix():
    rate = 3 * 2 * MODEL.saturation_rate()
    with pytest.raises(ServeError, match=r"admit.*full.*never block"):
        run(rate, queue_depth=2, requests=400)


def test_queue_depth_validation():
    with pytest.raises(ServeError):
        run(10.0, queue_depth=0)


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------

def test_timeout_policy_expires_late_requests_and_conserves():
    rate = 3 * 2 * MODEL.saturation_rate()
    result = run(rate, policy=parse_policy("timeout:2000"), requests=400)
    assert result.expired > 0
    assert result.completed + result.shed + result.expired == 400
    # Every *served* request met its deadline: expiry covers in-service
    # doom, so no completion can exceed timeout.
    assert result.latency.max <= 2000.0
    registry = StatsRegistry.from_dict(result.stats)
    assert registry.get("serve.expired").value == result.expired


def test_unreachable_timeout_expires_nothing():
    plain = run(10.0)
    result = run(10.0, policy=parse_policy("timeout:1e9"))
    assert result.expired == 0
    assert result.latency.to_dict() == plain.latency.to_dict()


def test_shed_and_timeout_compose():
    rate = 3 * 2 * MODEL.saturation_rate()
    result = run(rate, policy=parse_policy("shed:8:timeout:2500"),
                 requests=400)
    assert result.shed > 0
    assert result.completed + result.shed + result.expired == 400
    assert result.latency.max <= 2500.0


def test_expired_requests_never_occupy_service_capacity():
    """A request that cannot meet its deadline is dropped before the
    core commits cycles to it, so the served requests' throughput does
    not degrade as the timeout tightens."""
    rate = 3 * 2 * MODEL.saturation_rate()
    tight = run(rate, policy=parse_policy("timeout:1500"), requests=400)
    loose = run(rate, policy=parse_policy("timeout:4000"), requests=400)
    assert tight.expired >= loose.expired
    assert tight.completed <= loose.completed


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_resilient_run_is_deterministic():
    rate = 3 * 2 * MODEL.saturation_rate()
    a = run(rate, policy=parse_policy("shed:8:timeout:3000"), requests=400)
    b = run(rate, policy=parse_policy("shed:8:timeout:3000"), requests=400)
    assert a.latency.to_dict() == b.latency.to_dict()
    assert (a.completed, a.shed, a.expired) == (b.completed, b.shed,
                                                b.expired)
    assert a.stats == b.stats


def test_shifted_stream_sheds_identically():
    """Admission decisions depend on backlog, not absolute time."""
    base = [Request(seq=i, client=0, arrival=10.0 * i, keys=8)
            for i in range(100)]
    shifted = [Request(seq=r.seq, client=r.client,
                       arrival=r.arrival + 50_000.0, keys=r.keys)
               for r in base]
    policy_a = parse_policy("shed:3")
    policy_b = parse_policy("shed:3")
    a = simulate_service(base, MODEL, policy=policy_a, cores=1)
    b = simulate_service(shifted, MODEL, policy=policy_b, cores=1)
    assert a.shed == b.shed
    assert a.completed == b.completed
