"""Differential tests: the serving DES vs an independent queue replay.

Each core of the open-loop serving run is an independent single-server
queue: requests go round-robin by sequence number, one admission queue
and one server per core, and nothing couples the cores.  That makes the
whole run computable by a short per-core recursion with no event
engine at all — :func:`replay` below.  The DES must agree with it on
every served, shed and expired request, every batch, and the latency
distribution, across policy x cores x load grids and the admission
wrappers.

The replay advances time with plain additions while the engine reaches
each arrival through relative delays, so times agree to rounding, not
to the bit: latencies and cycle sums compare with a tight relative
tolerance, counts compare exactly.  Poisson arrival streams keep events
on distinct instants, so no result here depends on tie-breaking.
"""

import math
from collections import deque
from dataclasses import dataclass, field
from typing import List

import pytest

from repro.errors import ServeError
from repro.serve.arrivals import Request
from repro.serve.core import ResilienceConfig
from repro.serve.policies import (AdmissionWrapper, BatchByDeadline,
                                  BatchBySize, FifoPolicy, ShedPolicy,
                                  TimeoutPolicy, parse_policy)
from repro.serve.service import ServiceModel
from repro.serve.simulate import build_requests, simulate_service

MODEL = ServiceModel("synthetic", 8, {1: 100.0, 2: 160.0, 4: 280.0})

#: Relative tolerance for times: rounding differences only.
REL = 1e-9


@dataclass
class Replay:
    """What one run should produce, per the queue recursion."""
    latencies: List[float] = field(default_factory=list)
    batches: int = 0
    busy_cycles: float = 0.0
    shed: int = 0
    expired: int = 0
    admitted: List[int] = field(default_factory=list)   # per core
    makespan: float = 0.0


def unwrap(policy):
    """Split a policy into (shed depth, timeout, base policy)."""
    depth = timeout = None
    while isinstance(policy, AdmissionWrapper):
        if isinstance(policy, ShedPolicy):
            depth = policy.depth
        elif isinstance(policy, TimeoutPolicy):
            timeout = policy.cycles
        policy = policy.inner
    return depth, timeout, policy


def replay(requests, model, policy, cores, queue_depth=None) -> Replay:
    """Serve ``requests`` with the per-core recursion (no event engine)."""
    depth, timeout, base = unwrap(policy)
    if queue_depth is not None:
        depth = queue_depth if depth is None else min(depth, queue_depth)
    if isinstance(base, FifoPolicy):
        wait, cap = 0.0, 1
    elif isinstance(base, BatchBySize):
        wait, cap = 0.0, base.max_batch
    elif isinstance(base, BatchByDeadline):
        wait, cap = base.wait, base.max_batch
    else:  # pragma: no cover - the grids use only the built-in policies
        raise AssertionError(f"no replay for {base!r}")

    out = Replay(admitted=[0] * cores)
    last_event = 0.0
    for core in range(cores):
        pending = deque(r for r in requests if r.seq % cores == core)
        queue: deque = deque()

        def admit_through(now):
            # Arrivals up to ``now`` join the queue, or are shed when
            # they find ``depth`` requests already waiting.
            while pending and pending[0].arrival <= now:
                request = pending.popleft()
                if depth is not None and len(queue) >= depth:
                    out.shed += 1
                else:
                    queue.append(request)
                    out.admitted[core] += 1

        free = 0.0
        while True:
            admit_through(free)
            if queue:
                start = free
            elif pending:
                start = pending[0].arrival   # the idle server takes it
                admit_through(start)
            else:
                break
            batch = [queue.popleft()]
            if wait > 0:
                # The hold ends on an engine event even if the whole
                # batch then expires, so it bounds the makespan too.
                start += wait
                admit_through(start)
                last_event = max(last_event, start)
            while (cap is None or len(batch) < cap) and queue:
                batch.append(queue.popleft())
            if timeout is not None:
                while batch:
                    cycles = model.cycles_for(len(batch))
                    alive = [r for r in batch
                             if r.arrival + timeout >= start + cycles]
                    out.expired += len(batch) - len(alive)
                    if len(alive) == len(batch):
                        break
                    batch = alive
                if not batch:
                    free = start
                    continue
            cycles = model.cycles_for(len(batch))
            done = start + cycles
            out.batches += 1
            out.busy_cycles += cycles
            out.latencies.extend(done - r.arrival for r in batch)
            free = done
            last_event = max(last_event, done)
    out.makespan = max(last_event, max(r.arrival for r in requests))
    return out


def assert_matches(result, expected: Replay, requests):
    latencies = sorted(expected.latencies)
    served = len(latencies)
    assert result.completed == served
    assert result.shed == expected.shed
    assert result.expired == expected.expired
    assert served + expected.shed + expected.expired == len(requests)
    assert result.stats["serve.batches"]["value"] == expected.batches
    assert result.stats["serve.busy_cycles"]["value"] == \
        pytest.approx(expected.busy_cycles, rel=REL)
    for core, admitted in enumerate(expected.admitted):
        key = f"serve.core{core}.queue.total_puts"
        assert result.stats[key]["value"] == admitted, key
    assert result.makespan == pytest.approx(expected.makespan, rel=REL)
    distribution = result.latency
    assert distribution.count == served
    if served:
        assert distribution.min == pytest.approx(latencies[0], rel=REL)
        assert distribution.max == pytest.approx(latencies[-1], rel=REL)
        assert distribution.total == pytest.approx(sum(latencies), rel=REL)
        # Quantiles come from histogram buckets 2**-14 wide (relative).
        for q in (0.5, 0.95, 0.99):
            rank = max(1, math.ceil(q * served))
            assert distribution.quantile(q) == \
                pytest.approx(latencies[rank - 1], rel=2.0 ** -13)


def serve(requests, spec, cores, **kwargs):
    policy = parse_policy(spec)
    return simulate_service(requests, MODEL, policy=policy, cores=cores,
                            **kwargs), policy


# ---------------------------------------------------------------------------
# the replay itself, on streams small enough to work by hand
# ---------------------------------------------------------------------------

def make_requests(arrivals):
    return [Request(seq=i, client=0, arrival=t, keys=8)
            for i, t in enumerate(arrivals)]


def test_replay_fifo_by_hand():
    # One core: [10, 110), then 50 waits for 110 -> [110, 210), then
    # 500 finds the server idle -> [500, 600).
    expected = replay(make_requests([10.0, 50.0, 500.0]), MODEL,
                      FifoPolicy(), cores=1)
    assert expected.latencies == [100.0, 160.0, 100.0]
    assert expected.batches == 3
    assert expected.makespan == 600.0


def test_replay_size_batching_and_shedding_by_hand():
    # Busy [10, 110): 20, 30 and 40 queue; shed:2 turns 40 away, and
    # size:4 serves 20 and 30 together in [110, 270).
    requests = make_requests([10.0, 20.0, 30.0, 40.0])
    expected = replay(requests, MODEL, parse_policy("shed:2:size:4"),
                      cores=1)
    assert expected.latencies == [100.0, 250.0, 240.0]
    assert (expected.batches, expected.shed) == (2, 1)
    assert expected.admitted == [3]


# ---------------------------------------------------------------------------
# plain runs: policy x cores x load grid on Poisson arrivals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("policy_spec",
                         ["fifo", "size:1", "size:4", "size:16",
                          "deadline:300", "deadline:300:4"])
@pytest.mark.parametrize("cores", [1, 2, 4])
@pytest.mark.parametrize("rate", [2.0, 12.0, 40.0])
def test_poisson_grid_matches_replay(policy_spec, cores, rate):
    requests = build_requests(rate, 250, 8, clients=3, seed=9)
    result, policy = serve(requests, policy_spec, cores, offered=rate)
    assert_matches(result, replay(requests, MODEL, policy, cores), requests)


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("rate", [3.0, 10.0, 25.0])
def test_deterministic_fifo_matches_replay(cores, rate):
    """Evenly spaced arrivals can tie with completions, but a one-at-a-
    time FIFO server's schedule does not depend on how ties break."""
    requests = build_requests(rate, 120, 8, arrival="deterministic")
    result, policy = serve(requests, "fifo", cores)
    assert_matches(result, replay(requests, MODEL, policy, cores), requests)


def test_single_request_stream_matches_replay():
    requests = build_requests(5.0, 1, 8, seed=3)
    result, policy = serve(requests, "fifo", 1)
    assert_matches(result, replay(requests, MODEL, policy, 1), requests)


# ---------------------------------------------------------------------------
# resilient runs: admission wrappers, explicit queue depth, SLO accounting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("policy_spec",
                         ["shed:1", "shed:4:size:4", "timeout:600",
                          "timeout:900:deadline:300:4",
                          "shed:2:timeout:800:size:2"])
@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("rate", [12.0, 40.0])
def test_wrapper_grid_matches_replay(policy_spec, cores, rate):
    requests = build_requests(rate, 250, 8, clients=3, seed=9)
    result, policy = serve(requests, policy_spec, cores, offered=rate)
    assert_matches(result, replay(requests, MODEL, policy, cores), requests)


@pytest.mark.parametrize("policy_spec", ["shed:6", "shed:6:size:4"])
def test_queue_depth_tightens_the_shed_bound(policy_spec):
    requests = build_requests(40.0, 250, 8, clients=3, seed=9)
    result, policy = serve(requests, policy_spec, 2, queue_depth=3)
    expected = replay(requests, MODEL, policy, 2, queue_depth=3)
    assert expected.shed > replay(requests, MODEL, policy, 2).shed
    assert_matches(result, expected, requests)


def test_queue_depth_without_a_shed_wrapper_refuses_to_block():
    requests = build_requests(40.0, 250, 8, clients=3, seed=9)
    assert replay(requests, MODEL, FifoPolicy(), 2, queue_depth=3).shed > 0
    with pytest.raises(ServeError, match="no shed depth is declared"):
        serve(requests, "fifo", 2, queue_depth=3)


@pytest.mark.parametrize("policy_spec",
                         ["fifo", "size:1", "size:4", "size:16",
                          "deadline:300", "deadline:300:4"])
def test_slo_only_run_matches_replay_and_the_plain_path(policy_spec):
    slo = 1234.5
    requests = build_requests(12.0, 250, 8, clients=3, seed=9)
    plain, policy = serve(requests, policy_spec, 2)
    result, _ = serve(requests, policy_spec, 2,
                      resilience=ResilienceConfig(slo=slo))
    expected = replay(requests, MODEL, policy, 2)
    assert_matches(result, expected, requests)
    assert result.in_slo == sum(1 for x in expected.latencies if x <= slo)
    # An SLO only adds accounting: the schedule is the plain path's.
    assert result.latency.to_dict() == plain.latency.to_dict()
    assert result.makespan == plain.makespan
