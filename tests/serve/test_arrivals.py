"""Property and unit tests for the open-loop arrival processes."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ServeError
from repro.serve.arrivals import (DeterministicArrivals, PoissonArrivals,
                                  Request, merge_requests)

rates = st.floats(min_value=0.01, max_value=50.0,
                  allow_nan=False, allow_infinity=False)
seeds = st.integers(min_value=0, max_value=2**31)
counts = st.integers(min_value=1, max_value=300)


# ---------------------------------------------------------------------------
# determinism and structure
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(rate=rates, seed=seeds, count=counts)
def test_poisson_is_deterministic_per_seed(rate, seed, count):
    a = PoissonArrivals(rate, seed=seed).times(count)
    b = PoissonArrivals(rate, seed=seed).times(count)
    assert a == b


@settings(max_examples=50, deadline=None)
@given(rate=rates, seed=seeds, count=counts)
def test_poisson_times_strictly_increase(rate, seed, count):
    times = PoissonArrivals(rate, seed=seed).times(count)
    assert len(times) == count
    assert all(a < b for a, b in zip(times, times[1:]))
    assert times[0] > 0


@settings(max_examples=30, deadline=None)
@given(seed=seeds, count=counts)
def test_different_seeds_give_different_patterns(seed, count):
    a = PoissonArrivals(1.0, seed=seed).times(max(count, 5))
    b = PoissonArrivals(1.0, seed=seed + 1).times(max(count, 5))
    assert a != b


@settings(max_examples=50, deadline=None)
@given(rate=rates, seed=seeds, count=counts, factor=st.floats(1.1, 10.0))
def test_rate_scaling_compresses_the_same_pattern(rate, seed, count, factor):
    """The p99-monotonicity acceptance rests on this: same seed at a
    higher rate is the *identical* pattern on a compressed time scale."""
    slow = PoissonArrivals(rate, seed=seed).times(count)
    fast = PoissonArrivals(rate * factor, seed=seed).times(count)
    for s, f in zip(slow, fast):
        assert f == pytest.approx(s / factor, rel=1e-12)


def test_poisson_mean_gap_matches_rate_within_tolerance():
    """The sample mean inter-arrival gap converges on 1000/rate."""
    rate = 4.0
    process = PoissonArrivals(rate, seed=7)
    times = process.times(20_000)
    gaps = [b - a for a, b in zip([0.0] + times, times)]
    mean = sum(gaps) / len(gaps)
    # 20k exponential samples: the sample mean is within a few percent
    # of the true mean with overwhelming probability at this fixed seed.
    assert math.isclose(mean, process.mean_gap(), rel_tol=0.05)


def test_deterministic_arrivals_are_evenly_spaced():
    times = DeterministicArrivals(2.0).times(4)
    assert times == [500.0, 1000.0, 1500.0, 2000.0]


@settings(max_examples=30, deadline=None)
@given(rate=rates, count=counts)
def test_deterministic_mean_gap_is_exact(rate, count):
    process = DeterministicArrivals(rate)
    times = process.times(count)
    assert times[-1] == pytest.approx(count * process.mean_gap())


# ---------------------------------------------------------------------------
# requests and merging
# ---------------------------------------------------------------------------

def test_requests_carry_sequence_client_and_keys():
    requests = PoissonArrivals(1.0, seed=3).requests(5, keys_per_request=8,
                                                     client=2)
    assert [r.seq for r in requests] == [0, 1, 2, 3, 4]
    assert all(r.client == 2 and r.keys == 8 for r in requests)
    assert all(a.arrival < b.arrival
               for a, b in zip(requests, requests[1:]))


@settings(max_examples=40, deadline=None)
@given(seed=seeds,
       clients=st.integers(min_value=1, max_value=6),
       per_client=st.integers(min_value=1, max_value=40))
def test_merge_preserves_global_order_and_renumbers(seed, clients, per_client):
    streams = [PoissonArrivals(1.0, seed=seed + c).requests(
                   per_client, keys_per_request=4, client=c)
               for c in range(clients)]
    merged = merge_requests(streams)
    assert len(merged) == clients * per_client
    assert [r.seq for r in merged] == list(range(len(merged)))
    assert all(a.arrival <= b.arrival for a, b in zip(merged, merged[1:]))
    # Each client's requests keep their relative order.
    for c in range(clients):
        arrivals = [r.arrival for r in merged if r.client == c]
        assert arrivals == sorted(arrivals)
        assert len(arrivals) == per_client


def test_merge_breaks_ties_by_client():
    tie = [Request(seq=0, client=1, arrival=10.0, keys=1)]
    other = [Request(seq=0, client=0, arrival=10.0, keys=1)]
    merged = merge_requests([tie, other])
    assert [r.client for r in merged] == [0, 1]


def test_merge_passes_a_single_stream_through():
    """A record already at its merged position is reused, not rebuilt."""
    stream = PoissonArrivals(2.0, seed=5).requests(50, keys_per_request=4)
    merged = merge_requests([stream])
    assert all(a is b for a, b in zip(merged, stream))
    assert len(merged) == len(stream)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rate", [0.0, -1.0])
def test_non_positive_rates_rejected(rate):
    with pytest.raises(ServeError):
        PoissonArrivals(rate)
    with pytest.raises(ServeError):
        DeterministicArrivals(rate)


@pytest.mark.parametrize("rate", [float("inf"), float("nan"), -float("inf")])
def test_non_finite_rates_rejected(rate):
    """Regression: an infinite rate used to pass the ``> 0`` check and
    produce a zero mean gap — the whole stream landing at one instant —
    and NaN poisoned every downstream arrival time."""
    with pytest.raises(ServeError):
        PoissonArrivals(rate)
    with pytest.raises(ServeError):
        DeterministicArrivals(rate)


def test_keys_per_request_must_be_positive():
    with pytest.raises(ServeError):
        DeterministicArrivals(1.0).requests(3, keys_per_request=0)
