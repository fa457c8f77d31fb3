"""Property tests for the serving layer's per-request records.

Two equivalences the serving sweep's output rests on:

1. **The merged request stream.**  :func:`build_requests` must give
   exactly the stream a plain reference gives: draw each client's
   arrival times, sort every record by ``(arrival, client, seq)``, then
   renumber ``seq`` globally.  The engine serves that stream in that
   order, so any difference in a field or in the order moves the
   schedule.  Every element is a :class:`Request`, immutable, with the
   keyword-style ``repr``.

2. **Latency bucketing.**  ``Distribution.record(v)`` lands ``v`` in
   ``Distribution.bucket_of(v)`` and keeps count, total, min and max
   exactly, across zero, negatives, sub-integer values, both sides of
   the exact/log bucket boundary and values above ``2**40``.
"""

import collections

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import Distribution
from repro.serve.arrivals import (DeterministicArrivals, PoissonArrivals,
                                  Request)
from repro.serve.simulate import build_requests


def reference_requests(rate, num_requests, keys, clients, seed, arrival):
    """The merged stream, built record by record the plain way."""
    per_client = rate / clients
    base, remainder = divmod(num_requests, clients)
    records = []
    for client in range(clients):
        count = base + (1 if client < remainder else 0)
        if arrival == "poisson":
            process = PoissonArrivals(per_client, seed=seed + client)
        else:
            process = DeterministicArrivals(per_client)
        records.extend((time, client, seq)
                       for seq, time in enumerate(process.times(count)))
    records.sort()
    return [(seq, client, time, keys)
            for seq, (time, client, _) in enumerate(records)]


@settings(max_examples=60, deadline=None)
@given(clients=st.integers(min_value=1, max_value=6),
       extra=st.integers(min_value=0, max_value=200),
       rate=st.floats(min_value=0.05, max_value=40.0),
       keys=st.integers(min_value=1, max_value=64),
       seed=st.integers(min_value=0, max_value=2 ** 31),
       arrival=st.sampled_from(["poisson", "deterministic"]))
def test_build_requests_equals_sort_then_renumber(clients, extra, rate, keys,
                                                  seed, arrival):
    num_requests = clients + extra
    stream = build_requests(rate, num_requests, keys, clients=clients,
                            seed=seed, arrival=arrival)
    expected = reference_requests(rate, num_requests, keys, clients, seed,
                                  arrival)
    assert len(stream) == len(expected)
    for request, (seq, client, time, count) in zip(stream, expected):
        assert type(request) is Request
        assert request.seq == seq
        assert request.client == client
        assert request.arrival == time
        assert request.keys == count
        assert repr(request) == (f"Request(seq={seq}, client={client}, "
                                 f"arrival={time!r}, keys={count})")


def test_request_is_immutable_with_keyword_repr():
    request = Request(seq=3, client=1, arrival=12.5, keys=8)
    for name in ("seq", "client", "arrival", "keys", "other"):
        with pytest.raises(AttributeError):
            setattr(request, name, 0)
    assert repr(request) == "Request(seq=3, client=1, arrival=12.5, keys=8)"
    assert request == Request(seq=3, client=1, arrival=12.5, keys=8)
    assert hash(request) == hash(Request(seq=3, client=1, arrival=12.5,
                                         keys=8))
    assert request != Request(seq=4, client=1, arrival=12.5, keys=8)


#: The first scaled value past the exact buckets, in cycles.
_BOUNDARY = 2 ** (Distribution.SUB_BITS + 1 - Distribution.FP_BITS)
_STEP = 2.0 ** -Distribution.FP_BITS

latencies = st.one_of(
    st.sampled_from([0, 0.0, -0.0, _BOUNDARY, _BOUNDARY - _STEP,
                     _BOUNDARY + _STEP, 2 ** 40, 2 ** 40 + 1, 2.0 ** 62]),
    st.floats(min_value=-1e6, max_value=0.0),
    st.integers(min_value=-10 ** 6, max_value=0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=_BOUNDARY - 1.0, max_value=_BOUNDARY + 1.0),
    st.integers(min_value=_BOUNDARY - 4, max_value=_BOUNDARY + 4),
    st.floats(min_value=1.0, max_value=1e9),
    st.floats(min_value=2.0 ** 40, max_value=2.0 ** 70),
    st.integers(min_value=2 ** 40, max_value=2 ** 70),
)


@settings(max_examples=200, deadline=None)
@given(value=latencies)
def test_record_lands_in_bucket_of(value):
    dist = Distribution()
    dist.record(value)
    assert dist.counts == {Distribution.bucket_of(value): 1}
    assert (dist.count, dist.total, dist.min, dist.max) == (
        1, 0.0 + value, value, value)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(latencies, min_size=1, max_size=40))
def test_record_keeps_counts_and_moments(values):
    dist = Distribution()
    total = 0.0
    for value in values:
        dist.record(value)
        total += value
    assert dist.counts == dict(collections.Counter(
        Distribution.bucket_of(value) for value in values))
    assert dist.count == len(values)
    assert dist.total == total
    assert dist.min == min(values)
    assert dist.max == max(values)
