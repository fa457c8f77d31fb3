"""Seeded open-loop arrival processes.

The serving layer models *arriving* work: clients emit probe-batch
requests at times the backend cannot influence (open-loop, unlike the
paper's closed one-shot runs — see EXPERIMENTS.md).  Two processes:

* :class:`DeterministicArrivals` — evenly spaced requests, the fluid
  limit.  Useful for calibration and for tests that need exact algebra.
* :class:`PoissonArrivals` — exponential inter-arrival gaps, the
  standard open-loop model for independent clients.

Both are **seed-deterministic** and **rate-scalable**: a Poisson process
draws one unit-rate exponential gap sequence from its seed and divides
by the rate, so two processes with the same seed and different rates
produce *the same arrival pattern on different time scales*.  That is
what makes per-request latency — and therefore every latency percentile
— weakly non-decreasing in offered load for a work-conserving server:
compressing the gaps of a fixed pattern can only grow each request's
queueing delay.  The fig-serve sweep's "p99 non-decreasing in offered
load" acceptance property rests on this.

Rates are expressed in **requests per kilocycle** (the natural unit for
cycle-denominated service times).
"""

from __future__ import annotations

import math
import operator
import random
from typing import Iterable, List, NamedTuple, Sequence

from ..errors import ServeError


class Request(NamedTuple):
    """One client request: a probe batch arriving at a point in time.

    An immutable tuple record, equal and hashable by its fields.  The
    stream builders below make each record with ``tuple.__new__``,
    skipping the generated constructor, and make it once.
    """

    seq: int          # position in the (merged) arrival order
    client: int       # emitting client stream
    arrival: float    # absolute arrival time, cycles
    keys: int         # probe keys carried by the request


_new = tuple.__new__

#: The merge order: ``(arrival, client, seq)``.
_merge_key = operator.itemgetter(2, 1, 0)


class ArrivalProcess:
    """Interface: a seeded generator of absolute arrival times."""

    #: Requests per kilocycle; set by subclasses.
    rate: float

    def times(self, count: int) -> List[float]:
        """The first ``count`` absolute arrival times, strictly sorted."""
        raise NotImplementedError

    def mean_gap(self) -> float:
        """The process's mean inter-arrival gap in cycles."""
        return 1000.0 / self.rate

    def requests(self, count: int, keys_per_request: int,
                 client: int = 0) -> List[Request]:
        """The first ``count`` requests of one client stream."""
        if keys_per_request < 1:
            raise ServeError(
                f"keys_per_request must be >= 1, got {keys_per_request}")
        return [_new(Request, (seq, client, arrival, keys_per_request))
                for seq, arrival in enumerate(self.times(count))]


def _check_rate(rate: float) -> float:
    # NaN compares false against 0; inf would mean zero-gap arrivals (the
    # whole stream landing at one instant), so both are rejected.
    if not (rate > 0 and math.isfinite(rate)):
        raise ServeError(
            f"arrival rate must be finite and positive, got {rate!r}")
    return float(rate)


class DeterministicArrivals(ArrivalProcess):
    """Evenly spaced arrivals: request ``i`` arrives at ``(i+1) * gap``."""

    def __init__(self, rate: float) -> None:
        self.rate = _check_rate(rate)

    def times(self, count: int) -> List[float]:
        """Arrival ``i`` at exactly ``(i + 1) * mean_gap()``."""
        gap = self.mean_gap()
        return [(i + 1) * gap for i in range(count)]


class PoissonArrivals(ArrivalProcess):
    """Seeded Poisson arrivals (exponential inter-arrival gaps).

    The unit-rate gap sequence depends only on ``seed``; the rate only
    scales it (see the module docstring for why that matters).
    """

    def __init__(self, rate: float, seed: int = 0) -> None:
        self.rate = _check_rate(rate)
        self.seed = seed

    def times(self, count: int) -> List[float]:
        """Cumulative sums of seeded unit-exponential gaps, rate-scaled."""
        rng = random.Random(self.seed)
        scale = self.mean_gap()
        times: List[float] = []
        now = 0.0
        for _ in range(count):
            now += rng.expovariate(1.0) * scale
            times.append(now)
        return times


def merge_requests(streams: Iterable[Sequence[Request]]) -> List[Request]:
    """Merge per-client request streams into one global arrival order.

    The merge sorts by ``(arrival, client, seq)`` — client id breaks
    simultaneous-arrival ties, so the order is total and deterministic —
    and renumbers ``seq`` globally.  Each client's requests keep their
    relative order (their per-client ``seq`` values were already sorted
    by arrival time within the stream).

    A record whose ``seq`` already equals its merged position is
    returned as it is (records are immutable and equal by fields), so a
    single client's stream, which sorts in one linear pass, comes back
    without a new record.
    """
    merged = sorted((request for stream in streams for request in stream),
                    key=_merge_key)
    return [request if request.seq == seq
            else _new(Request, (seq, request.client, request.arrival,
                                request.keys))
            for seq, request in enumerate(merged)]
