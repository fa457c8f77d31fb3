"""Resource models.

Two families:

* **Analytic resources** (:class:`PipelinedResource`, :class:`OccupancyPool`)
  answer "when can this request be served?" immediately with a timestamp.
  They are used inside the memory hierarchy, where modelling every port
  arbitration as a process would be needlessly slow.  Correctness relies on
  the engine delivering requests in non-decreasing time order.

* **Process-blocking resources** (:class:`BoundedQueue`) suspend the calling
  process.  They model the 2-entry queues between Widx units (Figure 6).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, List

from ..errors import SimulationError
from ..obs import Counter, Occupancy
from .engine import Engine
from .events import Event


def prune_cycles(counts: dict, start: int, stop: int) -> None:
    """Drop the ``[start, stop)`` cycles from a port occupancy map.

    Walks the map's live keys, not the range: the range can span
    hundreds of thousands of cycles of which only a few were granted.
    """
    for cycle in [cycle for cycle in counts if start <= cycle < stop]:
        del counts[cycle]


class PipelinedResource:
    """``servers`` identical servers, each busy ``service`` cycles per grant.

    Models cache ports (2 ports, one access per port per cycle) and
    memory-controller bandwidth (one block transfer per ``service`` cycles).

    Requests may arrive *out of time order*: the out-of-order core models
    issue loads at dataflow-ready times, so a reservation far in the future
    must not block an older request (that ratchet artificially serialized
    multi-core runs).  Grants therefore fill gaps:

    * ``service == 1`` (ports): exact per-cycle occupancy counting — a
      request takes the first integer cycle at/after ``now`` with a free
      port.  O(1) amortized via a pruned occupancy map.
    * ``service > 1`` (controllers): per-server sorted busy-interval lists;
      a request takes the earliest gap of length ``service`` at/after
      ``now``.  Interval lists are pruned behind a sliding watermark.
    """

    __slots__ = ("service", "servers", "grants", "busy_cycles",
                 "_cycle_counts", "_prune_cursor", "_intervals", "_floors",
                 "_max_now", "_horizon")

    def __init__(self, servers: int, service: float) -> None:
        if servers < 1:
            raise SimulationError("resource needs at least one server")
        if service <= 0:
            raise SimulationError("service time must be positive")
        self.service = service
        self.servers = servers
        self.grants = Counter()
        self.busy_cycles = Counter(0.0)
        self._max_now = 0.0
        if service == 1.0:
            self._cycle_counts: dict = {}
            self._prune_cursor = 0
            self._horizon = 10_000.0
        else:
            self._intervals: List[List[tuple]] = [[] for _ in range(servers)]
            self._floors: List[float] = [0.0] * servers
            self._horizon = max(60.0 * service, 2_000.0)

    def describe(self) -> str:
        """One-line occupancy summary for diagnostic dumps."""
        return (f"PipelinedResource(servers={self.servers}, "
                f"service={self.service}, grants={self.grants}, "
                f"busy_cycles={self.busy_cycles})")

    def register_into(self, registry, prefix: str) -> None:
        """Publish grant/busy counters under ``prefix``."""
        registry.register(f"{prefix}.grants", self.grants)
        registry.register(f"{prefix}.busy_cycles", self.busy_cycles)

    def request(self, now: float) -> float:
        """Reserve the earliest capacity at or after ``now``; returns the
        grant (start-of-service) time."""
        if now > self._max_now:
            self._max_now = now
        self.grants.value += 1
        self.busy_cycles.value += self.service
        if self.service == 1.0:
            return self._request_cycle(now)
        return self._request_interval(now)

    # -- ports: exact per-cycle counting --------------------------------

    def _request_cycle(self, now: float) -> float:
        counts = self._cycle_counts
        cycle = int(now)
        if cycle < now:
            cycle += 1
        while counts.get(cycle, 0) >= self.servers:
            cycle += 1
        counts[cycle] = counts.get(cycle, 0) + 1
        # Amortized pruning of cycles no request can reach anymore.
        cutoff = int(self._max_now - self._horizon)
        if self._prune_cursor < cutoff - 50_000:
            prune_cycles(counts, self._prune_cursor, cutoff)
            self._prune_cursor = cutoff
        return float(cycle)

    # -- controllers: gap-filling busy intervals ------------------------

    def _request_interval(self, now: float) -> float:
        best_time = None
        best_server = 0
        for server in range(self.servers):
            candidate = self._earliest_gap(server, now)
            if best_time is None or candidate < best_time:
                best_time = candidate
                best_server = server
        self._occupy(best_server, best_time)
        return best_time

    def _earliest_gap(self, server: int, now: float) -> float:
        t = max(now, self._floors[server])
        for start, end in self._intervals[server]:
            if t + self.service <= start:
                break
            if end > t:
                t = end
        return t

    def _occupy(self, server: int, start: float) -> None:
        intervals = self._intervals[server]
        entry = (start, start + self.service)
        position = len(intervals)
        for index, (other_start, _other_end) in enumerate(intervals):
            if start < other_start:
                position = index
                break
        intervals.insert(position, entry)
        # Prune behind the watermark: nothing requests that far back.
        cutoff = self._max_now - self._horizon
        while intervals and intervals[0][1] <= cutoff:
            old = intervals.pop(0)
            if old[1] > self._floors[server]:
                self._floors[server] = old[1]


class OccupancyPool:
    """A pool of ``capacity`` slots held for caller-determined durations.

    Models MSHRs (a slot is held from miss issue until fill) and the TLB's
    in-flight translation limit.  Usage is two-phase::

        start = pool.acquire(now)     # earliest time a slot is free
        ...compute how long the slot is held...
        pool.release_at(start + duration)
    """

    __slots__ = ("capacity", "_releases", "usage", "acquisitions", "releases",
                 "wait_cycles", "tracer", "_track")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError("pool needs at least one slot")
        self.capacity = capacity
        self._releases: List[float] = []
        self.usage = Occupancy(capacity)
        self.acquisitions = Counter()
        self.releases = Counter()
        self.wait_cycles = Counter(0.0)
        self.tracer = None
        self._track = ""

    @property
    def peak(self) -> int:
        """Highest number of simultaneously held slots observed."""
        return self.usage.peak

    def set_tracer(self, tracer, track: str) -> None:
        """Sample pool occupancy onto ``tracer`` under track ``track``."""
        self.tracer = tracer
        self._track = track

    @property
    def outstanding(self) -> int:
        """Slots acquired but never released — a leak if nonzero at end of
        run (every :meth:`acquire` must pair with a :meth:`release_at`)."""
        return self.acquisitions - self.releases

    def describe(self) -> str:
        """One-line occupancy summary for diagnostic dumps."""
        return (f"OccupancyPool(capacity={self.capacity}, peak={self.peak}, "
                f"acquisitions={self.acquisitions}, "
                f"outstanding={self.outstanding})")

    def occupancy(self, now: float) -> int:
        """Number of slots held at time ``now``."""
        self._expire(now)
        return len(self._releases)

    def _expire(self, now: float) -> None:
        releases = self._releases
        while releases and releases[0] <= now:
            heapq.heappop(releases)

    def acquire(self, now: float) -> float:
        """Claim a slot; returns the earliest time >= ``now`` it is usable.

        The caller MUST follow with :meth:`release_at`.
        """
        self._expire(now)
        releases = self._releases
        if len(releases) < self.capacity:
            start = now
        else:
            start = heapq.heappop(releases)
            self.wait_cycles.value += start - now
        self.acquisitions.value += 1
        if self.tracer is not None:
            self.tracer.sample(self._track, "held", start, len(releases) + 1)
        return start

    def release_at(self, when: float) -> None:
        """Mark the slot acquired by the latest :meth:`acquire` as held until ``when``."""
        self.releases.value += 1
        heapq.heappush(self._releases, when)
        usage = self.usage
        level = len(self._releases)
        usage.samples += 1
        usage.total += level
        if level > usage.peak:
            usage.peak = level

    def register_into(self, registry, prefix: str) -> None:
        """Publish pool counters and occupancy under ``prefix``."""
        registry.register(f"{prefix}.acquisitions", self.acquisitions)
        registry.register(f"{prefix}.releases", self.releases)
        registry.register(f"{prefix}.wait_cycles", self.wait_cycles)
        registry.register(f"{prefix}.usage", self.usage)


class BoundedQueue:
    """A FIFO with finite capacity; put/get suspend the calling process.

    Used for the dispatcher→walker and walker→producer queues.  ``put`` and
    ``get`` return :class:`Event` objects the caller must yield.
    """

    __slots__ = ("engine", "capacity", "name", "_items", "_getters",
                 "_putters", "total_puts", "depth", "closed", "tracer",
                 "_track")

    def __init__(self, engine: Engine, capacity: int, name: str = "queue") -> None:
        if capacity < 1:
            raise SimulationError("queue capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)
        self.total_puts = Counter()
        self.depth = Occupancy(capacity)
        self.closed = False
        self.tracer = None
        self._track = ""

    def set_tracer(self, tracer, track: str) -> None:
        """Sample queue depth onto ``tracer`` under track ``track``."""
        self.tracer = tracer
        self._track = track

    def register_into(self, registry, prefix: str) -> None:
        """Publish put counter and depth occupancy under ``prefix``."""
        registry.register(f"{prefix}.total_puts", self.total_puts)
        registry.register(f"{prefix}.depth", self.depth)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def waiting_getters(self) -> int:
        return len(self._getters)

    @property
    def waiting_putters(self) -> int:
        return len(self._putters)

    def describe(self) -> str:
        """One-line occupancy summary for diagnostic dumps."""
        return (f"BoundedQueue({self.name!r}, items={len(self._items)}/"
                f"{self.capacity}, getters={len(self._getters)}, "
                f"putters={len(self._putters)}, closed={self.closed})")

    def put(self, item: Any) -> Event:
        """Enqueue ``item``; the returned event fires when it is accepted.

        Raises :class:`SimulationError` if the queue is closed: a producer
        must never silently drop items into a stream consumers have already
        seen end (the close/put race would otherwise lose tuples).
        """
        if self.closed:
            raise SimulationError(
                f"put() on closed queue {self.name!r}")
        event = Event()
        items = self._items
        if self._getters:
            # Hand off directly to a waiting consumer.
            getter = self._getters.popleft()
            getter.succeed(item)
            event.succeed()
        elif len(items) < self.capacity:
            items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        self.total_puts.value += 1
        # Inlined self.depth.record(len(items)) — this is the hottest
        # queue-side accounting in the walker pipelines.
        depth = self.depth
        level = len(items)
        depth.samples += 1
        depth.total += level
        if level > depth.peak:
            depth.peak = level
        if self.tracer is not None:
            self.tracer.sample(self._track, "depth", self.engine.now, level)
        return event

    def get(self) -> Event:
        """Dequeue an item; the returned event carries the item as its value."""
        event = Event()
        if self._items:
            item = self._items.popleft()
            if self._putters:
                put_event, pending = self._putters.popleft()
                self._items.append(pending)
                put_event.succeed()
            event.succeed(item)
            if self.tracer is not None:
                self.tracer.sample(self._track, "depth", self.engine.now,
                                   len(self._items))
        elif self.closed:
            event.succeed(QUEUE_CLOSED)
        else:
            self._getters.append(event)
        return event

    def cancel_get(self, event: Event) -> bool:
        """Withdraw a parked get (fault salvage).

        When a consumer process is fail-stopped while blocked in
        ``get()``, its pending event must leave the waiting line —
        otherwise the next put would hand an item to a corpse.  Returns
        whether the event was found (False = it already fired or never
        parked here).
        """
        try:
            self._getters.remove(event)
        except ValueError:
            return False
        return True

    def restore(self, item: Any) -> None:
        """Put ``item`` back at the *front* of the queue (fault salvage).

        Used when a consumer died after dequeuing ``item`` but before
        doing any externally-visible work on it: the item returns to the
        head so a surviving consumer processes the stream in the original
        order.  Hands off directly if a consumer is already waiting; may
        transiently exceed capacity otherwise (salvage must not block).
        """
        if self._getters:
            self._getters.popleft().succeed(item)
            return
        self._items.appendleft(item)

    def close(self) -> None:
        """Signal end-of-stream: waiting and future getters receive
        QUEUE_CLOSED, and producers blocked in ``put()`` are woken with
        QUEUE_CLOSED too — their items are rejected, not silently parked
        forever on a queue nobody will drain.  Closing twice is a no-op.
        """
        if self.closed:
            return
        self.closed = True
        while self._getters:
            self._getters.popleft().succeed(QUEUE_CLOSED)
        while self._putters:
            put_event, _rejected = self._putters.popleft()
            put_event.succeed(QUEUE_CLOSED)


class _QueueClosed:
    """Sentinel delivered to getters of a closed, empty queue."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "QUEUE_CLOSED"


QUEUE_CLOSED = _QueueClosed()
