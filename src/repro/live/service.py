"""The wall-clock serving driver: a poll-able state machine over the core.

:class:`LiveService` is the second driver of the transport-agnostic
:class:`~repro.serve.core.ServingCore` (after the discrete-event path).
It is deliberately *synchronous*: callers feed it
arrivals via :meth:`offer` and time via :meth:`advance`, and it keeps an
internal timed-event heap (batch completions, deadline-policy holds,
controller ticks) exactly like a tiny discrete-event engine — except
the clock is external.  The asyncio front-end
(:mod:`repro.live.server`) is a thin transport that sleeps until
:meth:`next_event` and calls :meth:`advance`; the deterministic-replay
tests drive the same object from a :class:`~repro.live.clock.ManualClock`
with no asyncio (and so no host-speed dependence) at all.

Policy, admission, shedding, deadlines, SLO accounting and the
degraded-mode controller all come from the core unchanged.  Walker
faults do not: a live batch is priced once, when it starts, so an
active fault model is refused rather than served without its mid-batch
aborts.  The live
layer adds one adaptation of its own on top of the controller's level
delta: **elastic walker allocation** — the service runs power-frugal on
``walkers_min`` active walkers (service cycles scale by
``walkers_max / walkers_active``) and spends walkers when the windowed
p99 regresses, releasing them again on recovery.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..errors import ServeError
from ..obs import StatsRegistry
from ..serve.arrivals import Request
from ..serve.core import ResilienceConfig, ServeResult, ServingCore
from ..serve.policies import (BatchByDeadline, BatchBySize, SchedulingPolicy,
                              base_policy, parse_policy)
from ..serve.service import ServiceModel
from .clock import ManualClock

#: Settlement statuses delivered to the ``on_settled`` callback.
SETTLED_STATUSES = ("served", "expired")


class LiveService:
    """Live request serving over the transport-agnostic core.

    ``clock`` supplies time (default: a fresh
    :class:`~repro.live.clock.ManualClock`); ``policy`` is a
    :class:`~repro.serve.policies.SchedulingPolicy` or a spec string;
    ``walkers=(min, max)`` opts into elastic walker allocation (requires
    a controller to drive it).  ``on_settled(request, status, now)``
    fires once per admitted request when it is served or expires — the
    server uses it to push completion responses to clients.
    """

    def __init__(self, model: ServiceModel, *,
                 policy: Union[SchedulingPolicy, str, None] = None,
                 cores: int = 1,
                 queue_depth: Optional[int] = None,
                 resilience: Optional[ResilienceConfig] = None,
                 clock=None,
                 walkers: Optional[Tuple[int, int]] = None,
                 registry: Optional[StatsRegistry] = None,
                 on_settled: Optional[Callable[[Request, str, float],
                                               None]] = None) -> None:
        if cores < 1:
            raise ServeError(f"need at least one core, got {cores}")
        if (resilience is not None and resilience.faults is not None
                and resilience.faults.active):
            # A batch is priced once, when it starts; aborting it at a
            # mid-batch walker death is the discrete-event driver's job.
            raise ServeError(
                "the live service does not model walker faults; run "
                "faulted serving through repro.serve.simulate")
        if policy is None:
            policy = parse_policy("fifo")
        elif isinstance(policy, str):
            policy = parse_policy(policy)
        self.model = model
        self.cores = cores
        self.clock = clock if clock is not None else ManualClock()
        self.registry = registry if registry is not None else StatsRegistry()
        self.core = ServingCore(policy, model, cores,
                                queue_depth=queue_depth,
                                resilience=resilience,
                                scope=self.registry.scope("serve"))
        self.on_settled = on_settled

        # Elastic walker state: frugal start when a controller can grow
        # it, full power otherwise (matching the calibrated model).
        if walkers is None:
            self.walkers_min = self.walkers_max = 1
        else:
            low, high = walkers
            if not 1 <= low <= high:
                raise ServeError(
                    f"walkers must satisfy 1 <= min <= max, got {walkers!r}")
            self.walkers_min, self.walkers_max = int(low), int(high)
        self.walkers_active = (self.walkers_min
                               if self.core.controller is not None
                               else self.walkers_max)

        live_scope = self.registry.scope("live")
        self.adaptations = live_scope.counter("adaptations")
        self.walkers_allocated = live_scope.counter("walkers_allocated")
        self.walkers_released = live_scope.counter("walkers_released")

        self._queues: List[List[Request]] = [[] for _ in range(cores)]
        self._busy: List[bool] = [False] * cores
        self._holds: List[Optional[float]] = [None] * cores
        self._events: List[tuple] = []   # (time, tiebreak, kind, data)
        self._tiebreak = itertools.count()
        self._now = self.clock.now()
        self.offered = 0
        self.first_arrival: Optional[float] = None
        self.closed = False
        if self.core.controller is not None:
            self._push(self._now + self.core.controller.spec.window,
                       "tick", None)

    # -- event plumbing --------------------------------------------------

    def _push(self, when: float, kind: str, data) -> None:
        heapq.heappush(self._events, (when, next(self._tiebreak), kind, data))

    def next_event(self) -> Optional[float]:
        """The next timed event's cycle (None when nothing is scheduled)."""
        return self._events[0][0] if self._events else None

    def advance(self, now: Optional[float] = None) -> float:
        """Process every timed event up to ``now`` (default: the clock).

        Events fire in timestamp order at their own timestamps, so a
        completion cascading into the next batch is accounted at the
        right instant even when the caller polls late.
        """
        if now is None:
            now = self.clock.now()
        while self._events and self._events[0][0] <= now:
            when, _seq, kind, data = heapq.heappop(self._events)
            self._now = max(self._now, when)
            if kind == "done":
                self._on_done(when, *data)
            elif kind == "hold":
                self._on_hold(when, data)
            else:  # tick
                self._on_tick(when)
        self._now = max(self._now, now)
        return self._now

    # -- arrivals --------------------------------------------------------

    def offer(self, keys: Optional[int] = None,
              now: Optional[float] = None, client: int = 0) -> Dict[str, Any]:
        """Admit (or shed) one arriving request.

        Returns ``{"seq", "status"}`` with status ``admitted`` or
        ``shed``; admitted requests settle later through ``on_settled``.
        Raises when the service is closed, the request's key count does
        not match the calibrated model, or admission would block with no
        shed depth declared (the open-loop contract).
        """
        if self.closed:
            raise ServeError("the live service is closed to new arrivals")
        if keys is None:
            keys = self.model.keys_per_request
        if keys != self.model.keys_per_request:
            raise ServeError(
                f"request carries {keys} keys but the service model was "
                f"calibrated for {self.model.keys_per_request}")
        now = self.advance(now)
        seq = self.offered
        self.offered += 1
        if self.first_arrival is None:
            self.first_arrival = now
        index = seq % self.cores
        if not self.core.try_admit(len(self._queues[index]),
                                   f"core{index}.admit"):
            return {"seq": seq, "status": "shed"}
        self._queues[index].append(
            Request(seq=seq, client=client, arrival=now, keys=keys))
        self._try_start(index, now)
        return {"seq": seq, "status": "admitted"}

    # -- per-core serving ------------------------------------------------

    def _form_batch(self, index: int,
                    now: float) -> Tuple[Optional[List[Request]],
                                         Optional[float]]:
        """Form the next batch per the active policy's declaration.

        Returns ``(batch, None)`` or ``(None, hold_until)`` when a
        deadline policy is still holding its batch open.  The policy
        objects are reused as declarations (size caps, hold windows);
        their generator ``collect`` protocol stays DES-only.
        """
        queue = self._queues[index]
        base = base_policy(self.core.active)
        if isinstance(base, BatchBySize):
            take = min(base.max_batch, len(queue))
        elif isinstance(base, BatchByDeadline):
            ready_at = queue[0].arrival + base.wait
            if now < ready_at:
                return None, ready_at
            cap = base.max_batch if base.max_batch is not None else len(queue)
            take = min(cap, len(queue))
        else:  # FIFO
            take = 1
        batch = queue[:take]
        del queue[:take]
        return batch, None

    def _walker_scale(self) -> float:
        return self.walkers_max / self.walkers_active

    def _try_start(self, index: int, now: float) -> None:
        while not self._busy[index] and self._queues[index]:
            batch, hold_until = self._form_batch(index, now)
            if batch is None:
                if self._holds[index] is None:
                    self._holds[index] = hold_until
                    self._push(hold_until, "hold", index)
                return
            capacity = self.core.capacities[index]
            kept = self.core.drop_doomed(batch, now, capacity)
            if len(kept) != len(batch):
                alive = {request.seq for request in kept}
                for request in batch:
                    if request.seq not in alive:
                        self._settle(request, "expired", now)
            if not kept:
                continue
            cycles = capacity.cycles_for(len(kept), now) * self._walker_scale()
            self._busy[index] = True
            self._push(now + cycles, "done", (index, kept, cycles))
            return

    def _on_done(self, now: float, index: int, batch: List[Request],
                 cycles: float) -> None:
        self.core.finish_batch(batch, cycles, now)
        self._busy[index] = False
        for request in batch:
            self._settle(request, "served", now)
        self._try_start(index, now)

    def _on_hold(self, now: float, index: int) -> None:
        self._holds[index] = None
        if not self._busy[index]:
            self._try_start(index, now)

    def _settle(self, request: Request, status: str, now: float) -> None:
        if self.on_settled is not None:
            self.on_settled(request, status, now)

    # -- adaptive control --------------------------------------------------

    def _on_tick(self, now: float) -> None:
        delta = self.core.controller_tick(now)
        if delta != 0:
            self.adaptations.value += 1
            self._adapt_walkers(delta)
        if not self.closed or self._pending():
            self._push(now + self.core.controller.spec.window, "tick", None)

    def _adapt_walkers(self, delta: int) -> None:
        """The live-level elastic knob on the controller's level delta:
        degrade spends a walker (power for latency), recover releases
        one back to the frugal floor."""
        if delta > 0 and self.walkers_active < self.walkers_max:
            self.walkers_active += 1
            self.walkers_allocated.value += 1
        elif delta < 0 and self.walkers_active > self.walkers_min:
            self.walkers_active -= 1
            self.walkers_released.value += 1

    # -- shutdown and results ----------------------------------------------

    def _pending(self) -> bool:
        return any(self._busy) or any(self._queues)

    def close(self, now: Optional[float] = None) -> float:
        """Stop accepting arrivals (queued work still drains)."""
        now = self.advance(now)
        self.closed = True
        return now

    def drain(self) -> float:
        """Run every remaining timed event to completion.

        Events fire at their already-scheduled virtual times; a
        :class:`~repro.live.clock.ManualClock` is advanced along so the
        service's clock agrees with its state afterwards.  Only valid
        after :meth:`close` (the controller tick chain stops once the
        service is closed and idle; with arrivals still possible it
        would spin forever).
        """
        if not self.closed:
            raise ServeError("close() the service before drain()")
        while self._events:
            when = self._events[0][0]
            if isinstance(self.clock, ManualClock):
                self.clock.advance_to(when)
            self.advance(when)
        return self._now

    def result(self, label: Optional[str] = None) -> ServeResult:
        """Finalize and return the run's :class:`ServeResult`.

        Checks request conservation (served + shed + expired == offered)
        — call after :meth:`close` and :meth:`drain`.
        """
        if not self.closed or self._pending() or self._events:
            raise ServeError(
                "result() needs a closed, drained service; call close() "
                "then drain() first")
        core = self.core
        end = self._now
        makespan = core.finalize(end)
        core.check_conservation(self.offered)
        first = self.first_arrival if self.first_arrival is not None else 0.0
        span = makespan - first
        offered_rate = self.offered * 1000.0 / span if span > 0 else 0.0
        return ServeResult(
            label=label if label is not None else self.model.label,
            policy=core.base.name, offered=offered_rate, cores=self.cores,
            requests=self.offered, completed=int(core.completed.value),
            makespan=makespan, latency=core.latency, first_arrival=first,
            stats=self.registry.to_dict(),
            shed=int(core.shed.value), expired=int(core.expired.value),
            faults=core.fault_total, slo=core.slo,
            in_slo=int(core.in_slo.value) if core.in_slo is not None else 0)

    def summary(self) -> Dict[str, Any]:
        """A live snapshot for the server's ``stats`` endpoint."""
        core = self.core
        data: Dict[str, Any] = {
            "now": self._now,
            "offered": self.offered,
            "served": int(core.completed.value),
            "shed": int(core.shed.value),
            "expired": int(core.expired.value),
            "queued": sum(len(queue) for queue in self._queues),
            "busy_cores": sum(1 for busy in self._busy if busy),
            "policy": core.active.name,
            "walkers_active": self.walkers_active,
            "adaptations": int(self.adaptations.value),
        }
        if core.latency.count:
            data["p50"] = core.latency.p50
            data["p99"] = core.latency.p99
        if core.in_slo is not None:
            data["in_slo"] = int(core.in_slo.value)
        if core.controller is not None:
            data["controller_level"] = core.controller.level
        return data
