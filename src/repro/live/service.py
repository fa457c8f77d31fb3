"""The wall-clock serving driver: a poll-able front over the DES processes.

:class:`LiveService` runs the discrete-event driver's own
:func:`~repro.serve.simulate.server_process` per core and
:func:`~repro.serve.simulate.controller_process` on an engine whose
clock the caller moves: arrivals come in via :meth:`offer`, time via
:meth:`advance`.  So every batch is formed by the policy's own
``collect``, priced by the core's
:class:`~repro.serve.faults.CoreCapacity` (a walker death inside a batch
aborts it) and accounted by the shared
:class:`~repro.serve.core.ServingCore`, exactly as in the DES.  The
asyncio front-end (:mod:`repro.live.server`) sleeps until
:meth:`next_event` and calls :meth:`advance`; the deterministic-replay
tests drive the same object from a
:class:`~repro.live.clock.ManualClock`, with no asyncio at all.

The live layer adds one adaptation of its own on top of the
controller's level delta: **elastic walker allocation** — the service
runs power-frugal on ``walkers_min`` active walkers (service cycles
scale by ``walkers_max / walkers_active``) and spends walkers when the
windowed p99 regresses, releasing them again on recovery.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ServeError
from ..obs import StatsRegistry
from ..serve.arrivals import Request
from ..serve.core import ResilienceConfig, ServeResult, ServingCore
from ..serve.faults import CoreCapacity
from ..serve.policies import SchedulingPolicy, parse_policy
from ..serve.service import ServiceModel
from ..serve.simulate import controller_process, server_process
from ..sim.engine import Engine
from ..sim.resources import BoundedQueue
from .clock import ManualClock


class _WalkerScaledModel:
    """A service model priced at the service's active walker count: a
    batch costs ``walkers_max / walkers_active`` times the calibrated
    cycles, read when the server prices it."""

    def __init__(self, model: ServiceModel, service: "LiveService") -> None:
        self.model = model
        self.service = service

    def cycles_for(self, requests: int) -> float:
        return self.model.cycles_for(requests) * self.service._walker_scale()

    def scaled(self, factor: float) -> "_WalkerScaledModel":
        # A core that lost walkers to faults still flexes its survivors.
        return _WalkerScaledModel(self.model.scaled(factor), self.service)


class _LiveCore(ServingCore):
    """The serving core with the live service listening in: settlements
    reach ``on_settled`` and controller level changes flex the walkers."""

    def __init__(self, service: "LiveService", *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.service = service

    def drop_doomed(self, batch: List[Request], now: float,
                    capacity: CoreCapacity) -> List[Request]:
        kept = super().drop_doomed(batch, now, capacity)
        if len(kept) != len(batch):
            alive = {request.seq for request in kept}
            self.service._settle(
                [request for request in batch if request.seq not in alive],
                "expired", now)
        return kept

    def finish_batch(self, batch: Sequence[Request], cycles: float,
                     done: float) -> None:
        super().finish_batch(batch, cycles, done)
        self.service._settle(batch, "served", done)

    def controller_tick(self, now: float) -> int:
        delta = super().controller_tick(now)
        if delta != 0:
            self.service._adapt_walkers(delta)
        return delta


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
        if policy is None:
            policy = parse_policy("fifo")
        elif isinstance(policy, str):
            policy = parse_policy(policy)
        if walkers is None:
            walkers = (1, 1)
        low, high = walkers
        if not 1 <= low <= high:
            raise ServeError(
                f"walkers must satisfy 1 <= min <= max, got {walkers!r}")
        self.walkers_min, self.walkers_max = int(low), int(high)
        self.model = model
        self.cores = cores
        self.clock = clock if clock is not None else ManualClock()
        self.registry = registry if registry is not None else StatsRegistry()
        self.core = _LiveCore(self, policy, _WalkerScaledModel(model, self),
                              cores, queue_depth=queue_depth,
                              resilience=resilience,
                              scope=self.registry.scope("serve"))
        self.on_settled = on_settled

        # Frugal start when a controller can grow the walkers, full
        # power otherwise (matching the calibrated model).
        self.walkers_active = (self.walkers_min
                               if self.core.controller is not None
                               else self.walkers_max)

        live_scope = self.registry.scope("live")
        self.adaptations = live_scope.counter("adaptations")
        self.walkers_allocated = live_scope.counter("walkers_allocated")
        self.walkers_released = live_scope.counter("walkers_released")

        # The DES driver's processes on an engine whose clock the caller
        # moves.  Arrivals are not known in advance, so the queues are
        # unbounded; the admission bound is the core's to enforce.
        self.engine = Engine()
        self.engine.now = self.clock.now()
        self.queues = [BoundedQueue(self.engine, sys.maxsize,
                                    name=f"core{i}.admit")
                       for i in range(cores)]
        self._servers = [
            self.engine.process(
                server_process(self.engine, queue, self.core, capacity),
                name=f"serve.core{i}.server")
            for i, (queue, capacity) in enumerate(
                zip(self.queues, self.core.capacities))]
        if self.core.controller is not None:
            self.engine.process(controller_process(self.engine, self.core),
                                name="serve.controller")
        self.offered = 0
        self.first_arrival: Optional[float] = None
        self.closed = False

    # -- time ------------------------------------------------------------

    def next_event(self) -> Optional[float]:
        """The next timed event's cycle (None when nothing is scheduled)."""
        return self.engine.next_time

    def advance(self, now: Optional[float] = None) -> float:
        """Process every timed event up to ``now`` (default: the clock).

        Events fire in timestamp order at their own timestamps, so a
        completion cascading into the next batch is accounted at the
        right instant even when the caller polls late.
        """
        if now is None:
            now = self.clock.now()
        return self.engine.run(until=max(now, self.engine.now))

    # -- arrivals --------------------------------------------------------

    def offer(self, keys: Optional[int] = None,
              now: Optional[float] = None, client: int = 0) -> Dict[str, Any]:
        """Admit (or shed) one arriving request.

        Returns ``{"seq", "status"}`` with status ``admitted`` or
        ``shed``; admitted requests settle later through ``on_settled``.
        Events due at the arrival instant settle before it.  Raises when
        the service is closed, the request's key count does not match
        the calibrated model, or admission would block with no shed
        depth declared (the open-loop contract).
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
        queue = self.queues[seq % self.cores]
        if not self.core.try_admit(len(queue), queue.name):
            return {"seq": seq, "status": "shed"}
        queue.put(Request(seq=seq, client=client, arrival=now, keys=keys))
        return {"seq": seq, "status": "admitted"}

    # -- core callbacks --------------------------------------------------

    def _walker_scale(self) -> float:
        return self.walkers_max / self.walkers_active

    def _settle(self, requests: Sequence[Request], status: str,
                now: float) -> None:
        if self.on_settled is not None:
            for request in requests:
                self.on_settled(request, status, now)

    def _adapt_walkers(self, delta: int) -> None:
        """The live-level elastic knob on the controller's level delta:
        degrade spends a walker (power for latency), recover releases
        one back to the frugal floor."""
        self.adaptations.value += 1
        if delta > 0 and self.walkers_active < self.walkers_max:
            self.walkers_active += 1
            self.walkers_allocated.value += 1
        elif delta < 0 and self.walkers_active > self.walkers_min:
            self.walkers_active -= 1
            self.walkers_released.value += 1

    # -- shutdown and results ----------------------------------------------

    def close(self, now: Optional[float] = None) -> float:
        """Stop accepting arrivals (queued work still drains)."""
        now = self.advance(now)
        for queue in self.queues:
            queue.close()
        self.closed = True
        return now

    def drain(self) -> float:
        """Run every remaining timed event to completion.

        The servers retire once their closed queues empty, and the
        controller one window after that.  A
        :class:`~repro.live.clock.ManualClock` is advanced to the end so
        the service's clock agrees with its state afterwards.  Only
        valid after :meth:`close` (with arrivals still possible the
        servers never retire).
        """
        if not self.closed:
            raise ServeError("close() the service before drain()")
        end = self.engine.run()
        if isinstance(self.clock, ManualClock):
            self.clock.advance_to(end)
        return end

    def result(self, label: Optional[str] = None) -> ServeResult:
        """Finalize and return the run's :class:`ServeResult`.

        Checks request conservation (served + shed + expired == offered)
        — call after :meth:`close` and :meth:`drain`.
        """
        core = self.core
        if not self.closed or core.servers_live or self.engine.pending_events:
            raise ServeError(
                "result() needs a closed, drained service; call close() "
                "then drain() first")
        makespan = core.finalize(self.engine.now)
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
        """A live snapshot for the server's ``stats`` endpoint.

        A core is busy while its server holds a batch (collecting,
        serving, or re-serving after an abort) rather than waiting on
        its queue.
        """
        core = self.core
        data: Dict[str, Any] = {
            "now": self.engine.now,
            "offered": self.offered,
            "served": int(core.completed.value),
            "shed": int(core.shed.value),
            "expired": int(core.expired.value),
            "queued": sum(len(queue) for queue in self.queues),
            "busy_cores": sum(
                1 for queue, server in zip(self.queues, self._servers)
                if not server.triggered and not queue.waiting_getters),
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
