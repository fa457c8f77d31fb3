"""The transport-agnostic serving core.

Everything the serving layer *decides* — admission bounds, load
shedding, per-request deadlines, SLO accounting, walker-fault capacity,
and the degraded-mode controller — lives here as one clock-free state
machine, :class:`ServingCore`.  The core never schedules and never
sleeps: every method takes explicit ``now`` timestamps, so any driver
that can produce a monotonic time can run it.

Two drivers exist:

* the discrete-event driver (:mod:`repro.serve.simulate`) feeds it
  simulated cycles from the event engine.  Every simulated run, with
  resilience features armed or not, goes through it; the committed
  golden reports pin its event schedule byte for byte;
* the wall-clock driver (:mod:`repro.live`) maps ``time.monotonic`` onto
  cycles and steps the discrete-event driver's own server and
  controller processes from asyncio, so batching, pricing and
  mid-batch walker-fault aborts are the same code in both.

The ``serve.shed``, ``serve.expired`` and ``serve.aborts`` counters are
published only when a run arms a resilience feature (a ``shed:`` or
``timeout:`` wrapper, an explicit ``queue_depth``, or an active
:class:`ResilienceConfig`); otherwise they stay unregistered zeros, and
the stats snapshot is that of a plain throughput–latency run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..errors import ServeError
from ..obs import Counter, Distribution
from .arrivals import Request
from .control import Controller, ControllerSpec
from .faults import CoreCapacity, WalkerFaultModel, build_capacities
from .policies import (BatchBySize, SchedulingPolicy, admission_depth,
                       request_timeout)
from .service import ServiceModel


@dataclass(frozen=True)
class ResilienceConfig:
    """Opt-in resilience settings for one serving run.

    ``slo`` is the end-to-end latency target in cycles (defines the
    goodput numerator, and the controller's setpoint).  ``faults`` is a
    seeded walker-death schedule; when it can fire, ``fallback`` must
    supply the host-core service model the core degrades to once all its
    walkers are dead.  ``controller`` closes the loop from windowed p99
    to the admission/batching knobs and requires an SLO.
    """

    slo: Optional[float] = None
    faults: Optional[WalkerFaultModel] = None
    controller: Optional[ControllerSpec] = None
    fallback: Optional[ServiceModel] = None

    def __post_init__(self) -> None:
        if self.slo is not None and not self.slo > 0:
            raise ServeError(f"SLO must be > 0 cycles, got {self.slo!r}")
        if self.faults is not None and self.faults.active \
                and self.fallback is None:
            raise ServeError(
                "an active walker-fault model needs a host fallback "
                "service model (cores must keep serving when all their "
                "walkers are dead)")
        if self.controller is not None and self.slo is None:
            raise ServeError(
                "a serve controller needs an SLO to regulate against "
                "(pass --serve-slo with --serve-controller)")

    @property
    def active(self) -> bool:
        """Whether any resilience feature is actually switched on."""
        return (self.slo is not None
                or (self.faults is not None and self.faults.active)
                or self.controller is not None)


@dataclass
class ServeResult:
    """Outcome of one open-loop serving run at one offered load."""

    label: str                  # backend label (from the service model)
    policy: str                 # scheduling policy name
    offered: float              # offered load, requests per kilocycle
    cores: int
    requests: int               # requests offered
    completed: int              # requests served (== requests when drained)
    makespan: float             # cycles until the last completion
    latency: Distribution       # end-to-end request latency, cycles
    first_arrival: float = 0.0  # when the first request arrived
    stats: Dict[str, Any] = field(default_factory=dict)
    shed: int = 0               # arrivals rejected at admission
    expired: int = 0            # requests dropped past their deadline
    faults: int = 0             # walker deaths that landed within the run
    slo: Optional[float] = None  # latency SLO in cycles (None = no SLO)
    in_slo: int = 0             # completions within the SLO

    @property
    def achieved(self) -> float:
        """Achieved throughput in requests per kilocycle (saturates at
        service capacity when the offered load exceeds it).

        Measured over the window the system actually had work: from the
        first arrival to the last completion.  Counting the idle lead-in
        before the first request (as an earlier version did) understated
        throughput at low offered loads and small request counts, where
        the lead-in is a visible fraction of the makespan.
        """
        span = self.makespan - self.first_arrival
        if span <= 0:
            return 0.0
        return self.completed * 1000.0 / span

    @property
    def goodput(self) -> float:
        """In-SLO completions per kilocycle (== achieved when no SLO).

        The resilience figure's headline metric: served work only counts
        when it lands inside the latency target, so shedding that keeps
        the remaining traffic in-SLO can *raise* goodput even as it
        lowers raw throughput.
        """
        if self.slo is None:
            return self.achieved
        span = self.makespan - self.first_arrival
        if span <= 0:
            return 0.0
        return self.in_slo * 1000.0 / span

    @property
    def shed_fraction(self) -> float:
        """Fraction of offered requests rejected at admission."""
        return self.shed / self.requests if self.requests else 0.0

    @property
    def p50(self) -> float:
        return self.latency.p50

    @property
    def p95(self) -> float:
        return self.latency.p95

    @property
    def p99(self) -> float:
        return self.latency.p99


def validate_run(requests: Sequence[Request], model: ServiceModel,
                 cores: int) -> None:
    """Shared admission checks for every serving driver (DES, live)."""
    if cores < 1:
        raise ServeError(f"need at least one core, got {cores}")
    if not requests:
        raise ServeError("need at least one request")
    for request in requests:
        if request.keys != model.keys_per_request:
            raise ServeError(
                f"request {request.seq} carries {request.keys} keys but the "
                f"service model was calibrated for {model.keys_per_request}")


class ServingCore:
    """The serving state machine, shared by every transport driver.

    Owns the serve-scope metrics (latency, completion/batch counters,
    shed/expired/abort/SLO accounting), the per-core fault capacities,
    and the controller's windowed-p99 loop.  Drivers own *time*: they
    decide when arrivals, batch completions and controller ticks happen
    and call in with explicit ``now`` values; the core decides what each
    of those events *means*.  On one discrete-event engine every
    read/write is deterministically ordered; the wall-clock driver gets
    the same single-threaded ordering from the asyncio event loop.
    """

    def __init__(self, policy: SchedulingPolicy, model: ServiceModel,
                 cores: int, *, queue_depth: Optional[int] = None,
                 resilience: Optional[ResilienceConfig] = None,
                 scope) -> None:
        if queue_depth is not None and queue_depth < 1:
            raise ServeError(f"queue_depth must be >= 1, got {queue_depth}")
        self.scope = scope
        self.model = model
        self.cores = cores
        # Serve-scope metrics, in a fixed registration order (snapshot
        # layout is part of the golden contract).
        self.latency = scope.distribution("latency")
        self.completed = scope.counter("completed")
        self.batches = scope.counter("batches")
        self.busy_cycles = scope.register("busy_cycles", Counter(0.0))
        self.base = policy
        self.active = policy
        self.timeout = request_timeout(policy)
        self.shed_declared = admission_depth(policy) is not None
        depths = [d for d in (queue_depth, admission_depth(policy))
                  if d is not None]
        self.static_depth = min(depths) if depths else None
        self.slo = resilience.slo if resilience is not None else None
        # The drop counters are published only when a resilience feature
        # is armed; a run with none keeps them as unregistered zeros.
        armed = (self.static_depth is not None or self.timeout is not None
                 or (resilience is not None and resilience.active))
        self.shed, self.expired, self.aborts = (
            scope.counter(name) if armed else Counter()
            for name in ("shed", "expired", "aborts"))
        self.in_slo = (scope.counter("in_slo")
                       if self.slo is not None else None)
        self.servers_live = cores
        self.last_done = 0.0
        self.controller: Optional[Controller] = None
        self.controller_depth: Optional[int] = None
        self.spares_used = 0
        self._window: Optional[Distribution] = None
        if resilience is not None and resilience.controller is not None:
            self.controller = Controller(resilience.controller,
                                         resilience.slo)
            self._window = Distribution()
        # Whether an admission bound can ever apply: a static depth, or
        # one a controller may impose mid-run.
        self.bounded = (self.static_depth is not None
                        or self.controller is not None)
        self.faults_model = resilience.faults if resilience is not None \
            else None
        fallback = resilience.fallback if resilience is not None else None
        self.capacities: List[CoreCapacity] = build_capacities(
            self.faults_model, cores, model, fallback)
        self.fault_total = 0

    # -- admission -------------------------------------------------------

    def bound(self) -> Optional[int]:
        """The admission depth currently in force (None = unbounded)."""
        depths = [d for d in (self.static_depth, self.controller_depth)
                  if d is not None]
        return min(depths) if depths else None

    def can_shed(self) -> bool:
        """Whether a full queue sheds (vs. raising): shedding must be
        *declared*, by a ``shed:`` wrapper or a controller degradation."""
        return self.shed_declared or self.controller_depth is not None

    def try_admit(self, depth: int, queue_name: str) -> bool:
        """Admit an arrival finding ``depth`` requests queued on its core.

        Returns False when the arrival is shed (counted); raises when the
        queue is at its bound and shedding is not declared — the
        open-loop contract that admission never silently blocks.
        """
        # Inline bound(): this runs once per arrival on the hot path.
        bound = self.static_depth
        controller_depth = self.controller_depth
        if controller_depth is not None and (bound is None
                                             or controller_depth < bound):
            bound = controller_depth
        if bound is None or depth < bound:
            return True
        if self.can_shed():
            self.shed.value += 1
            return False
        raise ServeError(
            f"admission queue {queue_name!r} is full ({depth} "
            f"queued, bound {bound}) and no shed depth is declared; "
            f"the open-loop source must never block — wrap the policy "
            f"in 'shed:N' or raise queue_depth")

    # -- deadlines -------------------------------------------------------

    def drop_doomed(self, batch: List[Request], now: float,
                    capacity: CoreCapacity) -> List[Request]:
        """Drop requests that cannot finish by their deadline.

        Covers both queued expiry (deadline already past) and in-service
        expiry (deadline inside the batch's service window): serving a
        request that will miss its deadline anyway is wasted capacity,
        so the core drops it *before* committing — the all-or-nothing
        offload model.  Shrinking the batch can shorten the service
        time, so filter to a fixed point.
        """
        timeout = self.timeout
        if timeout is None:
            return batch
        while batch:
            cycles = capacity.cycles_for(len(batch), now)
            alive = [r for r in batch if r.arrival + timeout >= now + cycles]
            if len(alive) == len(batch):
                break
            self.expired.value += len(batch) - len(alive)
            batch = alive
        return batch

    # -- completion accounting -------------------------------------------

    def finish_batch(self, batch: Sequence[Request], cycles: float,
                     done: float) -> None:
        """Account one served batch: throughput, latency, SLO, window."""
        self.batches.value += 1
        self.busy_cycles.value += cycles
        record = self.latency.record
        slo = self.slo
        in_slo = self.in_slo
        window = self._window
        for request in batch:
            request_latency = done - request.arrival
            record(request_latency)
            if in_slo is not None and request_latency <= slo:
                in_slo.value += 1
            if window is not None:
                window.record(request_latency)
        self.completed.value += len(batch)
        self.last_done = done

    def record_abort(self, busy: float) -> None:
        """Account a batch aborted mid-service by a walker death."""
        self.busy_cycles.value += busy
        self.aborts.value += 1

    def server_done(self) -> None:
        """One server loop retired; finalize() waits for all of them."""
        self.servers_live -= 1

    # -- controller ------------------------------------------------------

    def window_p99(self) -> Optional[float]:
        """This window's p99 (None when empty); resets the window."""
        window = self._window
        if window is None or window.count == 0:
            return None
        p99 = window.p99
        window.reset()
        return p99

    def controller_tick(self, now: float) -> int:
        """One controller window: observe the p99, apply the level change.

        Returns the level delta (-1/0/+1) so drivers can layer their own
        adaptations (the live path adds elastic walker allocation) on
        the same observation.
        """
        controller = self.controller
        spec = controller.spec
        delta = controller.observe(self.window_p99())
        if delta == 0:
            return 0
        if spec.action in ("shed", "all"):
            self.controller_depth = spec.shed_depth_at(controller.level)
        if spec.action in ("batch", "all"):
            self.active = (BatchBySize(spec.batch) if controller.level > 0
                           else self.base)
        if (delta > 0 and spec.action in ("walkers", "all")
                and self.spares_used < spec.spares):
            # Repair the most-degraded core with one spare walker.
            worst = max(self.capacities, key=lambda cap: cap.dead(now))
            if worst.repair(now):
                self.spares_used += 1
        return delta

    # -- finalization ----------------------------------------------------

    def finalize(self, end: float) -> float:
        """Compute the makespan and publish end-of-run stats.

        With a controller the driver runs up to one idle window past the
        last completion; the makespan is still the last completion.
        """
        makespan = (self.last_done
                    if self.controller is not None and self.completed.value
                    else end)
        self.fault_total = 0
        if self.faults_model is not None and self.faults_model.active:
            self.fault_total = sum(cap.faults_by(makespan)
                                   for cap in self.capacities)
            self.scope.counter("faults").value = self.fault_total
        if self.controller is not None:
            controller_scope = self.scope.scope("controller")
            controller_scope.counter("windows").value = \
                self.controller.windows
            controller_scope.counter("breaches").value = \
                self.controller.breaches
            controller_scope.counter("degradations").value = \
                self.controller.degradations
            controller_scope.counter("recoveries").value = \
                self.controller.recoveries
            controller_scope.counter("peak_level").value = \
                self.controller.peak_level
        return makespan

    def check_conservation(self, offered: int) -> None:
        """Every offered request must be served, shed or expired."""
        served = int(self.completed.value)
        shed = int(self.shed.value)
        expired = int(self.expired.value)
        if served + shed + expired != offered:
            raise ServeError(
                f"request conservation violated: {offered} arrived but "
                f"{served} served + {shed} shed + {expired} expired")
