"""The open-loop serving simulation: the discrete-event *driver*.

Composes the serving pieces on the discrete-event engine: an arrival
source feeds per-core admission queues round-robin, one server process
per core collects batches through a scheduling policy and holds the
core busy for the calibrated service time, and every completed
request's end-to-end latency (queueing + batching + service) lands in a
:class:`~repro.obs.metrics.Distribution` for tail extraction.

Open loop means arrivals never throttle: the admission queues are sized
to hold the whole request stream, so offered load beyond saturation
builds backlog and latency instead of slowing the source — the regime
the throughput–latency figure exists to show.

**One driver.**  Every run builds one
:class:`~repro.serve.core.ServingCore`, which holds every serving
*decision*: admission bounds, shedding, deadline drops, walker-fault
capacity, SLO accounting and the degraded-mode controller.  This
module's source, server and controller processes only feed it engine
timestamps.  A run arms those features when asked — a ``shed:`` /
``timeout:`` policy wrapper, an explicit ``queue_depth``, or an active
:class:`~repro.serve.core.ResilienceConfig` (SLO, fault model,
controller) — and the processes skip each check that cannot fire, so a
run with none armed keeps the event schedule of the original
throughput–latency simulation (the fig-serve golden pins it byte for
byte).  The wall-clock :mod:`repro.live` service runs
:func:`server_process` and :func:`controller_process` too, on an engine
it steps to the caller's clock.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..errors import ServeError
from ..obs import StatsRegistry
from ..sim.engine import Engine
from ..sim.resources import BoundedQueue
from .arrivals import (ArrivalProcess, DeterministicArrivals, PoissonArrivals,
                       Request, merge_requests)
from .core import ResilienceConfig, ServeResult, ServingCore, validate_run
from .faults import CoreCapacity
from .policies import SchedulingPolicy
from .service import ServiceModel

# Compatibility re-exports: ResilienceConfig/ServeResult moved to
# repro.serve.core with the core extraction; every existing import path
# (`from repro.serve.simulate import ResilienceConfig`) keeps working.
__all__ = [
    "ResilienceConfig", "ServeResult", "build_requests", "controller_process",
    "run_open_loop", "server_process", "simulate_service",
]


def _source(engine: Engine, requests: Sequence[Request],
            queues: List[BoundedQueue], core: ServingCore):
    """Emit each request at its arrival time, round-robin across cores.

    An arrival finding its core's queue at the admission bound is shed
    (when a shed depth is declared) or raises — open-loop admission
    never silently blocks.  Without a static depth or a controller no
    bound can ever apply, so admission is skipped.
    """
    cores = len(queues)
    try_admit = core.try_admit if core.bounded else None
    for request in requests:
        delay = request.arrival - engine.now
        if delay > 0:
            yield delay
        queue = queues[request.seq % cores]
        if try_admit is not None and not try_admit(len(queue), queue.name):
            continue
        yield queue.put(request)
    for queue in queues:
        queue.close()


def server_process(engine: Engine, queue: BoundedQueue, core: ServingCore,
                   capacity: CoreCapacity):
    """Collect batches through the core's active policy and serve them.

    Requests that would miss their deadline are dropped before a batch
    commits, and a walker death inside a batch aborts it at the death
    instant.  Each check is skipped when it cannot fire: deadline drops
    without a timeout, and the death check (with capacity scaling) on a
    core that has no deaths, which serves at the calibrated model.
    """
    drop_doomed = core.drop_doomed if core.timeout is not None else None
    deaths = bool(capacity.deaths)
    model_cycles = capacity.model.cycles_for
    finish_batch = core.finish_batch
    while True:
        # core.active is re-read per batch: the controller swaps it.
        batch = yield from core.active.collect(queue)
        if batch is None:
            core.server_done()
            return
        while batch:
            start = engine.now
            if drop_doomed is not None:
                batch = drop_doomed(batch, start, capacity)
                if not batch:
                    break
            if not deaths:
                cycles = model_cycles(len(batch))
            else:
                cycles = capacity.cycles_for(len(batch), start)
                death = capacity.next_death_after(start)
                if death is not None and death < start + cycles:
                    # The offload aborts at the death instant and the
                    # whole batch re-serves under the degraded capacity
                    # (traversals are all-or-nothing).
                    yield death - start
                    core.record_abort(death - start)
                    continue
            yield cycles
            finish_batch(batch, cycles, engine.now)
            break


def controller_process(engine: Engine, core: ServingCore):
    """Window tick: hand the core one controller observation per window.

    Runs until every server has drained, so the controller never
    outlives the work by more than one window.
    """
    window = core.controller.spec.window
    while core.servers_live > 0:
        yield window
        core.controller_tick(engine.now)


def simulate_service(requests: Sequence[Request], model: ServiceModel, *,
                     policy: SchedulingPolicy, cores: int,
                     offered: float = 0.0,
                     registry: Optional[StatsRegistry] = None,
                     resilience: Optional[ResilienceConfig] = None,
                     queue_depth: Optional[int] = None) -> ServeResult:
    """Serve a fixed request stream on ``cores`` identical servers.

    ``requests`` must already be in global arrival order (see
    :func:`~repro.serve.arrivals.merge_requests`).  The run is fully
    deterministic: one engine, deterministic dispatch, no randomness
    outside the arrival times baked into ``requests``.

    Every run drives one :class:`~repro.serve.core.ServingCore`.
    ``queue_depth``, ``shed:``/``timeout:`` policy wrappers and
    ``resilience`` arm its admission bound, deadlines, walker faults,
    SLO accounting and controller; with none of them armed the core
    only times and records the batches.
    """
    validate_run(requests, model, cores)
    if registry is None:
        registry = StatsRegistry()
    core = ServingCore(policy, model, cores, queue_depth=queue_depth,
                       resilience=resilience, scope=registry.scope("serve"))

    engine = Engine()
    # Queues sized to the whole stream keep the source open-loop: an
    # arrival is never back-pressured, overload turns into backlog.  The
    # admission *bound* is the source's to enforce (a controller can
    # tighten it mid-run, which a fixed queue capacity could not).
    queues = [BoundedQueue(engine, max(1, len(requests)), name=f"core{i}.admit")
              for i in range(cores)]
    for i, queue in enumerate(queues):
        queue.register_into(registry, f"serve.core{i}.queue")
        engine.monitor_resource(queue.name, queue)
    engine.process(_source(engine, requests, queues, core),
                   name="serve.source")
    for i, queue in enumerate(queues):
        engine.process(
            server_process(engine, queue, core, core.capacities[i]),
            name=f"serve.core{i}.server")
    if core.controller is not None:
        engine.process(controller_process(engine, core),
                       name="serve.controller")
    end = engine.run()
    engine.register_into(registry, "serve.engine")

    makespan = core.finalize(end)
    core.check_conservation(len(requests))
    return ServeResult(
        label=model.label, policy=policy.name, offered=offered, cores=cores,
        requests=len(requests), completed=int(core.completed.value),
        makespan=makespan, latency=core.latency,
        first_arrival=min(request.arrival for request in requests),
        stats=registry.to_dict(),
        shed=int(core.shed.value), expired=int(core.expired.value),
        faults=core.fault_total,
        slo=core.slo,
        in_slo=int(core.in_slo.value) if core.in_slo is not None else 0)


def build_requests(rate: float, num_requests: int, keys_per_request: int, *,
                   clients: int = 1, seed: int = 0,
                   arrival: str = "poisson") -> List[Request]:
    """Build a merged open-loop request stream at total rate ``rate``.

    ``clients`` independent streams each emit at ``rate / clients``;
    Poisson streams get per-client seeds derived from ``seed``.  Because
    every stream scales by the same rate, the merged arrival *order* is
    rate-invariant — raising the offered load compresses the same
    pattern, which keeps per-request latency (and so every percentile)
    weakly non-decreasing in load for work-conserving policies.
    """
    if clients < 1:
        raise ServeError(f"need at least one client, got {clients}")
    if num_requests < clients:
        raise ServeError(
            f"need at least one request per client "
            f"({num_requests} requests, {clients} clients)")
    per_client = rate / clients
    base = num_requests // clients
    remainder = num_requests % clients
    streams = []
    for client in range(clients):
        count = base + (1 if client < remainder else 0)
        process: ArrivalProcess
        if arrival == "poisson":
            process = PoissonArrivals(per_client, seed=seed + client)
        elif arrival == "deterministic":
            process = DeterministicArrivals(per_client)
        else:
            raise ServeError(
                f"unknown arrival process {arrival!r}; "
                f"want 'poisson' or 'deterministic'")
        streams.append(process.requests(count, keys_per_request,
                                        client=client))
    return merge_requests(streams)


def run_open_loop(model: ServiceModel, *, rate: float, num_requests: int,
                  policy: SchedulingPolicy, cores: int,
                  clients: int = 1, seed: int = 0,
                  arrival: str = "poisson",
                  resilience: Optional[ResilienceConfig] = None,
                  queue_depth: Optional[int] = None) -> ServeResult:
    """Convenience: build the arrival stream and serve it."""
    requests = build_requests(rate, num_requests, model.keys_per_request,
                              clients=clients, seed=seed, arrival=arrival)
    return simulate_service(requests, model, policy=policy, cores=cores,
                            offered=rate, resilience=resilience,
                            queue_depth=queue_depth)
