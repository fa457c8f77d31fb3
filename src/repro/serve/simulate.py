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

**Resilience.**  The happy path above is byte-for-byte the PR 6 serving
simulation.  A run becomes *resilient* only when asked: a ``shed:`` /
``timeout:`` policy wrapper, an explicit ``queue_depth``, or a
:class:`~repro.serve.core.ResilienceConfig` (SLO, fault model,
controller).  Plain runs never touch the resilient code, which is what
keeps fig-serve's output bit-identical to the pre-resilience tree.

**Layering.**  Since the core extraction, every serving *decision* —
admission bounds, shedding, deadline drops, SLO accounting, the
degraded-mode controller — lives in the transport-agnostic
:class:`~repro.serve.core.ServingCore`; this module's resilient
source/server/controller processes are thin drivers that feed it
engine timestamps.  The same core drives the wall-clock
:mod:`repro.live` service, and the committed golden reports pin this
driver's event schedule byte-for-byte across the refactor.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..errors import ServeError
from ..obs import Counter, StatsRegistry
from ..sim.engine import Engine
from ..sim.resources import BoundedQueue
from .arrivals import (ArrivalProcess, DeterministicArrivals, PoissonArrivals,
                       Request, merge_requests)
from .core import ResilienceConfig, ServeResult, ServingCore, validate_run
from .policies import SchedulingPolicy, admission_depth, request_timeout
from .service import ServiceModel

# Compatibility re-exports: ResilienceConfig/ServeResult moved to
# repro.serve.core with the core extraction; every existing import path
# (`from repro.serve.simulate import ResilienceConfig`) keeps working.
__all__ = [
    "ResilienceConfig", "ServeResult", "build_requests", "run_open_loop",
    "simulate_service",
]


def _source(engine: Engine, requests: Sequence[Request],
            queues: List[BoundedQueue]):
    """Emit each request at its arrival time, round-robin across cores."""
    cores = len(queues)
    for request in requests:
        delay = request.arrival - engine.now
        if delay > 0:
            yield delay
        yield queues[request.seq % cores].put(request)
    for queue in queues:
        queue.close()


def _server(engine: Engine, queue: BoundedQueue, policy: SchedulingPolicy,
            model: ServiceModel, latency, completed, batches,
            busy_cycles):
    """Collect batches through the policy and serve them to completion."""
    while True:
        batch = yield from policy.collect(queue)
        if batch is None:
            return
        cycles = model.cycles_for(len(batch))
        yield cycles
        done = engine.now
        batches.value += 1
        busy_cycles.value += cycles
        for request in batch:
            latency.record(done - request.arrival)
            completed.value += 1


def _resilient_source(engine: Engine, requests: Sequence[Request],
                      queues: List[BoundedQueue], core: ServingCore):
    """The open-loop source with bounded admission.

    Identical yield pattern to :func:`_source` except that an arrival
    finding its core's queue at the admission bound is shed (when a shed
    depth is declared) or raises — the satellite contract that open-loop
    admission must never silently block.
    """
    cores = len(queues)
    try_admit = core.try_admit
    for request in requests:
        delay = request.arrival - engine.now
        if delay > 0:
            yield delay
        queue = queues[request.seq % cores]
        if not try_admit(len(queue), queue.name):
            continue
        yield queue.put(request)
    for queue in queues:
        queue.close()


def _resilient_server(engine: Engine, queue: BoundedQueue,
                      core: ServingCore, capacity):
    """The per-core server under deadlines, faults, and policy swaps.

    Matches :func:`_server` yield-for-yield when no deadline filters and
    no death interrupts a batch — the clean-path bit-parity the
    fault-rate-zero acceptance check relies on.
    """
    drop_doomed = core.drop_doomed
    cycles_for = capacity.cycles_for
    next_death_after = capacity.next_death_after
    finish_batch = core.finish_batch
    while True:
        # core.active is re-read per batch: the controller swaps it.
        batch = yield from core.active.collect(queue)
        if batch is None:
            core.server_done()
            return
        while batch:
            start = engine.now
            batch = drop_doomed(batch, start, capacity)
            if not batch:
                break
            cycles = cycles_for(len(batch), start)
            death = next_death_after(start)
            if death is not None and death < start + cycles:
                # A walker dies mid-batch: the offload aborts at the
                # death instant and the whole batch re-serves under the
                # degraded capacity (traversals are all-or-nothing).
                yield death - start
                core.record_abort(death - start)
                continue
            yield cycles
            finish_batch(batch, cycles, engine.now)
            break


def _controller_proc(engine: Engine, core: ServingCore):
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

    ``resilience`` and ``queue_depth`` (and ``shed:``/``timeout:``
    policy wrappers) switch the run onto the resilient source/server
    pair; without them the original plain path runs, untouched.
    """
    validate_run(requests, model, cores)
    if queue_depth is not None and queue_depth < 1:
        raise ServeError(f"queue_depth must be >= 1, got {queue_depth}")
    resilient = (queue_depth is not None
                 or admission_depth(policy) is not None
                 or request_timeout(policy) is not None
                 or (resilience is not None and resilience.active))
    if resilient:
        return _simulate_resilient(requests, model, policy=policy,
                                   cores=cores, offered=offered,
                                   registry=registry, resilience=resilience,
                                   queue_depth=queue_depth)

    if registry is None:
        registry = StatsRegistry()
    scope = registry.scope("serve")
    latency = scope.distribution("latency")
    completed = scope.counter("completed")
    batches = scope.counter("batches")
    busy_cycles = scope.register("busy_cycles", Counter(0.0))

    engine = Engine()
    # Queues sized to the whole stream keep the source open-loop: an
    # arrival is never back-pressured, overload turns into backlog.
    queues = [BoundedQueue(engine, max(1, len(requests)), name=f"core{i}.admit")
              for i in range(cores)]
    for i, queue in enumerate(queues):
        queue.register_into(registry, f"serve.core{i}.queue")
        engine.monitor_resource(queue.name, queue)
    engine.process(_source(engine, requests, queues), name="serve.source")
    for i, queue in enumerate(queues):
        engine.process(
            _server(engine, queue, policy, model, latency, completed,
                    batches, busy_cycles),
            name=f"serve.core{i}.server")
    makespan = engine.run()
    engine.register_into(registry, "serve.engine")

    return ServeResult(
        label=model.label, policy=policy.name, offered=offered, cores=cores,
        requests=len(requests), completed=int(completed.value),
        makespan=makespan, latency=latency,
        first_arrival=min(request.arrival for request in requests),
        stats=registry.to_dict())


def _simulate_resilient(requests: Sequence[Request], model: ServiceModel, *,
                        policy: SchedulingPolicy, cores: int, offered: float,
                        registry: Optional[StatsRegistry],
                        resilience: Optional[ResilienceConfig],
                        queue_depth: Optional[int]) -> ServeResult:
    """The resilient twin of the plain serving run.

    Same engine, same queue sizing, same per-core layout; the
    :class:`~repro.serve.core.ServingCore` adds bounded admission,
    per-request deadlines, the walker-fault capacity model, and
    (optionally) the degraded-mode controller.  With everything disabled
    but an SLO, the event schedule is identical to the plain path — only
    the in-SLO accounting differs.
    """
    if registry is None:
        registry = StatsRegistry()
    scope = registry.scope("serve")
    core = ServingCore(policy, model, cores, queue_depth=queue_depth,
                       resilience=resilience, scope=scope)

    engine = Engine()
    # Queue capacity stays open-loop-sized; the admission *bound* is
    # enforced by the resilient source (it can tighten mid-run under a
    # controller, which a fixed queue capacity could not express).
    queues = [BoundedQueue(engine, max(1, len(requests)), name=f"core{i}.admit")
              for i in range(cores)]
    for i, queue in enumerate(queues):
        queue.register_into(registry, f"serve.core{i}.queue")
        engine.monitor_resource(queue.name, queue)
    engine.process(_resilient_source(engine, requests, queues, core),
                   name="serve.source")
    for i, queue in enumerate(queues):
        engine.process(
            _resilient_server(engine, queue, core, core.capacities[i]),
            name=f"serve.core{i}.server")
    if core.controller is not None:
        engine.process(_controller_proc(engine, core),
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
