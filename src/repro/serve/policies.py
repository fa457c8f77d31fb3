"""Pluggable batch-scheduling policies for the per-core admission queues.

A policy's :meth:`~SchedulingPolicy.collect` is a *simulation generator*:
the per-core server process runs it via ``yield from`` against its
:class:`~repro.sim.resources.BoundedQueue`, and the return value is the
batch of requests to serve next (or ``None`` once the queue is closed
and drained).  Policies are stateless between collections, so one
instance can serve every core.

Three policies, in increasing willingness to trade latency for batching:

* :class:`FifoPolicy` — serve each request alone, immediately.
* :class:`BatchBySize` — greedily absorb already-queued requests up to a
  cap; never waits for future arrivals.
* :class:`BatchByDeadline` — after the first request arrives, hold the
  batch open a fixed number of cycles, then serve everything queued
  (optionally capped).

On top of those, two composable *admission wrappers* (the resilience
layer; see :mod:`repro.serve.core`):

* :class:`ShedPolicy` (``shed:QDEPTH:<inner>``) — bounded admission: an
  arrival that finds ``QDEPTH`` requests already queued on its core is
  rejected (shed) instead of parked, so overload turns into explicit
  drops rather than unbounded backlog.
* :class:`TimeoutPolicy` (``timeout:CYCLES:<inner>``) — a per-request
  deadline of ``CYCLES`` after arrival; requests past it are dropped
  (expired) whether they are still queued or would expire mid-service.

Wrappers only *declare* the admission semantics — the
:class:`~repro.serve.core.ServingCore` enforces them for every driver
(:func:`~repro.serve.simulate.simulate_service` and :mod:`repro.live`);
a wrapper's ``collect`` simply delegates to its inner policy, so wrapped
policies stay usable anywhere a policy is.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..errors import ServeError
from ..sim.resources import BoundedQueue, QUEUE_CLOSED
from .arrivals import Request


class SchedulingPolicy:
    """Interface: decide which queued requests form the next batch."""

    name: str = "policy"

    def collect(self, queue: BoundedQueue):
        """Simulation generator returning the next batch (``None`` = the
        queue is closed and fully drained)."""
        raise NotImplementedError
        yield  # pragma: no cover - marks this as a generator signature

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class FifoPolicy(SchedulingPolicy):
    """One request per batch, served in arrival order."""

    name = "fifo"

    def collect(self, queue: BoundedQueue):
        """Block for one request; that request is the whole batch."""
        item = yield queue.get()
        if item is QUEUE_CLOSED:
            return None
        return [item]


class BatchBySize(SchedulingPolicy):
    """Serve up to ``max_batch`` requests, but only ones already queued.

    Work-conserving: the server never idles waiting for a fuller batch,
    it just sweeps whatever backlog exists when it becomes free.
    """

    def __init__(self, max_batch: int) -> None:
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch
        self.name = f"size:{max_batch}"

    def collect(self, queue: BoundedQueue):
        """Block for one request, then greedily drain the backlog."""
        first = yield queue.get()
        if first is QUEUE_CLOSED:
            return None
        batch: List[Request] = [first]
        while len(batch) < self.max_batch and len(queue) > 0:
            item = yield queue.get()
            if item is QUEUE_CLOSED:
                break
            batch.append(item)
        return batch


class BatchByDeadline(SchedulingPolicy):
    """Hold the batch open ``wait`` cycles after its first request, then
    serve everything queued (up to ``max_batch`` if given).

    The deadline bounds the batching delay any request can be charged:
    a request waits at most ``wait`` cycles for co-batched company, on
    top of ordinary queueing behind earlier batches.
    """

    def __init__(self, wait: float, max_batch: Optional[int] = None) -> None:
        # Reject NaN (compares false) and inf (a server that yields an
        # infinite hold-open delay never wakes, wedging the engine).
        if not (wait >= 0 and math.isfinite(wait)):
            raise ServeError(f"wait must be finite and >= 0, got {wait!r}")
        if max_batch is not None and max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}")
        self.wait = float(wait)
        self.max_batch = max_batch
        self.name = (f"deadline:{wait:g}" if max_batch is None
                     else f"deadline:{wait:g}:{max_batch}")

    def collect(self, queue: BoundedQueue):
        """Block for one request, hold ``wait`` cycles, then drain."""
        first = yield queue.get()
        if first is QUEUE_CLOSED:
            return None
        batch: List[Request] = [first]
        if self.wait > 0:
            yield self.wait
        while ((self.max_batch is None or len(batch) < self.max_batch)
               and len(queue) > 0):
            item = yield queue.get()
            if item is QUEUE_CLOSED:
                break
            batch.append(item)
        return batch


class AdmissionWrapper(SchedulingPolicy):
    """Base for policies that wrap another policy with admission semantics.

    ``collect`` delegates to the wrapped policy — the shed/timeout
    behavior itself is enforced by the
    :class:`~repro.serve.core.ServingCore`, which reads the wrapper's
    declaration via :func:`admission_depth` / :func:`request_timeout`
    and arms its admission bound and deadline drops from it.
    """

    def __init__(self, inner: SchedulingPolicy) -> None:
        if not isinstance(inner, SchedulingPolicy):
            raise ServeError(
                f"admission wrapper needs a policy to wrap, got {inner!r}")
        self.inner = inner

    def collect(self, queue: BoundedQueue):
        """Delegate batch formation to the wrapped policy."""
        batch = yield from self.inner.collect(queue)
        return batch


class ShedPolicy(AdmissionWrapper):
    """Bounded admission: shed arrivals that find ``depth`` queued."""

    def __init__(self, depth: int, inner: Optional[SchedulingPolicy] = None,
                 ) -> None:
        super().__init__(inner if inner is not None else FifoPolicy())
        if depth < 1:
            raise ServeError(f"shed depth must be >= 1, got {depth}")
        self.depth = depth
        self.name = f"shed:{depth}:{self.inner.name}"


class TimeoutPolicy(AdmissionWrapper):
    """Per-request deadline: drop requests ``cycles`` after arrival.

    The deadline aborts queued *and* in-service work: a request still
    queued at its deadline expires when the server next collects, and a
    request that would cross its deadline mid-service is dropped from
    the batch before the core commits to serving it (the all-or-nothing
    offload model — a traversal either completes in time or is never
    charged to the walkers).
    """

    def __init__(self, cycles: float,
                 inner: Optional[SchedulingPolicy] = None) -> None:
        super().__init__(inner if inner is not None else FifoPolicy())
        if not (cycles > 0 and math.isfinite(cycles)):
            raise ServeError(
                f"timeout must be finite and > 0, got {cycles!r}")
        self.cycles = float(cycles)
        self.name = f"timeout:{cycles:g}:{self.inner.name}"


def admission_depth(policy: SchedulingPolicy) -> Optional[int]:
    """The tightest shed depth declared by ``policy``'s wrappers (or None)."""
    depth: Optional[int] = None
    while isinstance(policy, AdmissionWrapper):
        if isinstance(policy, ShedPolicy):
            depth = policy.depth if depth is None else min(depth, policy.depth)
        policy = policy.inner
    return depth


def request_timeout(policy: SchedulingPolicy) -> Optional[float]:
    """The tightest per-request deadline declared by ``policy`` (or None)."""
    timeout: Optional[float] = None
    while isinstance(policy, AdmissionWrapper):
        if isinstance(policy, TimeoutPolicy):
            timeout = (policy.cycles if timeout is None
                       else min(timeout, policy.cycles))
        policy = policy.inner
    return timeout


def base_policy(policy: SchedulingPolicy) -> SchedulingPolicy:
    """The innermost (batch-forming) policy under any admission wrappers."""
    while isinstance(policy, AdmissionWrapper):
        policy = policy.inner
    return policy


#: Every spec the parser accepts, for error messages.
_VALID_FORMS = ("'fifo', 'size:N', 'deadline:CYCLES[:N]', "
                "'shed:QDEPTH[:SPEC]' and 'timeout:CYCLES[:SPEC]'")


def _policy_error(spec: str, detail: str) -> ServeError:
    return ServeError(
        f"bad scheduling policy spec {spec!r}: {detail}; "
        f"valid policies are {_VALID_FORMS}")


def parse_policy(spec: str) -> SchedulingPolicy:
    """Parse a policy spec string.

    Base specs: ``fifo``, ``size:N`` or ``deadline:CYCLES[:N]``.
    Admission wrappers compose recursively around any base spec:
    ``shed:QDEPTH[:<spec>]`` and ``timeout:CYCLES[:<spec>]`` (the inner
    spec defaults to ``fifo``), e.g. ``shed:64:timeout:5000:size:4``.

    Malformed specs raise :class:`~repro.errors.ServeError` naming the
    offending token and listing the valid policies.  A wrapper kind may
    appear at most once per chain (``shed:4:shed:8`` is rejected — the
    enforcement rule is "the tightest bound wins", so a doubled wrapper
    is at best redundant and at worst a silently ignored number); empty
    tokens from a trailing or doubled ``:`` are rejected rather than
    swallowed.
    """
    return _parse_parts(spec.strip().split(":"), spec, frozenset())


def _parse_parts(parts: List[str], spec: str,
                 seen: frozenset) -> SchedulingPolicy:
    token = ":".join(parts)
    kind = parts[0].lower()
    if not kind:
        raise _policy_error(
            spec, "empty policy token (a doubled or trailing ':'?)")
    try:
        if kind == "fifo":
            if len(parts) != 1:
                raise _policy_error(
                    spec, f"'fifo' takes no arguments (token {token!r})")
            return FifoPolicy()
        if kind == "size":
            if len(parts) != 2 or not parts[1]:
                raise _policy_error(
                    spec, f"'size' takes exactly one argument, 'size:N' "
                          f"(token {token!r})")
            return BatchBySize(int(parts[1]))
        if kind == "deadline":
            if len(parts) not in (2, 3) or not all(parts[1:]):
                raise _policy_error(
                    spec, f"'deadline' takes one or two arguments, "
                          f"'deadline:CYCLES[:N]' (token {token!r})")
            wait = float(parts[1])
            cap = int(parts[2]) if len(parts) == 3 else None
            return BatchByDeadline(wait, cap)
        if kind in ("shed", "timeout"):
            if len(parts) < 2 or not parts[1]:
                argument = "QDEPTH" if kind == "shed" else "CYCLES"
                raise _policy_error(
                    spec, f"'{kind}' needs an argument, "
                          f"'{kind}:{argument}[:SPEC]' (token {token!r})")
            if kind in seen:
                raise _policy_error(
                    spec, f"duplicate '{kind}' wrapper (token {token!r} "
                          f"repeats a '{kind}' further out; each admission "
                          f"wrapper may appear once per chain)")
            inner = (_parse_parts(parts[2:], spec, seen | {kind})
                     if len(parts) > 2 else None)
            if kind == "shed":
                return ShedPolicy(int(parts[1]), inner)
            return TimeoutPolicy(float(parts[1]), inner)
    except ValueError as exc:
        raise _policy_error(spec, f"{exc} (token {token!r})") from exc
    raise _policy_error(spec, f"unknown policy {parts[0]!r} (token {token!r})")
