"""The discrete-event engine.

Processes are generators.  Yield semantics:

* ``yield <number>`` — suspend for that many cycles.
* ``yield <Event>`` — suspend until the event fires; the yield expression
  evaluates to the event's value.  If the event *failed*, the exception is
  thrown into the generator at the yield point instead.

The engine guarantees that wakeups are processed in non-decreasing time
order, which is what makes the passive (analytic) resource models in
:mod:`repro.mem` causally correct: every resource reservation is issued at a
simulation time no earlier than any previously issued reservation's time.

**Failure model.**  An exception raised inside a process generator fails
that process's completion event instead of corrupting whichever callback
happened to resume it.  Waiting processes receive the exception at their
yield point (and may catch it); a failure no process handles is re-raised
by :meth:`Engine.run` with the failing process's name attached, after the
event queue drains.  A drained queue with live (blocked) processes is a
deadlock and raises :class:`~repro.errors.SimulationHang` with a diagnostic
dump; livelock and budget overruns are policed by an attachable
:class:`~repro.sim.watchdog.Watchdog`.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import (Any, Deque, Dict, Generator, Iterable, List, Optional,
                    Tuple)

from ..errors import ProcessError, SimulationError, SimulationHang
from ..obs import Counter
from .events import Event

ProcessGenerator = Generator[Any, Any, Any]

_INF = float("inf")

#: One scheduled wakeup: ``(when, seq, process, payload, exc)``.  A
#: process resume carries its value (or ``exc``) as ``payload``; generic
#: scheduled work has ``process`` None and the callback as ``payload``.
#: ``seq`` is unique, so ``heapq``'s C tuple comparison orders entries by
#: ``(when, seq)`` and never reaches the payload.
_Wakeup = Tuple[float, int, Optional["Process"], Any,
                Optional[BaseException]]


class Process(Event):
    """A running process; it is itself an event that fires on completion."""

    __slots__ = ("_generator", "_engine", "name", "waiting_on", "_on_wait",
                 "_halted")

    def __init__(self, engine: "Engine", generator: ProcessGenerator,
                 name: str = "") -> None:
        super().__init__()
        self._generator = generator
        self._engine = engine
        self.name = name or getattr(generator, "__name__", "process")
        self.waiting_on: Any = None
        self._halted = False
        # One bound method for the lifetime of the process instead of a
        # fresh one per wait (`self._wait_done` allocates on every access).
        self._on_wait = self._wait_done

    def terminate(self) -> None:
        """Fail-stop the process from outside (fault injection).

        Closes the generator (its ``finally`` blocks run), then fires the
        completion event so dependents — close chains, joiners, the
        engine's live-process accounting — advance normally.  Any wakeup
        already scheduled for this process becomes a no-op.  Idempotent,
        and a no-op on a process that already finished.
        """
        if self.triggered:
            return
        self._halted = True
        self.waiting_on = None
        self._generator.close()
        self.succeed(None)

    def suspend(self) -> None:
        """Stall the process forever (fault injection's hang mode).

        Unlike :meth:`terminate` the process never completes: the engine
        keeps counting it live, so once the event queue drains the run
        reports a deadlock (:class:`~repro.errors.SimulationHang`) with
        this process in the diagnostics — exactly how a wedged hardware
        walker would surface through the watchdog.
        """
        if self.triggered:
            return
        self._halted = True
        self.waiting_on = ("suspended", None)

    def _resume(self, value: Any = None, exc: Optional[BaseException] = None,
                ) -> None:
        # A halted process ignores its wakeups: a stale one (scheduled
        # before a fault halted us) must not run, as the fault already
        # decided this process's fate.
        engine = self._engine
        generator = self._generator
        queue = engine._queue
        batch = engine._batch
        while not self._halted:
            self.waiting_on = None
            try:
                if exc is not None:
                    engine._mark_failure_handled(exc)
                    target = generator.throw(exc)
                else:
                    target = generator.send(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except Exception as error:
                engine._process_failed(self, error)
                return
            kind = type(target)
            if kind is float or kind is int or not isinstance(target, Event):
                if (kind is not float and kind is not int
                        and not isinstance(target, (int, float))):
                    raise SimulationError(f"process {self.name!r} yielded "
                                          f"unsupported value {target!r}")
                if not 0 <= target < _INF:
                    raise SimulationError(
                        f"process {self.name!r} yielded a "
                        f"{'negative' if target < 0 else 'non-finite'} "
                        f"delay: {target}")
                when = engine.now + target
                value = None
                self.waiting_on = ("delay", when)
            else:
                self.waiting_on = target
                if not target._triggered:
                    target._callbacks.append(self._on_wait)
                    return
                if target.failed:
                    engine._schedule_resume_exc(self, target.exception)
                    return
                # Fired and succeeded: resume now, as _wait_done would.
                when = engine.now
                value = target.value
            # Direct resume: when no filed wakeup precedes this one (the
            # batch is empty and the heap's head is strictly later — an
            # equal-time head has a lower seq) and it lies within the
            # run's ``until``, it is the run loop's next dispatch, so do
            # that dispatch's bookkeeping here and keep going.
            if (batch or when > engine._until
                    or (queue and queue[0][0] <= when)):
                engine._schedule_resume_at(self, when, value)
                return
            engine.now = when
            engine._sequence += 1
            engine.dispatched.value += 1
            if engine.watchdog is not None:
                engine.watchdog.check(engine)
            exc = None

    def _wait_done(self, event: Event) -> None:
        if event.failed:
            self._engine._schedule_resume_exc(self, event.exception)
        else:
            self._engine._schedule_resume(self, event.value)

    def _describe_wait(self) -> str:
        target = self.waiting_on
        if target is None:
            return "runnable"
        if isinstance(target, tuple) and target and target[0] == "delay":
            return f"sleeping until t={target[1]}"
        if isinstance(target, tuple) and target and target[0] == "suspended":
            return "suspended (stalled by fault injection)"
        if isinstance(target, Process):
            return f"waiting on process {target.name!r}"
        return f"waiting on {type(target).__name__}"


class _Failure:
    """Bookkeeping for one process failure (handled = thrown into a waiter)."""

    __slots__ = ("process", "error", "handled")

    def __init__(self, process: Process, error: BaseException) -> None:
        self.process = process
        self.error = error
        self.handled = False


class Engine:
    """Event queue and clock.

    Scheduling is split into two structures chosen by target time:

    * ``_queue`` — a heap of wakeup tuples (see :data:`_Wakeup`) for
      future times, ordered by ``heapq``'s C tuple comparison;
    * ``_batch`` — a FIFO of wakeups for the *current* cycle.  Most
      wakeups (event callbacks resuming a waiter "now") land here, at
      O(1) append/popleft instead of O(log n) heap churn.

    The dispatch order is exactly global ``(when, seq)`` order: entries
    already in the heap at the current time were necessarily scheduled
    earlier (lower ``seq``) than anything appended to the batch, so the
    run loop drains same-time heap entries before batch entries, and the
    batch itself is FIFO.  A process whose next wakeup is provably the
    next dispatch skips both structures (see :meth:`Process._resume`).
    """

    def __init__(self, detect_deadlock: bool = True) -> None:
        self.now: float = 0.0
        self._queue: List[_Wakeup] = []
        self._batch: Deque[_Wakeup] = deque()
        self._sequence = 0
        #: The running :meth:`run`'s ``until`` bound; -inf outside a run,
        #: so no wakeup can qualify for a direct resume there.
        self._until = -_INF
        self._active_processes = 0
        self._live: Dict[int, Process] = {}
        self._failures: List[_Failure] = []
        self.dispatched = Counter()  # events popped off the queue, ever
        self.detect_deadlock = detect_deadlock
        self.watchdog = None         # attached via Watchdog.attach()
        #: Resources registered for diagnostic dumps (name -> object with
        #: an optional ``describe()``); see :mod:`repro.sim.watchdog`.
        self.monitored_resources: Dict[str, Any] = {}

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Register a generator as a process starting at the current time."""
        process = Process(self, generator, name)
        self._active_processes += 1
        self._live[id(process)] = process
        process.add_callback(self._process_finished)
        self._schedule_resume_at(process, self.now, None)
        return process

    def _process_finished(self, event: Event) -> None:
        self._active_processes -= 1
        self._live.pop(id(event), None)

    def _process_failed(self, process: Process, error: BaseException) -> None:
        self._failures.append(_Failure(process, error))
        process.fail(error)

    def _mark_failure_handled(self, exc: BaseException) -> None:
        for failure in self._failures:
            if failure.error is exc:
                failure.handled = True

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires ``delay`` cycles from now."""
        event = Event()
        self.schedule_at(self.now + delay, lambda: event.succeed(value))
        return event

    def _bad_time(self, when: float) -> SimulationError:
        return SimulationError(
            f"cannot schedule at {when} before current time {self.now}"
            if when < self.now else f"cannot schedule at non-finite time {when}")

    def _check_until(self, until: Optional[float]) -> None:
        if until is not None and not until >= self.now:
            raise SimulationError(
                f"cannot run until {until}: before current time {self.now}")

    def schedule_at(self, when: float, callback) -> None:
        """Run ``callback()`` at absolute time ``when``."""
        if not self.now <= when < _INF:
            raise self._bad_time(when)
        self._sequence += 1
        entry = (when, self._sequence, None, callback, None)
        if when == self.now:
            self._batch.append(entry)
        else:
            heapq.heappush(self._queue, entry)

    def _schedule_resume(self, process: Process, value: Any) -> None:
        self._sequence += 1
        self._batch.append((self.now, self._sequence, process, value, None))

    def _schedule_resume_exc(self, process: Process,
                             exc: Optional[BaseException]) -> None:
        self._sequence += 1
        self._batch.append((self.now, self._sequence, process, None, exc))

    def _schedule_resume_at(self, process: Process, when: float, value: Any) -> None:
        if not self.now <= when < _INF:
            raise self._bad_time(when)
        self._sequence += 1
        entry = (when, self._sequence, process, value, None)
        if when == self.now:
            self._batch.append(entry)
        else:
            heapq.heappush(self._queue, entry)

    def monitor_resource(self, name: str, resource: Any) -> None:
        """Register a resource for diagnostic dumps (unique-ified name)."""
        key = name
        suffix = 1
        while key in self.monitored_resources:
            suffix += 1
            key = f"{name}#{suffix}"
        self.monitored_resources[key] = resource

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue (optionally stopping at time ``until``).

        Returns the final simulation time.  After the queue drains, any
        unhandled process failure is re-raised (annotated with the process
        name); if failure-free but blocked processes remain, a deadlock is
        reported as :class:`~repro.errors.SimulationHang`.  Neither check
        runs when an ``until`` bound stops the run early — the simulation
        is not over.  An ``until`` before the current time (or NaN) raises
        :class:`~repro.errors.SimulationError`: the clock never rewinds.
        """
        self._check_until(until)
        limit = _INF if until is None else until
        queue = self._queue
        batch = self._batch
        dispatched = self.dispatched
        watchdog = self.watchdog
        heappop = heapq.heappop
        self._until = limit
        try:
            while queue or batch:
                # Same-time heap entries carry lower sequence numbers than
                # anything in the batch (they were scheduled before this
                # cycle began), so they dispatch first; otherwise the batch
                # — all at the current time, never past ``limit`` — precedes
                # any strictly-future heap entry.
                if queue and (not batch or queue[0][0] == self.now):
                    when = queue[0][0]
                    if when > limit:
                        self.now = limit
                        return limit
                    entry = heappop(queue)
                    self.now = when
                else:
                    entry = batch.popleft()
                dispatched.value += 1
                if watchdog is not None:
                    watchdog.check(self)
                _when, _seq, process, payload, exc = entry
                if process is not None:
                    process._resume(payload, exc)
                else:
                    payload()
        finally:
            self._until = -_INF
        self._raise_unhandled_failures()
        if self.detect_deadlock and self._active_processes > 0:
            raise SimulationHang(
                f"deadlock: {self._active_processes} live process(es) with "
                f"an empty event queue", self.diagnostics())
        return self.now

    def _raise_unhandled_failures(self) -> None:
        for failure in self._failures:
            if failure.handled:
                continue
            failure.handled = True   # a re-run must not re-raise it
            error = failure.error
            note = f"raised in simulation process {failure.process.name!r}"
            if hasattr(error, "add_note"):
                error.add_note(note)
                raise error
            raise ProcessError(f"{note}: {error}",
                               failure.process.name) from error

    def live_processes(self) -> List[Process]:
        """Processes that have started but not yet finished or failed."""
        return list(self._live.values())

    @property
    def pending_events(self) -> int:
        """Scheduled-but-undispatched entries (heap plus current-cycle batch)."""
        return len(self._queue) + len(self._batch)

    @property
    def next_time(self) -> Optional[float]:
        """When the next scheduled wakeup is due (None when nothing is)."""
        if self._batch:
            return self.now
        return self._queue[0][0] if self._queue else None

    def register_into(self, registry, prefix: str = "sim.engine") -> None:
        """Publish event-throughput counters under ``prefix``."""
        registry.register(f"{prefix}.dispatched", self.dispatched)

    def diagnostics(self) -> str:
        """A human-readable dump of engine state (for hang reports)."""
        lines = [f"engine: now={self.now} dispatched={self.dispatched} "
                 f"pending_events={self.pending_events} "
                 f"live_processes={self._active_processes}"]
        for process in self._live.values():
            lines.append(f"  process {process.name!r}: "
                         f"{process._describe_wait()}")
        for entry in sorted(list(self._queue) + list(self._batch))[:8]:
            lines.append(f"  pending event at t={entry[0]}")
        for name, resource in self.monitored_resources.items():
            describe = getattr(resource, "describe", None)
            detail = describe() if callable(describe) else repr(resource)
            lines.append(f"  resource {name}: {detail}")
        for failure in self._failures:
            status = "handled" if failure.handled else "unhandled"
            lines.append(f"  failure in {failure.process.name!r} ({status}): "
                         f"{type(failure.error).__name__}: {failure.error}")
        return "\n".join(lines)

    def run_all(self, processes: Iterable[ProcessGenerator]) -> float:
        """Convenience: register each generator and run to completion."""
        for generator in processes:
            self.process(generator)
        return self.run()
