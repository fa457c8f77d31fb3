"""Deliberately naive reference engine for differential testing.

:class:`ReferenceEngine` executes the same process/event semantics as the
optimized :class:`~repro.sim.engine.Engine` with none of its machinery:

* the event queue is a plain Python list, and every dispatch does a full
  linear scan for the minimum ``(when, seq)`` entry — no heap, no
  same-cycle batch;
* every resume is a freshly allocated closure filed on that list — no
  wakeup tuples, and no direct resume of the next-due process.

It subclasses :class:`Engine` so the failure model, deadlock detection,
watchdog hooks and diagnostics are *shared code*, and only the scheduling
data structure differs.  The differential tests in
``tests/sim/test_differential_engine.py`` run identical seeded process
graphs on both engines and assert the dispatch traces, final stats and
failure attribution match event-for-event; the benchmarks in
:mod:`repro.bench` use it as the speedup baseline.

Do not "improve" this class: its value is being obviously correct
(dispatch order is *literally* min-by-(when, seq)), not fast.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Tuple

from ..errors import SimulationHang
from .engine import Engine, Process

#: (when, seq, thunk) — seq is unique, so comparisons never reach the thunk.
_RefEntry = Tuple[float, int, Any]


class ReferenceEngine(Engine):
    """Naive list-plus-min-scan engine, semantically identical to Engine."""

    def __init__(self, detect_deadlock: bool = True) -> None:
        super().__init__(detect_deadlock)
        self._ref_queue: List[_RefEntry] = []

    # Guard: the direct-resume window of Process._resume stays shut (its
    # test reads the optimized engine's empty heap and batch, not this
    # list), so every wakeup goes through the min-scan below.
    @property
    def _until(self) -> float:
        return -math.inf

    @_until.setter
    def _until(self, _value: float) -> None:
        pass

    # -- scheduling: every path allocates a closure --------------------

    def _ref_schedule(self, when: float, thunk) -> None:
        if not self.now <= when < math.inf:
            raise self._bad_time(when)
        self._sequence += 1
        self._ref_queue.append((when, self._sequence, thunk))

    def schedule_at(self, when: float, callback) -> None:
        """Schedule ``callback`` at ``when`` on the naive list queue."""
        self._ref_schedule(when, callback)

    def _schedule_resume(self, process: Process, value: Any) -> None:
        self._ref_schedule(self.now, lambda: process._resume(value, None))

    def _schedule_resume_exc(self, process: Process,
                             exc: Optional[BaseException]) -> None:
        self._ref_schedule(self.now, lambda: process._resume(None, exc))

    def _schedule_resume_at(self, process: Process, when: float,
                            value: Any) -> None:
        self._ref_schedule(when, lambda: process._resume(value, None))

    # -- dispatch: full min-scan per event ------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Drain the queue by literal min-scan; same contract as
        :meth:`repro.sim.engine.Engine.run` (failures re-raised,
        deadlock detected, ``until`` stops early and never rewinds)."""
        self._check_until(until)
        queue = self._ref_queue
        while queue:
            best = 0
            for index in range(1, len(queue)):
                if (queue[index][0], queue[index][1]) < (queue[best][0],
                                                         queue[best][1]):
                    best = index
            when = queue[best][0]
            if until is not None and when > until:
                self.now = until
                return self.now
            _when, _seq, thunk = queue.pop(best)
            self.now = when
            self.dispatched.value += 1
            if self.watchdog is not None:
                self.watchdog.check(self)
            thunk()
        self._raise_unhandled_failures()
        if until is not None and until < math.inf:
            self.now = until
            return until
        if self.detect_deadlock and self._active_processes > 0:
            raise SimulationHang(
                f"deadlock: {self._active_processes} live process(es) with "
                f"an empty event queue", self.diagnostics())
        return self.now

    @property
    def pending_events(self) -> int:
        return len(self._ref_queue)

    @property
    def next_time(self) -> Optional[float]:
        return min(self._ref_queue)[0] if self._ref_queue else None
