"""Differential tests: optimized Engine vs the naive ReferenceEngine.

Identical seeded random process graphs — a mix of delays, same-cycle
event wakeups, event waits and injected failures — run on both engines,
and every externally observable artifact must match event-for-event:
the resume trace (who ran, at what simulated time, in what order), the
final clock, the dispatch counter, and failure attribution.  The
reference engine dispatches by a literal min-scan over a plain list, so
any heap/batch/pool bug in the optimized engine shows up as a trace
divergence here.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationHang
from repro.sim.engine import Engine, Process
from repro.sim.events import Event
from repro.sim.reference import ReferenceEngine
from repro.sim.watchdog import Watchdog, WatchdogLimits

SEEDS = [3, 17, 29, 101, 4242]


def run_graph(engine_cls, seed, workers=8, steps=25, failing=None):
    """One seeded random process graph; returns (trace, now, dispatched).

    Workers randomly sleep, park on fresh events, or wake other workers'
    parked events in the same cycle (exercising the optimized engine's
    same-cycle batch).  A drainer keeps firing parked events until every
    worker has finished, so no graph deadlocks by construction.
    """
    engine = engine_cls()
    trace = []
    parked = []          # events workers are currently waiting on
    live = [workers]

    def worker(name, worker_seed):
        rng = random.Random(worker_seed)
        try:
            for step in range(steps):
                trace.append(("step", name, step, engine.now))
                if failing == name and step == steps // 2:
                    raise RuntimeError(f"injected fault in {name}")
                choice = rng.random()
                if choice < 0.45:
                    yield rng.choice((0.0, 0.25, 1.0, 1.0, 2.5))
                elif choice < 0.70 and parked:
                    # Same-cycle wakeup of another worker.
                    event = parked.pop(rng.randrange(len(parked)))
                    event.succeed((name, step))
                    yield 0.0
                else:
                    event = Event()
                    parked.append(event)
                    value = yield event
                    trace.append(("woke", name, engine.now, value))
        finally:
            live[0] -= 1
            trace.append(("done", name, engine.now))

    def drainer():
        while live[0] > 0:
            yield 1.0
            while parked:
                parked.pop().succeed(("drainer", None))

    for index in range(workers):
        name = f"w{index}"
        engine.process(worker(name, seed * 1000 + index), name=name)
    engine.process(drainer(), name="drainer")
    engine.run()
    return trace, engine.now, engine.dispatched.value


@pytest.mark.parametrize("seed", SEEDS)
def test_traces_and_stats_identical(seed):
    optimized = run_graph(Engine, seed)
    reference = run_graph(ReferenceEngine, seed)
    assert optimized[0] == reference[0], "resume traces diverged"
    assert optimized[1] == reference[1], "final clocks diverged"
    assert optimized[2] == reference[2], "dispatch counts diverged"


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_failure_attribution_identical(seed):
    outcomes = []
    for engine_cls in (Engine, ReferenceEngine):
        with pytest.raises(RuntimeError) as excinfo:
            run_graph(engine_cls, seed, failing="w3")
        outcomes.append((str(excinfo.value),
                         getattr(excinfo.value, "__notes__", None)))
    assert outcomes[0] == outcomes[1]
    assert "w3" in str(outcomes[0])


@pytest.mark.parametrize("seed", SEEDS[:3])
@pytest.mark.parametrize("until", [5.0, 12.5, 20.0])
def test_bounded_run_reaches_identical_state(seed, until):
    """Stopping at ``until`` then resuming matches an unbounded run."""
    states = []
    for engine_cls in (Engine, ReferenceEngine):
        engine = engine_cls()
        trace = []

        def ticker(name, ticker_seed):
            rng = random.Random(ticker_seed)
            for step in range(30):
                trace.append((name, step, engine.now))
                yield rng.choice((0.5, 1.0, 1.0, 2.0))

        for index in range(4):
            engine.process(ticker(f"t{index}", seed * 100 + index),
                           name=f"t{index}")
        paused_at = engine.run(until=until)
        prefix = list(trace)
        pending = engine.pending_events
        engine.run()
        states.append((paused_at, prefix, pending, engine.now, trace,
                       engine.dispatched.value))
    assert states[0] == states[1]


def test_deadlock_reported_identically():
    messages = []
    for engine_cls in (Engine, ReferenceEngine):
        engine = engine_cls()

        def stuck():
            yield Event()   # nobody will ever fire this

        engine.process(stuck(), name="stuck")
        with pytest.raises(SimulationHang) as excinfo:
            engine.run()
        messages.append(str(excinfo.value).splitlines()[0])
    assert messages[0] == messages[1]


# ---------------------------------------------------------------------------
# direct resume: graphs where the optimized engine continues a process in
# place because its next wakeup is provably the next dispatch
# ---------------------------------------------------------------------------

def run_both(build, until=()):
    """Run ``build(engine, trace)``'s graph on both engines and return one
    observable record per engine: the trace, each run's return value or
    exception text (``run(u)`` for each bound in ``until``, then an
    unbounded run), the final clock, the dispatch count and the queue
    depth."""
    records = []
    for engine_cls in (Engine, ReferenceEngine):
        engine = engine_cls()
        trace = []
        build(engine, trace)
        outcomes = []
        for bound in (*until, None):
            try:
                outcomes.append(("ran", engine.run(until=bound)))
            except Exception as error:  # compared across engines below
                outcomes.append((type(error).__name__, str(error),
                                 getattr(error, "__notes__", None)))
                break
        records.append((trace, outcomes, engine.now,
                        engine.dispatched.value, engine.pending_events))
    return records


def assert_same(build, until=()):
    optimized, reference = run_both(build, until)
    assert optimized == reference
    return optimized


def test_lone_process_matches_reference():
    def build(engine, trace):
        def solo():
            for step in range(50):
                trace.append((step, engine.now))
                yield (0.0, 0.5, 1, 3.25)[step % 4]
            return "done"

        proc = engine.process(solo(), "solo")
        proc.add_callback(lambda event: trace.append(("end", event.value)))

    trace, _outcomes, now, dispatched, _pending = assert_same(build)
    assert trace[-1] == ("end", "done")
    assert dispatched == 51 and now == 12 * (0.5 + 1 + 3.25) + 0.5


def test_disjoint_time_grids_match_reference():
    """Processes whose wakeups never coincide take turns; each wakeup
    is the next due one only until the other grid overtakes it."""
    def build(engine, trace):
        def ticker(name, offset, period, steps):
            yield offset
            for step in range(steps):
                trace.append((name, step, engine.now))
                yield period

        engine.process(ticker("even", 0.0, 2.0, 40), "even")
        engine.process(ticker("odd", 1.0, 2.0, 40), "odd")
        engine.process(ticker("slow", 0.25, 7.0, 12), "slow")

    assert_same(build)


def test_fired_event_and_process_yields_match_reference():
    """Yielding already-fired events and finished processes — including
    a failed one — resumes the yielder now, in (when, seq) order."""
    def build(engine, trace):
        fired = Event().succeed("early")
        failed = Event().fail(ValueError("already broken"))

        def child(name, fail):
            yield 1.0
            if fail:
                raise RuntimeError(f"{name} died")
            return name

        def yielder(name, delay):
            done = engine.process(child(f"{name}-child", False))
            broken = engine.process(child(f"{name}-bad", True))
            yield delay
            trace.append((name, "fired", (yield fired), engine.now))
            trace.append((name, "done", (yield done), engine.now))
            try:
                yield broken
            except RuntimeError as error:
                trace.append((name, "child failure", str(error)))
            try:
                yield failed
            except ValueError as error:
                trace.append((name, "event failure", str(error),
                              engine.now))
            trace.append((name, "again", (yield fired), engine.now))

        engine.process(yielder("a", 2.0), "a")
        engine.process(yielder("b", 3.5), "b")
        engine.process(yielder("c", 3.5), "c")

    trace, outcomes, *_ = assert_same(build)
    assert outcomes == [("ran", 3.5)]
    assert ("a", "event failure", "already broken", 2.0) in trace


@pytest.mark.parametrize("until", [(0.0,), (3.0,), (4.5, 10.0), (9.75,),
                                   (1.0, 1.0, 2.0, 26.0)])
def test_bounded_runs_split_a_direct_resume_chain(until):
    def build(engine, trace):
        def chain():
            for step in range(20):
                trace.append((step, engine.now))
                yield (0.5, 0.0, 1.0, 1.25)[step % 4]

        engine.process(chain(), "chain")

    _trace, outcomes, *_ = assert_same(build, until)
    assert [outcome[0] for outcome in outcomes] == ["ran"] * (len(until) + 1)


def test_zero_delay_livelock_trips_watchdog_identically():
    def build(engine, trace):
        Watchdog(WatchdogLimits(max_stall_events=40)).attach(engine)

        def spinner():
            yield 3.0
            while True:
                trace.append(engine.now)
                yield 0

        def bystander():
            yield Event()

        engine.process(spinner(), "spinner")
        engine.process(bystander(), "bystander")

    _trace, outcomes, now, dispatched, _pending = assert_same(build)
    kind, message, _notes = outcomes[0]
    assert kind == "SimulationHang" and "livelock" in message
    assert "process 'spinner': sleeping until t=3.0" in message
    assert (now, dispatched) == (3.0, 44)


def test_failure_right_after_direct_resume_matches_reference():
    def build(engine, trace):
        def doomed():
            yield 1.0
            trace.append(("resumed", engine.now))
            yield 0.5
            raise KeyError("walker fault")

        def watcher(target):
            try:
                yield target
            except KeyError as error:
                trace.append(("caught", str(error), engine.now))
            yield 1.0

        proc = engine.process(doomed(), "doomed")
        engine.process(watcher(proc), "watcher")
        engine.process(doomed(), "unwatched")

    _trace, outcomes, now, *_ = assert_same(build)
    kind, message, notes = outcomes[0]
    assert kind == "KeyError" and "walker fault" in message
    assert notes == ["raised in simulation process 'unwatched'"]


def test_direct_resume_actually_fires(monkeypatch):
    """Generator steps outnumber ``_resume`` entries on the optimized
    engine (a direct resume steps the generator without re-entering),
    while on the reference engine every step is its own entry."""
    entries = []
    original = Process._resume

    def counting(self, value=None, exc=None):
        entries.append(self.name)
        return original(self, value, exc)

    monkeypatch.setattr(Process, "_resume", counting)
    counts = {}
    for engine_cls in (Engine, ReferenceEngine):
        entries.clear()
        engine = engine_cls()
        steps = []

        def solo():
            for step in range(10):
                steps.append(step)
                yield 1.0

        engine.process(solo(), "solo")
        engine.run()
        counts[engine_cls.__name__] = (len(steps) + 1, len(entries),
                                       engine.dispatched.value)
    assert counts["ReferenceEngine"] == (11, 11, 11)
    assert counts["Engine"] == (11, 1, 11)
