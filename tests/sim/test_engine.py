"""Tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import CompositeEvent, Event
from repro.sim.reference import ReferenceEngine


def test_timeout_advances_clock():
    engine = Engine()
    log = []

    def proc():
        yield 5
        log.append(engine.now)
        yield 2.5
        log.append(engine.now)

    engine.process(proc())
    engine.run()
    assert log == [5.0, 7.5]


def test_processes_interleave_in_time_order():
    engine = Engine()
    log = []

    def proc(name, delay):
        yield delay
        log.append((engine.now, name))
        yield delay
        log.append((engine.now, name))

    engine.process(proc("a", 3))
    engine.process(proc("b", 2))
    engine.run()
    assert log == [(2.0, "b"), (3.0, "a"), (4.0, "b"), (6.0, "a")]


def test_event_wait_delivers_value():
    engine = Engine()
    event = Event()
    got = []

    def waiter():
        value = yield event
        got.append((engine.now, value))

    def firer():
        yield 4
        event.succeed("payload")

    engine.process(waiter())
    engine.process(firer())
    engine.run()
    assert got == [(4.0, "payload")]


def test_event_double_trigger_raises():
    event = Event()
    event.succeed()
    with pytest.raises(RuntimeError):
        event.succeed()


def test_event_callback_after_trigger_runs_immediately():
    event = Event()
    event.succeed(7)
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    assert seen == [7]


def test_process_completion_is_an_event():
    engine = Engine()

    def child():
        yield 3
        return "done"

    def parent():
        result = yield engine.process(child())
        assert result == "done"
        assert engine.now == 3.0

    engine.process(parent())
    engine.run()


def test_negative_delay_rejected():
    engine = Engine()

    def proc():
        yield -1

    engine.process(proc())
    with pytest.raises(SimulationError):
        engine.run()


def test_bad_yield_type_rejected():
    engine = Engine()

    def proc():
        yield "nonsense"

    engine.process(proc())
    with pytest.raises(SimulationError):
        engine.run()


def test_run_until_stops_early():
    engine = Engine()
    log = []

    def proc():
        for _ in range(10):
            yield 10
            log.append(engine.now)

    engine.process(proc())
    engine.run(until=35)
    assert log == [10.0, 20.0, 30.0]
    assert engine.now == 35


def test_schedule_in_past_rejected():
    engine = Engine()
    engine.schedule_at(5, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(1, lambda: None)


@pytest.mark.parametrize("engine_cls", [Engine, ReferenceEngine])
def test_run_until_before_now_rejected(engine_cls):
    """A bound below the clock raises instead of rewinding it."""
    engine = engine_cls()

    def proc():
        yield 10.0
        yield 2.0

    engine.process(proc())
    assert engine.run(until=10.0) == 10.0
    with pytest.raises(SimulationError, match="before current time"):
        engine.run(until=5.0)
    with pytest.raises(SimulationError):
        engine.run(until=float("nan"))
    assert engine.now == 10.0
    assert engine.run(until=10.0) == 10.0   # equal to now: a no-op stop
    assert engine.run() == 12.0


@pytest.mark.parametrize("engine_cls", [Engine, ReferenceEngine])
def test_next_time_reports_the_next_wakeup(engine_cls):
    engine = engine_cls(detect_deadlock=False)
    assert engine.next_time is None
    gate = Event()

    def proc():
        yield 10.0
        yield gate

    engine.process(proc())
    assert engine.next_time == 0.0        # the start, due now
    engine.run(until=4.0)
    assert engine.next_time == 10.0
    engine.run(until=10.0)
    assert engine.next_time is None       # parked on an unfired event
    gate.succeed()
    assert engine.next_time == 10.0       # the waiter resumes now


@pytest.mark.parametrize("engine_cls", [Engine, ReferenceEngine])
@pytest.mark.parametrize("delay,message", [
    (float("nan"), "non-finite delay: nan"),
    (float("inf"), "non-finite delay: inf"),
    (float("-inf"), "negative delay: -inf"),
    (-1, "negative delay: -1"),
])
def test_non_finite_and_negative_delays_rejected(engine_cls, delay, message):
    engine = engine_cls()
    resumed = []

    def proc():
        yield 4.0
        yield delay
        resumed.append(engine.now)

    engine.process(proc(), "sleeper")
    with pytest.raises(SimulationError, match=message):
        engine.run()
    assert resumed == []
    assert engine.now == 4.0


@pytest.mark.parametrize("engine_cls", [Engine, ReferenceEngine])
@pytest.mark.parametrize("when", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_schedule_times_rejected(engine_cls, when):
    engine = engine_cls()
    with pytest.raises(SimulationError):
        engine.schedule_at(when, lambda: None)
    with pytest.raises(SimulationError):
        engine.timeout(when)
    assert engine.pending_events == 0
    assert engine.run() == 0.0


def test_composite_event_waits_for_all():
    engine = Engine()
    children = [Event(), Event()]
    combined = CompositeEvent(children)
    fired = []

    def waiter():
        yield combined
        fired.append(engine.now)

    def firer():
        yield 2
        children[0].succeed()
        yield 3
        children[1].succeed()

    engine.process(waiter())
    engine.process(firer())
    engine.run()
    assert fired == [5.0]


def test_composite_of_nothing_fires_immediately():
    assert CompositeEvent([]).triggered


def test_run_all_convenience():
    engine = Engine()
    log = []

    def proc(n):
        yield n
        log.append(n)

    engine.run_all([proc(1), proc(2)])
    assert sorted(log) == [1, 2]


def test_unhandled_process_failure_surfaces_with_name():
    engine = Engine()

    def faulty():
        yield 3
        raise ValueError("bad register")

    engine.process(faulty(), "walker2")
    with pytest.raises(ValueError, match="bad register") as excinfo:
        engine.run()
    assert any("walker2" in note
               for note in getattr(excinfo.value, "__notes__", []))


def test_waiting_parent_catches_child_failure():
    engine = Engine()
    caught = []

    def child():
        yield 2
        raise ValueError("child died")

    def parent():
        try:
            yield engine.process(child(), "child")
        except ValueError as exc:
            caught.append((engine.now, str(exc)))
        yield 1

    engine.process(parent(), "parent")
    engine.run()  # handled failure: nothing re-raised
    assert caught == [(2.0, "child died")]
    assert engine.now == 3.0


def test_failure_takes_precedence_over_deadlock():
    # A fault that starves the rest of the pipeline must report the fault,
    # not the resulting deadlock.
    engine = Engine()

    def faulty():
        yield 1
        raise ValueError("the actual fault")

    def starved():
        yield Event()  # never fires once faulty dies

    engine.process(faulty(), "faulty")
    engine.process(starved(), "starved")
    with pytest.raises(ValueError, match="the actual fault"):
        engine.run()


def test_failed_event_thrown_into_waiter():
    engine = Engine()
    event = Event()
    caught = []

    def firer():
        yield 2
        event.fail(RuntimeError("upstream broke"))

    def waiter():
        try:
            yield event
        except RuntimeError as exc:
            caught.append(str(exc))

    engine.process(firer())
    engine.process(waiter())
    engine.run()
    assert caught == ["upstream broke"]


# ---------------------------------------------------------------------------
# fault-injection primitives: terminate and suspend
# ---------------------------------------------------------------------------

def test_terminate_stops_a_process_and_runs_its_finally():
    engine = Engine()
    log = []

    def victim():
        try:
            log.append("start")
            yield 100
            log.append("never")
        finally:
            log.append("cleanup")

    proc = engine.process(victim())
    engine.schedule_at(5.0, proc.terminate)
    engine.run()
    assert log == ["start", "cleanup"]
    assert proc.triggered


def test_terminate_is_idempotent_and_safe_after_completion():
    engine = Engine()

    def quick():
        yield 1

    proc = engine.process(quick())
    engine.run()
    proc.terminate()           # already complete: a no-op
    proc.terminate()
    assert proc.triggered


def test_terminated_process_does_not_wake_from_stale_events():
    """A timeout scheduled before the kill must not resume the corpse."""
    engine = Engine()
    log = []

    def victim():
        log.append("start")
        yield 100              # the stale wakeup lands at t=100
        log.append("woke")

    proc = engine.process(victim())
    engine.schedule_at(5.0, proc.terminate)
    engine.run()
    assert log == ["start"]


def test_suspend_halts_without_completing_and_trips_the_hang_check():
    from repro.errors import SimulationHang
    engine = Engine()

    def stuck():
        yield 100
        yield 100

    proc = engine.process(stuck())
    engine.schedule_at(5.0, proc.suspend)
    with pytest.raises(SimulationHang, match="deadlock") as excinfo:
        engine.run()
    assert not proc.triggered
    # The diagnostics name the suspension so a chaos-injected stall is
    # distinguishable from a real deadlock.
    assert "suspended (stalled by fault injection)" in str(excinfo.value)


def test_suspend_after_completion_is_a_no_op():
    engine = Engine()

    def quick():
        yield 1

    proc = engine.process(quick())
    engine.run()
    proc.suspend()
    assert proc.triggered
