"""Tests for analytic resources and bounded queues."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.resources import (BoundedQueue, OccupancyPool,
                                 PipelinedResource, QUEUE_CLOSED)


class TestPipelinedResource:
    def test_single_server_serializes(self):
        res = PipelinedResource(servers=1, service=2.0)
        assert res.request(0.0) == 0.0
        assert res.request(0.0) == 2.0
        assert res.request(0.0) == 4.0

    def test_two_servers_grant_pairwise(self):
        res = PipelinedResource(servers=2, service=1.0)
        grants = [res.request(0.0) for _ in range(4)]
        assert grants == [0.0, 0.0, 1.0, 1.0]

    def test_idle_gap_resets(self):
        res = PipelinedResource(servers=1, service=1.0)
        res.request(0.0)
        assert res.request(10.0) == 10.0

    def test_busy_accounting(self):
        res = PipelinedResource(servers=1, service=3.0)
        res.request(0.0)
        res.request(0.0)
        assert res.grants == 2
        assert res.busy_cycles == 6.0

    def test_port_prune_forgets_exactly_the_cursor_to_cutoff_cycles(self):
        res = PipelinedResource(servers=1, service=1.0)
        for cycle in (5, 70, 900, 30_000, 59_999, 60_000):
            res.request(float(cycle))
        # A late request below the next cursor survives the next prune.
        res._prune_cursor = 10
        res.request(6.0)
        res.request(200_000.0)   # cutoff 190,000: prunes [10, 190,000)
        assert res._prune_cursor == 190_000
        assert sorted(res._cycle_counts) == [5, 6, 200_000]
        # Cycle 70 is free again; cycle 5 still holds its grant.
        assert res.request(70.0) == 70.0
        assert res.request(5.0) == 7.0

    def test_validation(self):
        with pytest.raises(SimulationError):
            PipelinedResource(servers=0, service=1.0)
        with pytest.raises(SimulationError):
            PipelinedResource(servers=1, service=0.0)


class TestOccupancyPool:
    def test_free_slot_grants_immediately(self):
        pool = OccupancyPool(capacity=2)
        assert pool.acquire(5.0) == 5.0
        pool.release_at(10.0)

    def test_full_pool_waits_for_release(self):
        pool = OccupancyPool(capacity=1)
        start = pool.acquire(0.0)
        pool.release_at(8.0)
        assert pool.acquire(1.0) == 8.0
        pool.release_at(12.0)

    def test_expired_slots_are_reusable(self):
        pool = OccupancyPool(capacity=1)
        pool.acquire(0.0)
        pool.release_at(3.0)
        assert pool.acquire(5.0) == 5.0
        pool.release_at(6.0)

    def test_peak_occupancy_tracked(self):
        pool = OccupancyPool(capacity=3)
        for _ in range(3):
            pool.acquire(0.0)
            pool.release_at(10.0)
        assert pool.peak == 3

    def test_occupancy_query(self):
        pool = OccupancyPool(capacity=4)
        pool.acquire(0.0)
        pool.release_at(5.0)
        assert pool.occupancy(1.0) == 1
        assert pool.occupancy(6.0) == 0

    def test_wait_cycles_accumulate(self):
        pool = OccupancyPool(capacity=1)
        pool.acquire(0.0)
        pool.release_at(10.0)
        pool.acquire(2.0)
        pool.release_at(11.0)
        assert pool.wait_cycles == 8.0


class TestBoundedQueue:
    def _run(self, body):
        engine = Engine()
        engine.process(body(engine))
        engine.run()

    def test_put_get_roundtrip(self):
        def body(engine):
            queue = BoundedQueue(engine, capacity=2)
            yield queue.put("x")
            value = yield queue.get()
            assert value == "x"
        self._run(body)

    def test_get_blocks_until_put(self):
        engine = Engine()
        queue = BoundedQueue(engine, capacity=1)
        got = []

        def consumer():
            value = yield queue.get()
            got.append((engine.now, value))

        def producer():
            yield 7
            yield queue.put("late")

        engine.process(consumer())
        engine.process(producer())
        engine.run()
        assert got == [(7.0, "late")]

    def test_put_blocks_when_full(self):
        engine = Engine()
        queue = BoundedQueue(engine, capacity=1)
        timeline = []

        def producer():
            yield queue.put(1)
            timeline.append(("put1", engine.now))
            yield queue.put(2)
            timeline.append(("put2", engine.now))

        def consumer():
            yield 5
            yield queue.get()

        engine.process(producer())
        engine.process(consumer())
        engine.run()
        assert timeline == [("put1", 0.0), ("put2", 5.0)]

    def test_close_releases_waiting_getters(self):
        engine = Engine()
        queue = BoundedQueue(engine, capacity=1)
        seen = []

        def consumer():
            value = yield queue.get()
            seen.append(value)

        def closer():
            yield 3
            queue.close()

        engine.process(consumer())
        engine.process(closer())
        engine.run()
        assert seen == [QUEUE_CLOSED]

    def test_closed_queue_drains_remaining_items_first(self):
        engine = Engine()
        queue = BoundedQueue(engine, capacity=2)
        seen = []

        def body():
            yield queue.put("a")
            queue.close()
            seen.append((yield queue.get()))
            seen.append((yield queue.get()))

        engine.process(body())
        engine.run()
        assert seen == ["a", QUEUE_CLOSED]

    def test_fifo_order(self):
        engine = Engine()
        queue = BoundedQueue(engine, capacity=4)
        order = []

        def body():
            for i in range(4):
                yield queue.put(i)
            for _ in range(4):
                order.append((yield queue.get()))

        engine.process(body())
        engine.run()
        assert order == [0, 1, 2, 3]

    def test_capacity_validated(self):
        with pytest.raises(SimulationError):
            BoundedQueue(Engine(), capacity=0)

    def test_put_after_close_raises(self):
        engine = Engine()
        queue = BoundedQueue(engine, capacity=2)
        queue.close()
        with pytest.raises(SimulationError):
            queue.put("dropped")

    def test_put_after_close_raises_inside_process(self):
        engine = Engine()
        queue = BoundedQueue(engine, capacity=2)
        failures = []

        def producer():
            yield queue.put("ok")
            queue.close()
            try:
                yield queue.put("late")
            except SimulationError:
                failures.append(engine.now)

        engine.process(producer())
        engine.run()
        assert failures == [0.0]

    def test_close_wakes_blocked_putters_with_sentinel(self):
        engine = Engine()
        queue = BoundedQueue(engine, capacity=1)
        outcomes = []

        def producer():
            yield queue.put(1)           # fills the queue
            outcomes.append((yield queue.put(2)))  # blocks until close

        def closer():
            yield 4
            queue.close()

        engine.process(producer())
        engine.process(closer())
        engine.run()
        # The producer was woken (no hang) and told its item was rejected.
        assert outcomes == [QUEUE_CLOSED]
        # The rejected item must not linger in the queue or putter list.
        assert len(queue) == 1

    def test_close_is_idempotent(self):
        engine = Engine()
        queue = BoundedQueue(engine, capacity=1)
        queue.close()
        queue.close()
        assert queue.closed


class TestQueueSalvage:
    """cancel_get and restore: the dispatcher-side primitives for
    salvaging a dead walker's in-flight work."""

    def test_cancel_get_removes_a_parked_getter(self):
        engine = Engine()
        queue = BoundedQueue(engine, 4)
        got = []

        def getter():
            item = yield queue.get()
            got.append(item)

        proc = engine.process(getter())
        target = None

        def canceller():
            yield 1
            # The getter is parked; cancel its wait, then feed the queue.
            event = proc.waiting_on
            assert queue.cancel_get(event)
            assert not queue.cancel_get(event)   # already removed
            proc.terminate()
            yield queue.put("x")

        engine.process(canceller())
        engine.run()
        assert got == []
        assert len(queue) == 1                   # 'x' was never consumed

    def test_restore_hands_off_to_a_waiting_getter(self):
        engine = Engine()
        queue = BoundedQueue(engine, 4)
        got = []

        def getter():
            item = yield queue.get()
            got.append(item)

        def restorer():
            yield 1
            queue.restore("salvaged")

        engine.process(getter())
        engine.process(restorer())
        engine.run()
        assert got == ["salvaged"]

    def test_restore_requeues_at_the_front(self):
        engine = Engine()
        queue = BoundedQueue(engine, 4)
        order = []

        def filler():
            yield queue.put("a")
            yield queue.put("b")
            queue.restore("front")
            queue.close()

        def drainer():
            yield 0.5
            while True:
                item = yield queue.get()
                if item is QUEUE_CLOSED:
                    return
                order.append(item)

        engine.process(filler())
        engine.process(drainer())
        engine.run()
        assert order == ["front", "a", "b"]

    def test_restore_may_transiently_exceed_capacity(self):
        """Salvage must never lose the item, even into a full queue."""
        engine = Engine()
        queue = BoundedQueue(engine, 1)

        def filler():
            yield queue.put("a")
            queue.restore("rescued")

        engine.process(filler())
        engine.run()
        assert len(queue) == 2
