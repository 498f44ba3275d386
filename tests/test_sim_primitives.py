"""Unit tests for Store, Resource, Future, ReplyTable, and Latch."""

import pytest

from repro.sim import (EXPIRED, Future, Latch, ReplyTable, Resource, SimError,
                       Store, Timeout)


class TestStore:
    def test_put_then_get_fifo(self, sim):
        store = Store(sim)

        def proc():
            store.put_nowait("a")
            store.put_nowait("b")
            first = yield store.get()
            second = yield store.get()
            return first, second

        assert sim.run_process(proc()) == ("a", "b")

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def consumer():
            item = yield store.get()
            return item, sim.now

        def producer():
            yield Timeout(9.0)
            store.put_nowait("late")
            return None

        proc = sim.spawn(consumer())
        sim.spawn(producer())
        sim.run()
        assert proc.result == ("late", 9.0)

    def test_waiting_getters_served_fifo(self, sim):
        store = Store(sim)
        order = []

        def consumer(tag):
            item = yield store.get()
            order.append((tag, item))
            return None

        sim.spawn(consumer("first"))
        sim.spawn(consumer("second"))
        sim.schedule(1.0, store.put_nowait, "x")
        sim.schedule(2.0, store.put_nowait, "y")
        sim.run()
        assert order == [("first", "x"), ("second", "y")]

    def test_bounded_store_put_nowait_overflow(self, sim):
        store = Store(sim, capacity=1)
        store.put_nowait("a")
        with pytest.raises(SimError):
            store.put_nowait("b")

    def test_try_put_reports_drop(self, sim):
        store = Store(sim, capacity=1)
        assert store.try_put("a") is True
        assert store.try_put("b") is False
        assert len(store) == 1

    def test_blocking_put_waits_for_space(self, sim):
        store = Store(sim, capacity=1)

        def producer():
            yield store.put("a")
            yield store.put("b")  # blocks until the consumer drains one
            return sim.now

        def consumer():
            yield Timeout(5.0)
            item = store.get_nowait()
            return item

        producer_proc = sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert producer_proc.result == pytest.approx(5.0)

    def test_get_nowait_empty_raises(self, sim):
        store = Store(sim)
        with pytest.raises(SimError):
            store.get_nowait()

    def test_invalid_capacity(self, sim):
        with pytest.raises(SimError):
            Store(sim, capacity=0)

    def test_waiting_getters_counter(self, sim):
        store = Store(sim)

        def consumer():
            yield store.get()
            return None

        sim.spawn(consumer())
        sim.run(until=1.0)
        assert store.waiting_getters == 1


class TestResource:
    def test_capacity_limits_concurrency(self, sim):
        resource = Resource(sim, capacity=2)
        concurrency = []

        def worker():
            yield resource.acquire()
            concurrency.append(resource.in_use)
            yield Timeout(10.0)
            resource.release()
            return None

        for _ in range(5):
            sim.spawn(worker())
        sim.run()
        assert max(concurrency) <= 2

    def test_waiters_fifo(self, sim):
        resource = Resource(sim, capacity=1)
        order = []

        def worker(tag):
            yield resource.acquire()
            order.append(tag)
            yield Timeout(1.0)
            resource.release()
            return None

        for tag in ("a", "b", "c"):
            sim.spawn(worker(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_release_idle_raises(self, sim):
        resource = Resource(sim, capacity=1)
        with pytest.raises(SimError):
            resource.release()

    def test_queue_length(self, sim):
        resource = Resource(sim, capacity=1)

        def holder():
            yield resource.acquire()
            yield Timeout(100.0)
            resource.release()
            return None

        def waiter():
            yield resource.acquire()
            resource.release()
            return None

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run(until=1.0)
        assert resource.queue_length == 1

    def test_invalid_capacity(self, sim):
        with pytest.raises(SimError):
            Resource(sim, capacity=0)


class TestFuture:
    def test_set_before_wait(self, sim):
        future = Future(sim)
        future.set_result("early")

        def proc():
            value = yield future
            return value

        assert sim.run_process(proc()) == "early"

    def test_set_after_wait(self, sim):
        future = Future(sim)

        def proc():
            value = yield future
            return value, sim.now

        sim.schedule(4.0, future.set_result, "late")
        assert sim.run_process(proc()) == ("late", 4.0)

    def test_exception_delivery(self, sim):
        future = Future(sim)

        def proc():
            try:
                yield future
            except KeyError as exc:
                return "caught"

        sim.schedule(1.0, future.set_exception, KeyError("k"))
        assert sim.run_process(proc()) == "caught"

    def test_double_completion_raises(self, sim):
        future = Future(sim)
        future.set_result(1)
        with pytest.raises(SimError):
            future.set_result(2)

    def test_value_accessor(self, sim):
        future = Future(sim)
        with pytest.raises(SimError):
            future.value
        future.set_result(99)
        assert future.value == 99

    def test_multiple_waiters(self, sim):
        future = Future(sim)
        results = []

        def proc(tag):
            value = yield future
            results.append((tag, value))
            return None

        sim.spawn(proc("a"))
        sim.spawn(proc("b"))
        sim.schedule(1.0, future.set_result, "shared")
        sim.run()
        assert sorted(results) == [("a", "shared"), ("b", "shared")]


class TestReplyTable:
    def test_reply_before_deadline(self, sim):
        table = ReplyTable(sim)
        req_id, future = table.open()

        def proc():
            reply = yield from table.wait(req_id, future, 100.0)
            return reply, sim.now

        sim.schedule(10.0, table.resolve, req_id, "pong")
        assert sim.run_process(proc()) == ("pong", 10.0)

    def test_expiry_then_late_resolve_is_ignored(self, sim):
        table = ReplyTable(sim)
        req_id, future = table.open()

        def proc():
            reply = yield from table.wait(req_id, future, 50.0)
            return reply, sim.now

        assert sim.run_process(proc()) == (EXPIRED, 50.0)
        assert table.resolve(req_id, "late") is False
        assert not future.done

    def test_fail_raises_in_the_waiter(self, sim):
        table = ReplyTable(sim)
        req_id, future = table.open()

        def proc():
            try:
                yield from table.wait(req_id, future, 100.0)
            except KeyError:
                return "caught", sim.now
            return "no raise", sim.now

        sim.schedule(5.0, table.fail, req_id, KeyError("nack"))
        assert sim.run_process(proc()) == ("caught", 5.0)

    def test_reply_value_never_reads_as_expiry(self, sim):
        # None is what the deadline Timeout itself resumes with; a reply
        # carrying it must still come back as a reply.
        table = ReplyTable(sim)
        req_id, future = table.open()

        def proc():
            reply = yield from table.wait(req_id, future, 100.0)
            return reply

        sim.schedule(1.0, table.resolve, req_id, None)
        assert sim.run_process(proc()) is None

    def test_ids_unique_across_tables(self, sim):
        first, second = ReplyTable(sim), ReplyTable(sim)
        ids = []
        for _ in range(50):
            ids.append(first.open()[0])
            ids.append(second.open()[0])
            ids.append(ReplyTable.new_id())
        assert len(set(ids)) == len(ids)
        assert second.resolve(ids[0], "wrong table") is False

    def test_reply_cancels_the_deadline_timer(self, sim):
        table = ReplyTable(sim)
        req_id, future = table.open()

        def proc():
            yield from table.wait(req_id, future, 1_000.0)
            return None

        sim.spawn(proc())
        sim.schedule(7.0, table.resolve, req_id, "pong")
        assert sim.run() == 7.0
        assert sim.pending_event_count == 0


class TestLatch:
    def test_opens_after_count(self, sim):
        latch = Latch(sim, count=3)

        def waiter():
            yield latch
            return sim.now

        proc = sim.spawn(waiter())
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, latch.arrive)
        sim.run()
        assert proc.result == pytest.approx(3.0)

    def test_zero_count_is_open(self, sim):
        latch = Latch(sim, count=0)

        def waiter():
            yield latch
            return "through"

        assert sim.run_process(waiter()) == "through"

    def test_extra_arrive_raises(self, sim):
        latch = Latch(sim, count=1)
        latch.arrive()
        with pytest.raises(SimError):
            latch.arrive()

    def test_negative_count_rejected(self, sim):
        with pytest.raises(SimError):
            Latch(sim, count=-1)
