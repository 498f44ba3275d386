"""Unit, property, and integration tests for CRDTs and gossip replication."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.consistency import (
    CRDTError,
    GCounter,
    LWWRegister,
    ORSet,
    PNCounter,
    Replica,
    converge,
)
from repro.consistency.replication import SYNC_TIMEOUT_US
from repro.net import build_star
from repro.sim import Simulator


class TestGCounter:
    def test_increment_and_value(self):
        counter = GCounter("a")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(CRDTError):
            GCounter("a").increment(-1)

    def test_merge_sums_across_replicas(self):
        a, b = GCounter("a"), GCounter("b")
        a.increment(3)
        b.increment(4)
        a.merge(b)
        assert a.value == 7

    def test_merge_idempotent(self):
        a, b = GCounter("a"), GCounter("b")
        b.increment(5)
        a.merge(b)
        a.merge(b)
        assert a.value == 5

    def test_merge_type_mismatch(self):
        with pytest.raises(CRDTError):
            GCounter("a").merge(PNCounter("b"))

    def test_bytes_roundtrip(self):
        counter = GCounter("a")
        counter.increment(9)
        rebuilt = GCounter.from_bytes(counter.to_bytes(), "b")
        assert rebuilt.value == 9

    def test_empty_replica_id_rejected(self):
        with pytest.raises(CRDTError):
            GCounter("")


class TestPNCounter:
    def test_increments_and_decrements(self):
        counter = PNCounter("a")
        counter.increment(10)
        counter.decrement(3)
        assert counter.value == 7

    def test_can_go_negative(self):
        counter = PNCounter("a")
        counter.decrement(5)
        assert counter.value == -5

    def test_merge(self):
        a, b = PNCounter("a"), PNCounter("b")
        a.increment(5)
        b.decrement(2)
        a.merge(b)
        b.merge(a)
        assert a.value == b.value == 3

    def test_bytes_roundtrip(self):
        counter = PNCounter("a")
        counter.increment(4)
        counter.decrement(1)
        assert PNCounter.from_bytes(counter.to_bytes(), "b").value == 3

    def test_negative_amounts_rejected(self):
        with pytest.raises(CRDTError):
            PNCounter("a").increment(-1)
        with pytest.raises(CRDTError):
            PNCounter("a").decrement(-1)


class TestLWWRegister:
    def test_later_write_wins(self):
        register = LWWRegister("a")
        register.set("old", 1.0)
        register.set("new", 2.0)
        assert register.value == "new"

    def test_earlier_write_ignored(self):
        register = LWWRegister("a")
        register.set("new", 2.0)
        register.set("stale", 1.0)
        assert register.value == "new"

    def test_merge_keeps_latest(self):
        a, b = LWWRegister("a"), LWWRegister("b")
        a.set("from-a", 5.0)
        b.set("from-b", 7.0)
        a.merge(b)
        assert a.value == "from-b"

    def test_tie_broken_by_replica_id(self):
        a, b = LWWRegister("a"), LWWRegister("b")
        a.set("A", 5.0)
        b.set("B", 5.0)
        a.merge(b)
        b.merge(a)
        assert a.value == b.value == "B"  # 'b' > 'a'

    def test_bytes_roundtrip(self):
        register = LWWRegister("a")
        register.set([1, 2, 3], 9.0)
        rebuilt = LWWRegister.from_bytes(register.to_bytes(), "b")
        assert rebuilt.value == [1, 2, 3]
        assert rebuilt.timestamp == 9.0


class TestORSet:
    def test_add_and_contains(self):
        s = ORSet("a")
        s.add("x")
        assert "x" in s

    def test_remove_observed(self):
        s = ORSet("a")
        s.add("x")
        s.remove("x")
        assert "x" not in s

    def test_re_add_after_remove(self):
        s = ORSet("a")
        s.add("x")
        s.remove("x")
        s.add("x")
        assert "x" in s

    def test_concurrent_add_wins_over_remove(self):
        a, b = ORSet("a"), ORSet("b")
        a.add("x")
        b.merge(a)
        # b removes the observed copy; a concurrently re-adds.
        b.remove("x")
        a.add("x")
        a.merge(b)
        b.merge(a)
        assert "x" in a and "x" in b

    def test_merge_union(self):
        a, b = ORSet("a"), ORSet("b")
        a.add("x")
        b.add("y")
        a.merge(b)
        assert a.elements() == {"x", "y"}

    def test_bytes_roundtrip(self):
        s = ORSet("a")
        s.add("x")
        s.add("y")
        s.remove("y")
        rebuilt = ORSet.from_bytes(s.to_bytes(), "b")
        assert rebuilt.elements() == {"x"}
        assert rebuilt == s.copy() or rebuilt.elements() == s.elements()

    def test_tag_counter_survives_roundtrip(self):
        s = ORSet("a")
        s.add("x")
        rebuilt = ORSet.from_bytes(s.to_bytes(), "a")
        rebuilt.add("y")  # must not reuse x's tag
        rebuilt.remove("y")
        assert "x" in rebuilt


# ---------------------------------------------------------------------------
# Property-based: the CvRDT laws (commutativity, associativity, idempotence).
# ---------------------------------------------------------------------------

_ops = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 10)),
    max_size=20,
)


def _counter_from(ops, replica):
    counter = GCounter(replica)
    for who, amount in ops:
        if who == replica:
            counter.increment(amount)
    return counter


class TestCRDTProperties:
    @given(_ops)
    @settings(max_examples=50, deadline=None)
    def test_gcounter_merge_commutative(self, ops):
        a1, b1 = _counter_from(ops, "a"), _counter_from(ops, "b")
        a2, b2 = a1.copy(), b1.copy()
        a1.merge(b1)
        b2.merge(a2)
        assert a1.value == b2.value

    @given(_ops)
    @settings(max_examples=50, deadline=None)
    def test_gcounter_merge_idempotent(self, ops):
        a = _counter_from(ops, "a")
        b = _counter_from(ops, "b")
        a.merge(b)
        snapshot = a.value
        a.merge(b)
        assert a.value == snapshot

    @given(_ops)
    @settings(max_examples=50, deadline=None)
    def test_gcounter_merge_associative(self, ops):
        def fresh():
            return (_counter_from(ops, "a"), _counter_from(ops, "b"),
                    _counter_from(ops, "c"))

        a1, b1, c1 = fresh()
        b1.merge(c1)
        a1.merge(b1)  # a + (b + c)
        a2, b2, c2 = fresh()
        a2.merge(b2)
        a2.merge(c2)  # (a + b) + c
        assert a1.value == a2.value

    @given(st.lists(st.tuples(st.booleans(), st.text(min_size=1, max_size=3)),
                    max_size=15))
    @settings(max_examples=50, deadline=None)
    def test_orset_merge_convergent(self, ops):
        a, b = ORSet("a"), ORSet("b")
        for on_a, element in ops:
            target = a if on_a else b
            if element in target:
                target.remove(element)
            else:
                target.add(element)
        a.merge(b)
        b.merge(a)
        assert a.elements() == b.elements()

    @given(st.lists(st.tuples(st.floats(0, 100), st.integers(0, 1000)),
                    min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_lww_merge_order_independent(self, writes):
        a, b = LWWRegister("a"), LWWRegister("b")
        for i, (ts, value) in enumerate(writes):
            (a if i % 2 == 0 else b).set(value, ts)
        a_copy, b_copy = a.copy(), b.copy()
        a.merge(b)
        b_copy.merge(a_copy)
        assert a.value == b_copy.value


class TestReplication:
    def _replicas(self, n=4, seed=3):
        sim = Simulator(seed=seed)
        net = build_star(sim, n)
        replicas = [Replica(net.host(f"h{i}"), GCounter(f"h{i}"))
                    for i in range(n)]
        return sim, replicas

    def test_pairwise_sync_converges_two(self):
        sim, replicas = self._replicas(n=2)
        replicas[0].crdt.increment(3)
        replicas[1].crdt.increment(4)

        def proc():
            yield sim.spawn(replicas[0].sync_with("h1"))
            return None

        sim.run_process(proc())
        assert replicas[0].crdt.value == replicas[1].crdt.value == 7

    def test_converge_reaches_fixed_point(self):
        sim, replicas = self._replicas(n=5, seed=4)
        for i, replica in enumerate(replicas):
            replica.crdt.increment(i + 1)
        rounds = sim.run_process(converge(replicas, sim.rng))
        assert rounds <= 5
        assert {r.crdt.value for r in replicas} == {15}

    def test_sync_with_failed_peer_times_out(self):
        sim, replicas = self._replicas(n=2)
        replicas[1].host.fail()

        def proc():
            ok = yield sim.spawn(replicas[0].sync_with("h1"))
            return ok, sim.now

        ok, finished_at = sim.run_process(proc(), until=10_000_000.0)
        assert ok is False
        assert finished_at == pytest.approx(SYNC_TIMEOUT_US)
        assert replicas[0].tracer.counters["replica.sync_timeout"] == 1

    def test_converge_reports_failure_with_a_failed_replica(self):
        sim, replicas = self._replicas(n=3, seed=7)
        replicas[0].crdt.increment(1)
        replicas[2].host.fail()

        def proc():
            try:
                yield sim.spawn(converge(replicas, sim.rng, max_rounds=3))
            except AssertionError as exc:
                return str(exc)
            return None

        outcome = sim.run_process(proc(), until=10_000_000.0)
        assert outcome == "no convergence after 3 gossip rounds"

    def test_gossip_tracks_bytes(self):
        sim, replicas = self._replicas(n=3, seed=5)
        replicas[0].crdt.increment(1)
        sim.run_process(converge(replicas, sim.rng))
        assert all(r.bytes_sent > 0 for r in replicas)

    def test_orset_replication(self):
        sim = Simulator(seed=6)
        net = build_star(sim, 3)
        replicas = [Replica(net.host(f"h{i}"), ORSet(f"h{i}")) for i in range(3)]
        replicas[0].crdt.add("apple")
        replicas[1].crdt.add("pear")
        replicas[2].crdt.add("plum")
        sim.run_process(converge(
            replicas, sim.rng,
            equal=lambda x, y: x.elements() == y.elements()))
        assert replicas[0].crdt.elements() == {"apple", "pear", "plum"}

    def test_convergence_is_deterministic(self):
        def run():
            sim, replicas = self._replicas(n=4, seed=7)
            for i, replica in enumerate(replicas):
                replica.crdt.increment(i)
            rounds = sim.run_process(converge(replicas, sim.rng))
            return rounds, sim.now

        assert run() == run()
