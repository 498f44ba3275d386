"""Tests for the shared star-cluster builder (``repro.cluster``)."""

import os

from repro.cluster import star_cluster

SEED_OFFSET = int(os.environ.get("REPRO_SEED_OFFSET", "0"))


def _seed(n: int) -> int:
    return n + SEED_OFFSET


def _scan(seed):
    """Home four objects on h0 and read them all from h1."""
    c = star_cluster(seed, 3, nodes=2, agents=2, tracing=True)
    oids = c.host_objects(c.agents["h0"], 4, 32, seed)

    def proc():
        chunks = []
        for oid in oids:
            chunks.append((yield from c.agents["h1"].read(oid, 0, 32)))
        return chunks

    return c, oids, c.sim.run_process(proc())


class TestStarCluster:
    def test_same_seed_same_oids_and_metrics(self):
        first, oids_a, _ = _scan(_seed(3))
        second, oids_b, _ = _scan(_seed(3))
        assert oids_a == oids_b
        assert first.sim.now == second.sim.now
        assert first.net.metrics.snapshot() == second.net.metrics.snapshot()

    def test_non_home_agent_reads_hosted_bytes(self):
        # h1 finds the home of every oid only through the shared map.
        c, oids, chunks = _scan(_seed(4))
        assert chunks == [bytes([i]) * 32 for i in range(4)]
        assert set(c.home_map) == set(oids)
        assert set(c.home_map.values()) == {"h0"}

    def test_nodes_go_to_the_first_hosts(self):
        c = star_cluster(_seed(5), 3, nodes=2, speeds={"h1": 2.0})
        assert sorted(c.runtime.nodes) == ["h0", "h1"]
        assert c.agents == {} and c.pool is None
        speeds = {p.name: p.speed for p in c.runtime.live_profiles()}
        assert speeds == {"h0": 1.0, "h1": 2.0}

    def test_no_nodes_no_runtime(self):
        c = star_cluster(_seed(6), 2, prefix="n", agents=1)
        assert c.runtime is None
        assert list(c.agents) == ["n0"]
        assert [h.name for h in c.net.hosts] == ["n0", "n1"]

    def test_pool_members_are_the_agent_hosts(self):
        c = star_cluster(_seed(7), 3, agents=2, pool_bytes=1 << 16)
        assert c.pool.members == frozenset({"h0", "h1"})
        assert c.pool.capacity_bytes == 1 << 16
        home, reader = c.agents["h0"], c.agents["h1"]
        (oid,) = c.host_objects(home, 1, 64, _seed(7))
        home.map_to_pool(oid)

        def proc():
            return (yield from reader.read(oid, 0, 64))

        assert c.sim.run_process(proc()) == bytes(64)
        # Attached: the rack-mate's read was a pool load, not a packet.
        assert reader.tracer.counters.get("coherence.pool_hit") == 1
        assert reader.tracer.counters.get("coherence.read_miss") == 0
