"""Unit tests for topology builders, path queries, and host dispatch."""

import pytest

from repro.net import (
    Network,
    NodeError,
    Packet,
    build_line,
    build_paper_topology,
    build_star,
    build_multi_region,
    build_two_tier,
)
from repro.sim import Timeout


def next_hop(net, switch, target):
    """The neighbour ``port_toward`` sends ``switch``'s traffic to."""
    return net.switch(switch).neighbor(net.port_toward(switch, target)).name


class TestBuilders:
    def test_paper_topology_shape(self, sim):
        net = build_paper_topology(sim)
        assert len(net.switches) == 4
        assert {h.name for h in net.hosts} == {"driver", "resp1", "resp2"}
        # Ring + chord = 5 switch-switch links + 3 host links.
        assert len(net.links) == 8

    def test_paper_topology_with_controller(self, sim):
        net = build_paper_topology(sim, with_controller_host=True)
        assert "controller" in {h.name for h in net.hosts}

    def test_star(self, sim):
        net = build_star(sim, 5)
        assert len(net.hosts) == 5
        assert len(net.switches) == 1
        assert all(net.hop_distance(f"h{i}", f"h{j}") == 2
                   for i in range(5) for j in range(5) if i != j)

    def test_line_diameter(self, sim):
        net = build_line(sim, 4, hosts_per_switch=1)
        assert net.hop_distance("h0_0", "h3_0") == 5  # host+3 switch hops+host

    def test_two_tier_any_pair_within_four_hops(self, sim):
        net = build_two_tier(sim, n_leaves=3, hosts_per_leaf=2)
        hosts = [h.name for h in net.hosts]
        for a in hosts:
            for b in hosts:
                if a != b:
                    assert net.hop_distance(a, b) <= 4

    def test_builder_validation(self, sim):
        with pytest.raises(ValueError):
            build_star(sim, 0)
        with pytest.raises(ValueError):
            build_line(sim, 0)
        with pytest.raises(ValueError):
            build_two_tier(sim, 0, 1)


class TestNetworkQueries:
    def test_duplicate_names_rejected(self, sim):
        net = Network(sim)
        net.add_host("a")
        with pytest.raises(NodeError):
            net.add_host("a")

    def test_unknown_node(self, sim):
        net = Network(sim)
        with pytest.raises(NodeError):
            net.node("ghost")

    def test_host_switch_type_guards(self, sim):
        net = Network(sim)
        net.add_host("h")
        net.add_switch("s")
        with pytest.raises(NodeError):
            net.switch("h")
        with pytest.raises(NodeError):
            net.host("s")

    def test_hop_distance_identity(self, sim):
        net = build_star(sim, 2)
        assert net.hop_distance("h0", "h0") == 0

    def test_hop_distance_no_path(self, sim):
        net = Network(sim)
        net.add_host("a")
        net.add_host("b")
        with pytest.raises(NodeError):
            net.hop_distance("a", "b")

    def test_paper_topology_distances(self, sim):
        net = build_paper_topology(sim)
        assert net.hop_distance("driver", "resp1") == 3  # via the s1-s3 chord
        assert net.hop_distance("driver", "resp2") == 3

    def test_path_endpoints(self, sim):
        net = build_paper_topology(sim)
        path = net.path("driver", "resp1")
        assert path[0] == "driver"
        assert path[-1] == "resp1"
        assert len(path) == net.hop_distance("driver", "resp1") + 1

    def test_port_toward_reaches_target(self, sim):
        net = build_paper_topology(sim)
        # Following port_toward from any switch must converge on resp1.
        for switch in net.switches:
            port = net.port_toward(switch.name, "resp1")
            neighbor = switch.neighbor(port)
            assert (net.hop_distance(neighbor.name, "resp1")
                    < net.hop_distance(switch.name, "resp1"))

    def test_port_toward_self_rejected(self, sim):
        net = build_paper_topology(sim)
        with pytest.raises(NodeError):
            net.port_toward("s1", "s1")

    @pytest.mark.parametrize("build", [
        build_paper_topology,
        lambda sim: build_two_tier(sim, 4, 4),
        lambda sim: build_line(sim, 4, 2),
        lambda sim: build_multi_region(sim, 3, 2, rack_latency_us=5.0,
                                       wan_latency_us=2_000.0).network,
    ], ids=["paper", "two_tier", "line", "multi_region"])
    def test_route_queries_agree(self, sim, build):
        net = build(sim)
        names = sorted(net.nodes)
        for a in names:
            for b in names:
                path = net.path(a, b)
                assert path[0] == a and path[-1] == b
                assert len(path) - 1 == net.hop_distance(a, b)
                # The tree sums from the target end: same links, float
                # additions in the other order.
                assert net.path_latency_us(a, b) == pytest.approx(sum(
                    net.link_between(x, y).latency_us
                    for x, y in zip(path, path[1:])), rel=1e-12)
                if a != b and a in {s.name for s in net.switches}:
                    assert next_hop(net, a, b) == path[1]

    def test_routes_follow_a_new_shortcut(self, sim):
        net = build_line(sim, 4, 1)
        assert net.path("h0_0", "h3_0") == [
            "h0_0", "s0", "s1", "s2", "s3", "h3_0"]
        assert next_hop(net, "s0", "h3_0") == "s1"
        net.connect("s0", "s3", latency_us=1.0)
        assert net.path("h0_0", "h3_0") == ["h0_0", "s0", "s3", "h3_0"]
        assert net.hop_distance("h0_0", "h3_0") == 3
        assert net.path_latency_us("h0_0", "h3_0") == (
            2 * net.default_latency_us + 1.0)
        assert next_hop(net, "s0", "h3_0") == "s3"

    def test_routes_reach_a_new_host(self, sim):
        net = build_star(sim, 2)
        assert net.hop_distance("h0", "h1") == 2
        net.add_host("late")
        with pytest.raises(NodeError):
            net.hop_distance("h0", "late")
        net.connect("late", "s0")
        assert net.hop_distance("h0", "late") == 2
        assert net.path("late", "h1") == ["late", "s0", "h1"]

    def test_unknown_names_raise(self, sim):
        net = build_star(sim, 2)
        with pytest.raises(NodeError):
            net.path("zz", "zz")
        with pytest.raises(NodeError):
            net.path("zz", "h0")
        with pytest.raises(NodeError):
            net.path_latency_us("h0", "zz")
        with pytest.raises(NodeError):
            net.hop_distance("zz", "h0")
        with pytest.raises(NodeError):
            net.port_toward("s0", "zz")


class TestHostDispatch:
    def test_handler_dispatch_by_kind(self, sim):
        net = build_star(sim, 2)
        got_a, got_b = [], []
        net.host("h1").on("a", lambda p: got_a.append(p))
        net.host("h1").on("b", lambda p: got_b.append(p))

        def proc():
            net.host("h0").send(Packet(kind="a", src="h0", dst="h1"))
            net.host("h0").send(Packet(kind="b", src="h0", dst="h1"))
            yield Timeout(100)

        sim.run_process(proc())
        assert len(got_a) == 1 and len(got_b) == 1

    def test_duplicate_handler_rejected(self, sim):
        net = build_star(sim, 1)
        net.host("h0").on("k", lambda p: None)
        with pytest.raises(NodeError):
            net.host("h0").on("k", lambda p: None)

    def test_replace_handler(self, sim):
        net = build_star(sim, 2)
        first, second = [], []
        net.host("h1").on("k", lambda p: first.append(p))
        net.host("h1").replace_handler("k", lambda p: second.append(p))

        def proc():
            net.host("h0").send(Packet(kind="k", src="h0", dst="h1"))
            yield Timeout(100)

        sim.run_process(proc())
        assert first == [] and len(second) == 1

    def test_unhandled_packets_queued(self, sim):
        net = build_star(sim, 2)

        def proc():
            net.host("h0").send(Packet(kind="mystery", src="h0", dst="h1"))
            yield Timeout(100)

        sim.run_process(proc())
        host = net.host("h1")
        assert len(host.unhandled) == 1
        assert host.tracer.counters["host.unhandled"] == 1

    def test_send_requires_attachment(self, sim):
        from repro.net.host import Host

        lonely = Host(sim, "lonely")
        with pytest.raises(NodeError):
            lonely.send(Packet(kind="x", src="lonely", dst="y"))

    def test_broadcast_loop_suppression_in_paper_topology(self, sim):
        net = build_paper_topology(sim)
        got = []
        net.host("resp1").on("who", lambda p: got.append(p))

        def proc():
            net.host("driver").broadcast("who")
            yield Timeout(1000)

        sim.run_process(proc())
        assert len(got) == 1  # exactly one copy despite the loops

    def test_own_broadcast_not_delivered_back(self, sim):
        net = build_paper_topology(sim)
        got = []
        net.host("driver").on("who", lambda p: got.append(p))

        def proc():
            net.host("driver").broadcast("who")
            yield Timeout(1000)

        sim.run_process(proc())
        assert got == []
