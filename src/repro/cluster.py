"""One star-fabric cluster, built in one place.

:func:`star_cluster` wires the layout the bench scenarios, the CLI and
the tests share: a seeded simulator, one switch with ``hosts`` hosts,
runtime nodes on the first ``nodes`` hosts, MSI coherence agents on one
shared home map on the first ``agents`` hosts, and (with ``pool_bytes``)
one rack pool those agents attach to.  It adds no behaviour: every
piece is the component's own constructor with its defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .core.objectid import IDAllocator, ObjectID
from .memproto import CoherenceAgent, SharedMemoryPool
from .net.topology import Network, build_star
from .runtime.engine import GlobalSpaceRuntime
from .sim import Simulator

__all__ = ["Cluster", "star_cluster"]


@dataclass
class Cluster:
    """What :func:`star_cluster` built.  ``runtime`` is ``None`` without
    nodes and ``pool`` without ``pool_bytes``; ``agents`` maps host name
    to agent."""

    sim: Simulator
    net: Network
    runtime: Optional[GlobalSpaceRuntime]
    home_map: Dict[ObjectID, str]
    agents: Dict[str, CoherenceAgent]
    pool: Optional[SharedMemoryPool]

    def host_objects(self, home: CoherenceAgent, count: int, size: int,
                     alloc_seed: int) -> List[ObjectID]:
        """Home ``count`` objects of ``size`` bytes at ``home`` (object
        ``i`` filled with byte ``i % 256``); returns their oids in order."""
        alloc = IDAllocator(seed=alloc_seed)
        oids = []
        for i in range(count):
            oid = alloc.allocate()
            home.host_object(oid, bytes([i % 256]) * size)
            oids.append(oid)
        return oids


def star_cluster(seed: int, hosts: int, *, prefix: str = "h", nodes: int = 0,
                 speeds: Optional[Dict[str, float]] = None, agents: int = 0,
                 pool_bytes: Optional[int] = None,
                 **build_star_kwargs) -> Cluster:
    """A ``hosts``-host star (hosts ``{prefix}0..``) on a fresh
    ``Simulator(seed=seed)``.  ``speeds`` maps node name to its speed
    (default 1.0); ``build_star_kwargs`` go straight to
    :func:`~repro.net.topology.build_star`."""
    sim = Simulator(seed=seed)
    net = build_star(sim, hosts, prefix=prefix, **build_star_kwargs)
    names = [f"{prefix}{i}" for i in range(hosts)]
    runtime = None
    if nodes:
        runtime = GlobalSpaceRuntime(net)
        for name in names[:nodes]:
            runtime.add_node(name, speed=(speeds or {}).get(name, 1.0))
    home_map: Dict[ObjectID, str] = {}
    coherent = {name: CoherenceAgent(net.host(name), home_map)
                for name in names[:agents]}
    pool = None
    if pool_bytes is not None:
        pool = SharedMemoryPool(sim, "rack0", list(coherent), pool_bytes)
        for agent in coherent.values():
            agent.attach_pool(pool)
    return Cluster(sim, net, runtime, home_map, coherent, pool)
