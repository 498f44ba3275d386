"""Per-layer host timing for the traced run.

:class:`LayerClock` wraps public functions of the program's packages in
place, times every call, and restores the originals afterwards.  Timing
uses a stack: a frame's *self* time is its inclusive time minus the
inclusive time of the wrapped calls made inside it, so per-layer self
times never overlap and sum to at most the wall time of the traced run.
Generator functions (simulated processes such as ``invoke``,
``remote_read`` and ``CoherenceAgent.read``) are timed per resume step:
each ``send``/``throw`` into the generator is one frame.

``Simulator.run`` is wrapped too, as layer ``sim.self_s``: event-loop
time that no wrapped child covers lands there.

Wrapping changes no simulated behaviour: the wrappers call the original
with the same arguments and hand back its result or exception, so a
traced run's simulated outputs equal the untraced run's (the benchmark
checks this on every traced run).
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

from repro.core.placement import PlacementEngine
from repro.loadgen import LoadGenerator
from repro.loadgen.histogram import LatencyHistogram
from repro.loadgen.popularity import ParetoSampler, UniformSampler, ZipfSampler
from repro.memproto import CoherenceAgent
from repro.net.host import Host
from repro.net.link import LinkEnd
from repro.net.packet import traffic_class
from repro.net.switch import Switch
from repro.net.topology import Network
from repro.pubsub import EventBus, PubSubFabric
from repro.runtime.engine import GlobalSpaceRuntime
from repro.runtime.node import ClusterNode
from repro.sim import Simulator, Tracer

# (layer, owner, attribute, is_generator, call counter or None).  Private
# packet handlers are listed where the layer's own work runs in them;
# they are bound when a node is built, so patching precedes set-up.
TARGETS: Tuple[Tuple[str, type, str, bool, str], ...] = (
    ("sim.self_s", Simulator, "run", False, None),
    ("sim.self_s", Simulator, "spawn", False, "sim.spawns"),
    ("net.host_s", Host, "send", False, "net.packets"),
    ("net.host_s", Host, "broadcast", False, None),
    ("net.host_s", Host, "receive", False, None),
    ("net.switch_s", Switch, "receive", False, None),
    ("net.link_s", LinkEnd, "transmit", False, None),
    ("net.link_s", LinkEnd, "_tx_done", False, None),
    ("net.link_s", LinkEnd, "_wrr_tx_done", False, None),
    ("net.link_s", LinkEnd, "_deliver", False, None),
    ("net.route_s", Network, "path", False, "net.route_calls"),
    ("net.route_s", Network, "port_toward", False, "net.route_calls"),
    ("net.route_s", Network, "path_latency_us", False, "net.route_calls"),
    ("net.route_s", Network, "hop_distance", False, "net.route_calls"),
    ("loadgen.sampler_build_s", ZipfSampler, "__init__", False, None),
    ("loadgen.sampler_build_s", ParetoSampler, "__init__", False, None),
    ("loadgen.sample_s", ZipfSampler, "sample", False, "loadgen.sample_calls"),
    ("loadgen.sample_s", ParetoSampler, "sample", False, "loadgen.sample_calls"),
    ("loadgen.sample_s", UniformSampler, "sample", False, "loadgen.sample_calls"),
    ("loadgen.record_s", LatencyHistogram, "record", False, None),
    ("loadgen.materialize_s", LoadGenerator, "_ref_for", False, None),
    ("runtime.invoke_s", GlobalSpaceRuntime, "invoke", True, "runtime.invokes"),
    ("runtime.node_s", ClusterNode, "remote_read", True, "runtime.remote_reads"),
    ("runtime.node_s", ClusterNode, "remote_write", True, "runtime.remote_writes"),
    ("runtime.node_s", ClusterNode, "fetch_object", True, None),
    ("runtime.node_s", ClusterNode, "stage_and_execute", True, None),
    ("runtime.node_s", ClusterNode, "_serve_exec", True, None),
    ("runtime.node_s", ClusterNode, "_on_reply", False, None),
    ("runtime.node_s", ClusterNode, "_on_fetch_req", False, None),
    ("runtime.node_s", ClusterNode, "_on_read_req", False, None),
    ("runtime.node_s", ClusterNode, "_on_write_req", False, None),
    ("runtime.node_s", ClusterNode, "_on_exec_req", False, None),
    ("core.place_s", PlacementEngine, "decide", False, "core.place_calls"),
    ("obs.count_s", Tracer, "count", False, "obs.count_calls"),
    ("memproto.agent_s", CoherenceAgent, "read", True, "memproto.reads"),
    ("memproto.agent_s", CoherenceAgent, "write", True, "memproto.writes"),
    ("memproto.agent_s", CoherenceAgent, "_on_acquire", False, None),
    ("memproto.agent_s", CoherenceAgent, "_on_grant", False, None),
    ("memproto.agent_s", CoherenceAgent, "_on_probe", False, None),
    ("memproto.agent_s", CoherenceAgent, "_on_probe_ack", False, None),
    ("memproto.agent_s", CoherenceAgent, "_on_release", False, None),
    ("memproto.agent_s", CoherenceAgent, "_on_release_ack", False, None),
    ("pubsub.publish_s", EventBus, "publish", False, None),
    ("pubsub.publish_s", PubSubFabric, "publish", False, None),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


class _TimedGenerator:
    """A generator proxy that times each resume step of the original."""

    __slots__ = ("_gen", "_step", "__name__")

    def __init__(self, gen, step):
        self._gen = gen
        self._step = step
        self.__name__ = getattr(gen, "__name__", "generator")

    def __iter__(self):
        return self

    def __next__(self):
        return self._step(self._gen.send, None)

    def send(self, value):
        return self._step(self._gen.send, value)

    def throw(self, *exc):
        return self._step(self._gen.throw, *exc)

    def close(self):
        return self._gen.close()


class LayerClock:
    """Self time per layer and call counts, gathered while installed.

    Use as a context manager: entering patches every target, leaving
    restores every original, even when the traced run raises.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        # Packets hosts sent, by traffic class (coherence, transport, ...).
        self.packets_by_class: Dict[str, int] = defaultdict(int)
        self._stack: List[float] = []
        self._saved: List[Tuple[type, str, object]] = []

    def _timer(self, layer: str):
        """A ``(fn, *args, **kwargs)`` caller that times ``fn`` as ``layer``."""
        stack = self._stack
        self_s = self.self_s

        def timed(fn, *args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
        return timed

    def _wrap(self, layer: str, fn, generator: bool, counter):
        calls = self.calls
        timed = self._timer(layer)
        if generator:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if counter is not None:
                    calls[counter] += 1
                return _TimedGenerator(fn(*args, **kwargs), timed)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if counter is not None:
                    calls[counter] += 1
                return timed(fn, *args, **kwargs)
        return wrapper

    def __enter__(self) -> "LayerClock":
        for layer, owner, name, generator, counter in TARGETS:
            original = owner.__dict__[name]
            if inspect.isgeneratorfunction(original) != generator:
                self.__exit__()
                raise TypeError(f"{owner.__name__}.{name}: expected a "
                                f"{'generator' if generator else 'plain'} function")
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original, generator, counter))
        timed_send = Host.send
        by_class = self.packets_by_class

        def send(host, packet, *args, **kwargs):
            by_class[traffic_class(packet)] += 1
            return timed_send(host, packet, *args, **kwargs)

        Host.send = send
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def total_self_s(self) -> float:
        return sum(self.self_s.values())
