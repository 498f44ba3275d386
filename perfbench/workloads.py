"""The four benchmark workloads, built from the program's public API.

Each workload is a function ``(seed, watch) -> Outcome``.  It times its
set-up (clusters, nodes, objects, samplers, subscriptions) inside
``watch.setup()`` and its simulated run inside ``watch.run()``, checks
the program's outputs, and returns what run.py reports.  Everything
in an :class:`Outcome` except the stopwatch is a pure function of the
seed: :meth:`Outcome.fingerprint` is what the determinism and
traced-versus-untraced checks compare.

Every workload is one single-threaded process; concurrency is simulated
processes, never OS threads.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import math
import random
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List

from repro.core import IDAllocator
from repro.core.codeobj import FunctionRegistry
from repro.core.refs import GlobalRef
from repro.loadgen import LatencyHistogram, LoadGenerator, TenantSpec, make_arrivals
from repro.memproto import EVICT_SILENT_DROP, CoherenceAgent
from repro.net.topology import build_star, build_two_tier
from repro.pubsub import AT_MOST_ONCE, EventBus, FormatField, PacketFormat, PubSubFabric
from repro.runtime.engine import MODE_LAZY, GlobalSpaceRuntime
from repro.sim import Simulator, Timeout

# Latency histograms: 4096 linear sub-buckets per power of two keep
# quantization below 0.03%, so percentiles move with the seed instead of
# snapping to the same bucket edge on every run.
HIST_SUBBUCKETS = 4096

PERCENTILES = (("p50_us", 50.0), ("p99_us", 99.0), ("p999_us", 99.9))
# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
# The latency limit: a load point is "ok" when its p99 stays under this
# and no operation was dropped or failed.
P99_LIMIT_US = 5_000.0


def _nearest_rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


class Latencies(list):
    """Exact latency samples with the :class:`LatencyHistogram` read
    interface, for workloads that time operations themselves (so the
    benchmark's own bookkeeping stays out of the ``loadgen`` layer)."""

    record = list.append

    @property
    def count(self) -> int:
        return len(self)

    def percentile(self, p: float) -> float:
        return sorted(self)[_nearest_rank(len(self), p) - 1]


class Stopwatch:
    """Host-time split of one repetition into set-up and run phases."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.run_s = 0.0

    @contextmanager
    def setup(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.setup_s += time.perf_counter() - start

    @contextmanager
    def run(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.run_s += time.perf_counter() - start


@dataclass
class Outcome:
    """What one repetition of a workload produced.

    ``offered``/``completed``/``dropped``/``failed`` count modelled
    operations over the whole workload.  ``hist`` holds the latencies of
    the measured tenant at the measured load point.  ``counts`` are
    deterministic per-layer figures read from the program's own
    tracers.  ``errors`` lists every failed output check.
    """

    offered: int = 0
    completed: int = 0
    dropped: int = 0
    failed: int = 0
    hist: "LatencyHistogram | Latencies" = field(default_factory=Latencies)
    max_ok_rate: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def add_ops(self, offered: int, completed: int, dropped: int, failed: int) -> None:
        self.offered += offered
        self.completed += completed
        self.dropped += dropped
        self.failed += failed

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def percentiles(self) -> Dict[str, float]:
        return {name: self.hist.percentile(p) for name, p in PERCENTILES}

    def beyond(self, p: float) -> int:
        """Samples strictly beyond the nearest-rank ``p`` percentile."""
        n = self.hist.count
        return n - _nearest_rank(n, p)

    def sim_metrics(self) -> Dict[str, float]:
        """The simulated end-to-end metrics (identical for one seed)."""
        out = self.percentiles()
        out["ok_frac"] = self.completed / self.offered
        out["max_ok_rate"] = self.max_ok_rate
        return out

    def fingerprint(self) -> Dict[str, float]:
        out = self.sim_metrics()
        out.update(offered=self.offered, completed=self.completed,
                   dropped=self.dropped, failed=self.failed,
                   samples=self.hist.count)
        out.update(self.counts)
        return out


def _add(counts: Dict[str, float], key: str, value: float) -> None:
    counts[key] = counts.get(key, 0) + value


def _count_cluster(counts: Dict[str, float], sim: Simulator, runtime) -> None:
    """Deterministic per-layer counts of one cluster, read after its run."""
    # Every scheduled event takes one number from the loop's sequence
    # counter (including the Timeout fast path that bypasses schedule()),
    # so the next number is the count of events the run scheduled.
    _add(counts, "sim.events", next(sim._seq))
    engine = runtime.tracer.counters
    _add(counts, "runtime.retries", engine.get("invoke.retries"))
    timeouts = engine.get("invoke.deadline_exceeded")
    for node in runtime.nodes.values():
        timeouts += node.tracer.counters.get("node.read_timeout")
        timeouts += node.tracer.counters.get("node.fetch_timeout")
    _add(counts, "runtime.timeouts", timeouts)
    _add(counts, "obs.spans_retained", len(runtime.spans))
    _add(counts, "obs.samples_retained", _samples(t for _, t in runtime.metrics.items()))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _samples(tracers) -> int:
    return sum(len(t.series.samples(key)) for t in tracers for key in t.series.keys())


def _tenant_ops(out: Outcome, counts: Dict[str, float], name: str, report) -> None:
    _add(counts, "loadgen.materialized", report.materialized)
    out.check(report.offered == report.completed + report.dropped + report.failed,
              f"{name}: offered {report.offered} != completed {report.completed}"
              f" + dropped {report.dropped} + failed {report.failed}")
    out.add_ops(report.offered, report.completed, report.dropped, report.failed)


def _loadgen_cluster(seed: int, n_hosts: int, bandwidth_gbps: float):
    sim = Simulator(seed=seed)
    net = build_star(sim, n_hosts, default_bandwidth_gbps=bandwidth_gbps,
                     default_latency_us=2.0)
    runtime = GlobalSpaceRuntime(net)
    for i in range(n_hosts):
        runtime.add_node(f"h{i}")
    return sim, runtime


# ---------------------------------------------------------------------------
# kv_zipf: open-loop Zipf load/store ladder across the saturation knee
# ---------------------------------------------------------------------------

# (offered ops/s, simulated µs).  The client link saturates near 10k
# ops/s: two rungs sit below the knee and one above it.  The rung above
# the knee only has to show the knee, so it runs shorter.
KV_RUNGS = ((3_000, 2.0e6), (6_000, 6.0e6), (12_000, 0.5e6))
KV_KEYSPACE = 1_000_000


def kv_zipf(seed: int, watch: Stopwatch) -> Outcome:
    out = Outcome()
    counts: Dict[str, float] = {}
    passing = []
    for rate, duration in KV_RUNGS:
        # A fresh cluster per rate, as a user runs a ladder.
        with watch.setup():
            sim, runtime = _loadgen_cluster(seed, 4, 0.01)
            tenant = TenantSpec(
                name="kv", client="h0", rate_per_sec=float(rate),
                popularity="zipf", skew=1.0, keyspace=KV_KEYSPACE,
                mix=(("load", 0.8), ("store", 0.2)), max_outstanding=512)
            gen = LoadGenerator(runtime, [tenant], duration_us=duration,
                                subbuckets=HIST_SUBBUCKETS)
        with watch.run():
            report = gen.run().tenants["kv"]
        _tenant_ops(out, counts, f"kv_zipf@{rate}", report)
        _count_cluster(counts, sim, runtime)
        ok = (report.dropped + report.failed == 0
              and report.overall.percentile(99.0) < P99_LIMIT_US)
        if ok:
            passing.append((rate, report.overall))
    out.counts = counts
    out.check(bool(passing), "kv_zipf: no ladder rate met the p99 limit")
    out.check(len(passing) < len(KV_RUNGS), "kv_zipf: the ladder never crossed the knee")
    if passing:
        out.max_ok_rate, out.hist = max(passing, key=lambda item: item[0])
    return out


# ---------------------------------------------------------------------------
# invoke_leafspine: closed-loop rendezvous invocations on a leaf-spine fabric
# ---------------------------------------------------------------------------

LS_CALLERS = 8
# Enough invocations for 10 samples beyond p99.9.
LS_INVOCATIONS = 10_000
LS_OBJECTS = 32
LS_MIN_BYTES, LS_MAX_BYTES = 1 << 10, 1 << 20
LS_ENTRY = "pair_checksum"
DEFAULT_LAZY_TOUCH = 0.1


def _pair_checksum(ctx, args):
    """Mobile code: CRC-32 over the first ``na`` bytes of data ref ``a``
    then the first ``nb`` bytes of ``b``."""
    a = yield ctx.read(args["a"], 0, args["na"])
    b = yield ctx.read(args["b"], 0, args["nb"])
    return zlib.crc32(b, zlib.crc32(a))


def _touched(size: int) -> int:
    # Lazy invocations leave data at its home and read it on demand; the
    # function touches the share of each input that placement assumes.
    return max(1, int(size * DEFAULT_LAZY_TOUCH))


def invoke_leafspine(seed: int, watch: Stopwatch) -> Outcome:
    out = Outcome()
    with watch.setup():
        sim = Simulator(seed=seed)
        net = build_two_tier(sim, 4, 4, n_spines=2)
        registry = FunctionRegistry()
        registry.register(LS_ENTRY, _pair_checksum)
        runtime = GlobalSpaceRuntime(net, registry)
        hosts = sorted(h.name for h in net.hosts)
        for name in hosts:
            runtime.add_node(name)
        rng = random.Random(f"leafspine-{seed}")
        refs, sizes, blobs = [], [], []
        homes = [hosts[i % len(hosts)] for i in range(LS_OBJECTS)]
        rng.shuffle(homes)
        span = math.log(LS_MAX_BYTES / LS_MIN_BYTES)
        for i, home in enumerate(homes):
            # One log-uniform size per equal slice of the log range: the
            # same mix of small and large objects for every seed, while
            # the seed moves each size within its slice and picks homes,
            # contents and the callers' choices.
            size = round(LS_MIN_BYTES * math.exp(span * (i + rng.random()) / LS_OBJECTS))
            data = rng.randbytes(size)
            obj = runtime.create_object(home, size=size)
            obj.write(0, data)
            refs.append(GlobalRef(obj.oid, 0, "read"))
            sizes.append(size)
            blobs.append(data)
        _, code_ref = runtime.create_code(hosts[0], LS_ENTRY, text_size=4096)
    hist = out.hist
    results = []
    state = {"left": LS_INVOCATIONS, "bad": 0}

    def caller(k: int):
        crng = random.Random(f"leafspine-{seed}-caller-{k}")
        while state["left"] > 0:
            state["left"] -= 1
            invoker = crng.choice(hosts)
            a, b = crng.sample(range(LS_OBJECTS), 2)
            start = sim.now
            na, nb = _touched(sizes[a]), _touched(sizes[b])
            result = yield sim.spawn(runtime.invoke(
                invoker, code_ref, data_refs={"a": refs[a], "b": refs[b]},
                values={"na": na, "nb": nb}, flops=2e6, mode=MODE_LAZY))
            hist.record(sim.now - start)
            results.append(result.invoke_id)
            # The expected checksum comes from the bytes the benchmark wrote.
            if result.value != zlib.crc32(blobs[b][:nb], zlib.crc32(blobs[a][:na])):
                state["bad"] += 1

    with watch.run():
        for k in range(LS_CALLERS):
            sim.spawn(caller(k), name=f"caller-{k}")
        sim.run()
    out.add_ops(LS_INVOCATIONS, len(results), 0, LS_INVOCATIONS - len(results))
    out.check(state["bad"] == 0, f"invoke_leafspine: {state['bad']} wrong checksums")
    out.check(out.offered == out.completed + out.dropped + out.failed,
              "invoke_leafspine: invocation accounting does not balance")
    if hist.percentile(99.0) < P99_LIMIT_US:
        out.max_ok_rate = out.completed / (sim.now / 1e6)
    counts: Dict[str, float] = {}
    _count_cluster(counts, sim, runtime)
    # Mean simulated µs per invocation in each phase: the durations of each
    # invoke span's direct children, as SpanRecorder.phases() reports
    # them, gathered in one pass over the retained spans.
    spans = runtime.spans.spans()
    roots = {span.span_id for span in spans if span.name == "invoke"}
    totals: Dict[str, float] = {}
    for span in spans:
        if span.parent_id in roots:
            _add(totals, span.name, span.duration_us)
    for name in ("placement", "request", "stage_in", "queue", "compute", "return"):
        counts[f"runtime.phase.{name}_us"] = totals.get(name, 0.0) / len(results)
    out.counts = counts
    return out


# ---------------------------------------------------------------------------
# bus_fanout: transactional tenant beside an overcommitted telemetry publisher
# ---------------------------------------------------------------------------

BUS_HOSTS = 6
BUS_DURATION_US = 6.0e6
BUS_TXN_RATE = 5_000.0
BUS_TELEMETRY_RATE = 5_000.0
BUS_SERVICE_US = 400.0
BUS_PAYLOAD_BYTES = 64


def bus_fanout(seed: int, watch: Stopwatch) -> Outcome:
    out = Outcome()
    with watch.setup():
        sim, runtime = _loadgen_cluster(seed, BUS_HOSTS, 0.05)
        fmt = PacketFormat("bench-telemetry", [FormatField("kind", 16)])
        bus = EventBus(PubSubFabric(runtime.network, fmt))
        topic = IDAllocator(seed=seed + 17).allocate()
        seen: List[set] = []
        subs = []
        duplicates = [0]

        def consumer(ids: set) -> Callable:
            def handle(fields, payload):
                event_id = int.from_bytes(payload[:8], "big")
                if event_id in ids:
                    duplicates[0] += 1
                ids.add(event_id)
            return handle

        # Two slow consumers whose joint credit grants absorb about half
        # of what the publisher offers.
        for host in ("h2", "h3"):
            ids: set = set()
            seen.append(ids)
            subs.append(bus.subscribe(host, topic, consumer(ids), contract=AT_MOST_ONCE,
                                      service_us=BUS_SERVICE_US))
        txn = TenantSpec(name="txn", client="h0", rate_per_sec=BUS_TXN_RATE,
                         popularity="zipf", skew=1.0, keyspace=10_000,
                         mix=(("load", 0.7), ("store", 0.3)), read_bytes=1024)
        gen = LoadGenerator(runtime, [txn], duration_us=BUS_DURATION_US,
                            object_bytes=1024, subbuckets=HIST_SUBBUCKETS)
        pub_rng = random.Random(sim.rng.getrandbits(64))
        arrivals = make_arrivals("poisson", BUS_TELEMETRY_RATE)
        published = [0]

    def publisher():
        elapsed = 0.0
        for gap in arrivals.gaps(pub_rng):
            if elapsed + gap > BUS_DURATION_US:
                return
            elapsed += gap
            yield Timeout(gap)
            event_id = published[0]
            published[0] += 1
            payload = event_id.to_bytes(8, "big") + bytes(BUS_PAYLOAD_BYTES - 8)
            bus.publish("h1", topic, {"kind": event_id & 0xFFFF}, payload)

    with watch.run():
        sim.spawn(publisher(), name="telemetry-publisher")
        report = gen.run().tenants["txn"]
    counts: Dict[str, float] = {}
    _tenant_ops(out, counts, "bus_fanout txn", report)
    bus_counts = bus.tracer.counters
    shed = bus_counts.get("bus.shed")
    delivered_ids = set().union(*seen)
    out.check(duplicates[0] == 0, f"bus_fanout: handlers saw {duplicates[0]} events twice")
    out.check(bus_counts.get("bus.published") == published[0],
              "bus_fanout: bus.published disagrees with the events offered")
    for sub, ids in zip(subs, seen):
        out.check(sub.delivered == len(ids) <= published[0],
                  f"bus_fanout: {sub.host_name} delivered {sub.delivered}, handled"
                  f" {len(ids)} distinct events, published {published[0]}")
    # Every event the bus did not shed reached a consumer.
    out.check(published[0] == len(delivered_ids) + shed,
              f"bus_fanout: published {published[0]} != delivered"
              f" {len(delivered_ids)} + shed {shed}")
    out.add_ops(published[0], len(delivered_ids), shed, 0)
    out.hist = report.overall
    if report.overall.percentile(99.0) < P99_LIMIT_US and report.dropped + report.failed == 0:
        out.max_ok_rate = report.completed / (BUS_DURATION_US / 1e6)
    _count_cluster(counts, sim, runtime)
    counts["obs.samples_retained"] += _samples([bus.tracer])
    counts["pubsub.published"] = published[0]
    counts["pubsub.delivered_ratio"] = bus_counts.get("bus.delivered") / (published[0] * len(seen))
    counts["pubsub.shed_frac"] = shed / published[0]
    counts["pubsub.credit_stalls"] = bus_counts.get("bus.credit_stall")
    out.counts = counts
    return out


# ---------------------------------------------------------------------------
# coherence_storm: victim tenant beside a capacity-bounded coherence storm
# ---------------------------------------------------------------------------

CS_DURATION_US = 3.0e6
CS_TXN_RATE = 4_000.0
CS_SCANNERS = 6
CS_OBJECTS = 48
CS_OBJECT_BYTES = 2_048
CS_CAPACITY_BYTES = 16_384
CS_WRITE_EVERY_US = 1_500.0
CS_WRR_WEIGHTS = {"txn": 8, "transport": 8, "coherence": 1}


def coherence_storm(seed: int, watch: Stopwatch) -> Outcome:
    out = Outcome()
    with watch.setup():
        sim = Simulator(seed=seed)
        net = build_star(sim, 3, default_bandwidth_gbps=0.05, default_latency_us=2.0)
        runtime = GlobalSpaceRuntime(net)
        runtime.add_node("h0")
        runtime.add_node("h1")
        for link in net.links:
            link.set_egress_weights(CS_WRR_WEIGHTS)
        home_map: dict = {}
        home = CoherenceAgent(net.host("h1"), home_map)
        scanner = CoherenceAgent(net.host("h2"), home_map,
                                 capacity_bytes=CS_CAPACITY_BYTES,
                                 shared_evict_policy=EVICT_SILENT_DROP)
        alloc = IDAllocator(seed=seed + 23)
        oids = []
        for i in range(CS_OBJECTS):
            oid = alloc.allocate()
            home.host_object(oid, bytes([i % 256]) * CS_OBJECT_BYTES)
            oids.append(oid)
        victim = TenantSpec(name="txn", client="h0", rate_per_sec=CS_TXN_RATE,
                            popularity="zipf", skew=1.0, keyspace=10_000,
                            mix=(("load", 0.7), ("store", 0.3)),
                            read_bytes=256, write_bytes=256, tclass="txn")
        gen = LoadGenerator(runtime, [victim], duration_us=CS_DURATION_US,
                            subbuckets=HIST_SUBBUCKETS)
    ops = {"reads": 0, "writes": 0, "stale": 0}
    # Every value each object has held, in order: a read must return one
    # that was current at some instant between its start and its end.
    history = {oid: [home.authoritative_data(oid)] for oid in oids}

    def scan(slice_oids):
        # The working set never fits the scanner's cache, so every pass
        # re-acquires every object.
        while True:
            for oid in slice_oids:
                if sim.now >= CS_DURATION_US:
                    return
                current = len(history[oid]) - 1
                data = yield from scanner.read(oid, 0, CS_OBJECT_BYTES)
                ops["reads"] += 1
                if data not in history[oid][current:]:
                    ops["stale"] += 1

    def churn():
        # Home-side writes force probe rounds at the (often stale) sharers.
        k = 0
        while sim.now < CS_DURATION_US:
            yield Timeout(CS_WRITE_EVERY_US)
            k += 1
            oid = oids[k % len(oids)]
            yield from home.write(oid, 0, bytes([k % 251]))
            history[oid].append(home.authoritative_data(oid))
            ops["writes"] += 1

    with watch.run():
        for k in range(CS_SCANNERS):
            sim.spawn(scan(oids[k::CS_SCANNERS]), name=f"storm-scan-{k}")
        sim.spawn(churn(), name="storm-churn")
        report = gen.run().tenants["txn"]
    counts: Dict[str, float] = {}
    _tenant_ops(out, counts, "coherence_storm txn", report)
    storm_ops = ops["reads"] + ops["writes"]
    out.add_ops(storm_ops, storm_ops, 0, 0)
    out.check(ops["stale"] == 0,
              f"coherence_storm: {ops['stale']} reads returned data the home never"
              " held while they were outstanding")
    out.hist = report.overall
    if report.overall.percentile(99.0) < P99_LIMIT_US and report.dropped + report.failed == 0:
        out.max_ok_rate = report.completed / (CS_DURATION_US / 1e6)
    _count_cluster(counts, sim, runtime)
    counts["obs.samples_retained"] += _samples([home.tracer, scanner.tracer])
    scan_counts, home_counts = scanner.tracer.counters, home.tracer.counters
    hits = scan_counts.get("coherence.cache_hit")
    counts["memproto.hit_ratio"] = _ratio(hits, hits + scan_counts.get("coherence.read_miss"))
    counts["memproto.evict_writebacks"] = scan_counts.get("coherence.evict.writeback")
    probes = home_counts.get("coherence.probe")
    counts["memproto.probe_stale_ratio"] = _ratio(home_counts.get("coherence.probe_stale"), probes)
    out.counts = counts
    return out


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "kv_zipf": kv_zipf,
    "invoke_leafspine": invoke_leafspine,
    "bus_fanout": bus_fanout,
    "coherence_storm": coherence_storm,
}
