"""Unit and integration tests for the global-space invocation runtime."""

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.cluster import star_cluster
from repro.core import FunctionRegistry, GlobalRef, IDAllocator
from repro.core.proxies import ObjectProxy
from repro.runtime import (
    GlobalSpaceRuntime,
    MODE_EAGER,
    MODE_ISOLATED,
    MODE_LAZY,
    MODE_PROXIED,
    RuntimeError_,
)
from repro.sim import Simulator


def make_cluster(seed=1, n=4, speeds=None):
    c = star_cluster(seed, n, prefix="n", nodes=n, speeds=speeds)
    return c.sim, c.net, c.runtime.registry, c.runtime


class TestClusterSetup:
    def test_duplicate_node_rejected(self):
        sim, net, registry, runtime = make_cluster()
        with pytest.raises(RuntimeError_):
            runtime.add_node("n0")

    def test_unknown_node_rejected(self):
        sim, net, registry, runtime = make_cluster()
        with pytest.raises(RuntimeError_):
            runtime.node("ghost")

    def test_create_object_registers_location(self):
        sim, net, registry, runtime = make_cluster()
        obj = runtime.create_object("n1", size=1024)
        assert runtime.holders(obj.oid) == {"n1"}
        assert runtime.object_size(obj.oid) == obj.wire_size

    def test_create_code_requires_registered_entry(self):
        sim, net, registry, runtime = make_cluster()
        with pytest.raises(RuntimeError_):
            runtime.create_code("n0", "missing", text_size=100)

    def test_unknown_object_queries_raise(self):
        sim, net, registry, runtime = make_cluster()
        ghost = IDAllocator(seed=9).allocate()
        with pytest.raises(RuntimeError_):
            runtime.holders(ghost)
        with pytest.raises(RuntimeError_):
            runtime.object_size(ghost)

    def test_adopt_object(self):
        sim, net, registry, runtime = make_cluster()
        space = runtime.node("n0").space
        obj = space.create_object(size=128)
        runtime.adopt_object("n0", obj)
        assert runtime.holders(obj.oid) == {"n0"}

    def test_nearest_holder_prefers_close_replica(self):
        sim = Simulator(seed=2)
        from repro.net import build_line

        net = build_line(sim, 3, hosts_per_switch=1)
        runtime = GlobalSpaceRuntime(net, FunctionRegistry())
        for name in ("h0_0", "h1_0", "h2_0"):
            runtime.add_node(name)
        obj = runtime.create_object("h0_0", size=64)
        runtime.note_copy(obj.oid, "h1_0")
        # copy the bytes so the replica is real
        runtime.node("h1_0").space.insert(obj.clone())
        assert runtime.nearest_holder(obj.oid, "h2_0") == "h1_0"

    def test_equidistant_replicas_tie_break_by_name(self):
        # Set iteration order follows string hashing; under this hash
        # seed a bare ``min`` over the holder set picks n2.
        script = textwrap.dedent("""
            from repro.cluster import star_cluster
            c = star_cluster(1, 4, prefix="n", nodes=4)
            runtime = c.runtime
            obj = runtime.create_object("n1", size=64)
            runtime.node("n2").space.insert(obj.clone())
            runtime.note_copy(obj.oid, "n2")
            writer = runtime.node("n0")
            c.sim.run_process(writer.remote_write(obj.oid, 0, b"x"))
            written = [n for n in ("n1", "n2")
                       if runtime.node(n).space.get(obj.oid).read(0, 1) == b"x"]
            print(runtime.nearest_holder(obj.oid, "n0"), *written)
        """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONHASHSEED="2", PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["n1", "n1"]

    def test_sources_put_a_live_hint_first(self):
        sim, net, registry, runtime = make_cluster()
        obj = runtime.create_object("n1", size=64)
        runtime.note_copy(obj.oid, "n2")
        assert runtime.sources(obj.oid, "n0") == ["n1", "n2"]
        runtime.set_locator(lambda oid, to: "n2")
        assert runtime.sources(obj.oid, "n0") == ["n2", "n1"]
        assert runtime.nearest_holder(obj.oid, "n0") == "n2"
        runtime.set_locator(lambda oid, to: "n3")  # not a holder
        assert runtime.sources(obj.oid, "n0") == ["n1", "n2"]

    def test_read_tries_the_hinted_replica_first(self):
        sim, net, registry, runtime = make_cluster()
        obj = runtime.create_object("n1", size=64)
        replica = obj.clone()
        replica.write(0, b"R")  # tells the replicas apart
        runtime.node("n2").space.insert(replica)
        runtime.note_copy(obj.oid, "n2")
        reader = runtime.node("n0")
        assert sim.run_process(reader.remote_read(obj.oid, 0, 1)) != b"R"
        runtime.set_locator(lambda oid, to: "n2")
        assert sim.run_process(reader.remote_read(obj.oid, 0, 1)) == b"R"
        fetched = sim.run_process(reader.fetch_object(obj.oid))
        assert fetched.read(0, 1) == b"R"

    def test_drop_replica_guards_last_copy(self):
        sim, net, registry, runtime = make_cluster()
        obj = runtime.create_object("n0", size=64)
        with pytest.raises(RuntimeError_):
            runtime.drop_replica(obj.oid, "n0")


class TestInvocation:
    def test_result_value_and_metadata(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("answer")
        def answer(ctx, args):
            return args["x"] * 2

        _, code_ref = runtime.create_code("n0", "answer", text_size=512)

        def proc():
            result = yield sim.spawn(runtime.invoke("n0", code_ref,
                                                    values={"x": 21}))
            return result

        result = sim.run_process(proc())
        assert result.value == 42
        assert result.executed_at in {"n0", "n1", "n2", "n3"}
        assert result.latency_us >= 0
        assert result.decision.considered

    def test_moves_computation_to_data(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("measure")
        def measure(ctx, args):
            return ctx.here

        big = runtime.create_object("n2", size=2_000_000)
        _, code_ref = runtime.create_code("n0", "measure", text_size=512)

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref,
                data_refs={"blob": GlobalRef(big.oid, 0, "read")},
                flops=1e5))
            return result

        result = sim.run_process(proc())
        assert result.value == "n2"
        assert result.executed_at == "n2"

    def test_code_object_staged_at_executor(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("noop")
        def noop(ctx, args):
            return "ok"

        big = runtime.create_object("n2", size=2_000_000)
        code, code_ref = runtime.create_code("n0", "noop", text_size=512)

        def proc():
            yield sim.spawn(runtime.invoke(
                "n0", code_ref,
                data_refs={"blob": GlobalRef(big.oid, 0, "read")},
                flops=1e5))
            return None

        sim.run_process(proc())
        assert code.oid in runtime.node("n2").space
        assert "n2" in runtime.holders(code.oid)

    def test_eager_mode_stages_data(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("read_local")
        def read_local(ctx, args):
            data = yield ctx.read(args["blob"], 0, 4)
            return (data, ctx.remote_reads, ctx.local_reads)

        blob = runtime.create_object("n1", size=4096)
        blob.write(0, b"ABCD")
        _, code_ref = runtime.create_code("n2", "read_local", text_size=256)

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n2", code_ref,
                data_refs={"blob": GlobalRef(blob.oid, 0, "read")},
                mode=MODE_EAGER, candidates=["n2"]))
            return result

        result = sim.run_process(proc())
        data, remote_reads, local_reads = result.value
        assert data == b"ABCD"
        assert remote_reads == 0
        assert local_reads == 1

    def test_eager_mode_stages_a_repeated_argument_once(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("pair")
        def pair(ctx, args):
            return ctx.here

        blob = runtime.create_object("n1", size=256 * 1024)
        _, code_ref = runtime.create_code("n0", "pair", text_size=256)
        ref = GlobalRef(blob.oid, 0, "read")

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref, data_refs={"a": ref, "b": ref},
                mode=MODE_EAGER, candidates=["n2"]))
            return result

        assert sim.run_process(proc()).value == "n2"
        # The code object and the blob, each fetched once.
        assert runtime.node("n2").tracer.counters["node.fetched"] == 2

    def test_placement_prices_a_repeated_argument_once(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("pair")
        def pair(ctx, args):
            return ctx.here

        blob = runtime.create_object("n1", size=256 * 1024)
        code, code_ref = runtime.create_code("n0", "pair", text_size=256)
        ref = GlobalRef(blob.oid, 0, "read")

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref, data_refs={"a": ref, "b": ref},
                mode=MODE_EAGER, candidates=["n2"]))
            return result

        decision = sim.run_process(proc()).decision
        assert sorted(m.ref.oid for m in decision.movements) == sorted(
            [code.oid, blob.oid])
        assert decision.bytes_moved == code.wire_size + blob.wire_size
        assert runtime.placement.tracer.counters["placement.tier.network"] == 2

    def test_pin_on_either_name_pins_a_repeated_object(self):
        sim, net, registry, runtime = make_cluster(speeds={"n1": 0.1})

        @registry.register("where2")
        def where2(ctx, args):
            return ctx.here

        blob = runtime.create_object("n1", size=1024)
        _, code_ref = runtime.create_code("n0", "where2", text_size=256)
        ref = GlobalRef(blob.oid, 0, "read")

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref, data_refs={"a": ref, "b": ref},
                pinned=["b"], flops=1e6))
            return result

        assert sim.run_process(proc()).executed_at == "n1"  # the slow holder

    def test_lazy_mode_demand_reads(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("read_lazy")
        def read_lazy(ctx, args):
            data = yield ctx.read(args["blob"], 0, 4)
            return (data, ctx.remote_reads)

        blob = runtime.create_object("n1", size=4096)
        blob.write(0, b"WXYZ")
        _, code_ref = runtime.create_code("n2", "read_lazy", text_size=256)

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n2", code_ref,
                data_refs={"blob": GlobalRef(blob.oid, 0, "read")},
                mode=MODE_LAZY, candidates=["n2"]))
            return result

        result = sim.run_process(proc())
        data, remote_reads = result.value
        assert data == b"WXYZ"
        assert remote_reads == 1
        assert blob.oid not in runtime.node("n2").space  # never staged

    def test_pinned_data_forces_local_execution(self):
        sim, net, registry, runtime = make_cluster(speeds={"n0": 0.1})

        @registry.register("where")
        def where(ctx, args):
            return ctx.here

        private = runtime.create_object("n0", size=1_000_000, label="private")
        _, code_ref = runtime.create_code("n0", "where", text_size=256)

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref,
                data_refs={"secret": GlobalRef(private.oid, 0, "read")},
                pinned=["secret"], flops=1e6))
            return result

        result = sim.run_process(proc())
        assert result.executed_at == "n0"  # despite being the slowest node

    def test_pinned_unknown_name_rejected(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("f1")
        def f1(ctx, args):
            return 1

        _, code_ref = runtime.create_code("n0", "f1", text_size=128)

        def proc():
            try:
                yield sim.spawn(runtime.invoke("n0", code_ref,
                                               pinned=["nothere"]))
            except RuntimeError_:
                return "raised"

        assert sim.run_process(proc()) == "raised"

    def test_load_balancing_to_idle_node(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("spin")
        def spin(ctx, args):
            return ctx.here

        _, code_ref = runtime.create_code("n0", "spin", text_size=256)
        # Saturate n1 artificially.
        runtime.node("n1").active_jobs = 50

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref, flops=1e6, candidates=["n1", "n2"]))
            return result

        result = sim.run_process(proc())
        assert result.executed_at == "n2"

    def test_remote_exec_failure_propagates(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("explode")
        def explode(ctx, args):
            raise ValueError("no")

        _, code_ref = runtime.create_code("n0", "explode", text_size=256)

        def proc():
            try:
                yield sim.spawn(runtime.invoke("n0", code_ref,
                                               candidates=["n1"]))
            except RuntimeError_ as exc:
                return str(exc)

        assert "no" in sim.run_process(proc())

    def test_generator_code_functions_supported(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("genfn")
        def genfn(ctx, args):
            first = yield ctx.read(args["blob"], 0, 2)
            second = yield ctx.read(args["blob"], 2, 2)
            return first + second

        blob = runtime.create_object("n1", size=64)
        blob.write(0, b"abcd")
        _, code_ref = runtime.create_code("n0", "genfn", text_size=128)

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref, data_refs={"blob": GlobalRef(blob.oid, 0, "read")}))
            return result

        assert sim.run_process(proc()).value == b"abcd"

    def test_invoker_must_be_a_node(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("f2")
        def f2(ctx, args):
            return 1

        _, code_ref = runtime.create_code("n0", "f2", text_size=128)
        with pytest.raises(RuntimeError_):
            # invoke() validates eagerly, before any yield
            runtime.invoke("ghost", code_ref).send(None)

    def test_invocation_counter(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("f3")
        def f3(ctx, args):
            return 1

        _, code_ref = runtime.create_code("n0", "f3", text_size=128)

        def proc():
            for _ in range(3):
                yield sim.spawn(runtime.invoke("n0", code_ref))
            return runtime.tracer.counters["runtime.invocations"]

        assert sim.run_process(proc()) == 3


class TestContextOperations:
    def test_context_write(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("writer")
        def writer(ctx, args):
            yield ctx.write(args["blob"], b"WRITTEN")
            return "done"

        blob = runtime.create_object("n1", size=64)
        _, code_ref = runtime.create_code("n0", "writer", text_size=128)

        def proc():
            yield sim.spawn(runtime.invoke(
                "n0", code_ref,
                data_refs={"blob": GlobalRef(blob.oid, 0, "write")},
                mode=MODE_LAZY, candidates=["n0"]))
            return None

        sim.run_process(proc())
        assert blob.read(0, 7) == b"WRITTEN"

    def test_readonly_ref_rejects_write(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("sneaky")
        def sneaky(ctx, args):
            yield ctx.write(args["blob"], b"X")
            return "wrote"

        blob = runtime.create_object("n1", size=64)
        _, code_ref = runtime.create_code("n0", "sneaky", text_size=128)

        def proc():
            try:
                yield sim.spawn(runtime.invoke(
                    "n0", code_ref,
                    data_refs={"blob": GlobalRef(blob.oid, 0, "read")},
                    candidates=["n1"]))
            except RuntimeError_:
                return "denied"

        assert sim.run_process(proc()) == "denied"

    def test_follow_cross_object_pointer(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("chase")
        def chase(ctx, args):
            target_ref = yield ctx.follow(args["start"], 0)
            data = yield ctx.read(target_ref, 0, 5)
            return data

        a = runtime.create_object("n1", size=64)
        b = runtime.create_object("n1", size=64)
        b.write(0, b"FOUND")
        at = a.alloc(8)
        a.point_to(at, b, 0)
        _, code_ref = runtime.create_code("n0", "chase", text_size=128)

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref,
                data_refs={"start": GlobalRef(a.oid, at, "read")}))
            return result

        assert sim.run_process(proc()).value == b"FOUND"


class TestReplicationApi:
    def test_replicate_copies_over_the_network(self):
        sim, net, registry, runtime = make_cluster()
        obj = runtime.create_object("n1", size=2048)
        obj.write(0, b"replica-me")

        def proc():
            copy = yield sim.spawn(runtime.replicate(obj.oid, "n3"))
            return copy.read(0, 10)

        assert sim.run_process(proc()) == b"replica-me"
        assert runtime.holders(obj.oid) == {"n1", "n3"}
        assert obj.oid in runtime.node("n3").space

    def test_replicate_pays_wire_time(self):
        sim, net, registry, runtime = make_cluster()
        small = runtime.create_object("n1", size=1024)
        big = runtime.create_object("n1", size=4_000_000)

        def timed(oid):
            start = sim.now
            yield sim.spawn(runtime.replicate(oid, "n2"))
            return sim.now - start

        def proc():
            quick = yield from timed(small.oid)
            slow = yield from timed(big.oid)
            return quick, slow

        quick, slow = sim.run_process(proc())
        assert slow > quick * 10

    def test_migrate_moves_and_updates_directory(self):
        sim, net, registry, runtime = make_cluster()
        obj = runtime.create_object("n1", size=512)
        obj.write(0, b"nomad")

        def proc():
            moved = yield sim.spawn(runtime.migrate(obj.oid, "n1", "n2"))
            return moved.read(0, 5)

        assert sim.run_process(proc()) == b"nomad"
        assert runtime.holders(obj.oid) == {"n2"}
        assert obj.oid not in runtime.node("n1").space

    def test_migrate_requires_source_to_hold(self):
        sim, net, registry, runtime = make_cluster()
        obj = runtime.create_object("n1", size=128)

        def proc():
            try:
                yield sim.spawn(runtime.migrate(obj.oid, "n2", "n3"))
            except RuntimeError_:
                return "raised"

        assert sim.run_process(proc()) == "raised"

    def test_references_survive_migration(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("read_after_move")
        def read_after_move(ctx, args):
            data = yield ctx.read(args["blob"], 0, 5)
            return data

        obj = runtime.create_object("n1", size=256)
        obj.write(0, b"STAYS")
        _, code_ref = runtime.create_code("n0", "read_after_move",
                                          text_size=128)
        ref = GlobalRef(obj.oid, 0, "read")

        def proc():
            yield sim.spawn(runtime.migrate(obj.oid, "n1", "n3"))
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref, data_refs={"blob": ref}))
            return result

        result = sim.run_process(proc())
        assert result.value == b"STAYS"


class TestExecutionContextCounters:
    def test_writes_are_not_counted_as_reads(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("write_only")
        def write_only(ctx, args):
            yield ctx.write(args["here"], b"L")
            yield ctx.write(args["there"], b"R")
            return [ctx.local_reads, ctx.remote_reads]

        here = runtime.create_object("n0", size=64)
        there = runtime.create_object("n1", size=64)
        _, code_ref = runtime.create_code("n0", "write_only", text_size=128)

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref,
                data_refs={"here": GlobalRef(here.oid, 0, "write"),
                           "there": GlobalRef(there.oid, 0, "write")},
                mode=MODE_LAZY, candidates=["n0"]))
            return result

        result = sim.run_process(proc())
        assert result.value == [0, 0]
        assert here.read(0, 1) == b"L"
        assert there.read(0, 1) == b"R"


class TestLocalRemoteParity:
    """The same invocation forced onto the invoker and forced onto
    another node returns the same value through the same span phases;
    only the remote run has a request (wire) leg."""

    @staticmethod
    def _run(mode, executor):
        sim, net, registry, runtime = make_cluster(seed=7)

        @registry.register("greet")
        def greet(ctx, args):
            blob = args["blob"]
            if isinstance(blob, ObjectProxy):
                data = yield from blob.read(0, 5)
            else:
                data = yield ctx.read(blob, 0, 5)
            return bytes(data).decode() + args["suffix"]

        blob = runtime.create_object("n3", size=4096)
        blob.write(0, b"hello")
        _, code_ref = runtime.create_code("n3", "greet", text_size=256)

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref,
                data_refs={"blob": GlobalRef(blob.oid, 0, "read")},
                values={"suffix": "!"}, mode=mode, candidates=[executor]))
            return result

        result = sim.run_process(proc())
        assert result.executed_at == executor
        spans = runtime.spans.spans(result.invoke_id)
        assert all(span.finished for span in spans)
        return result.value, [span.name for span in spans]

    @pytest.mark.parametrize(
        "mode", [MODE_EAGER, MODE_LAZY, MODE_PROXIED, MODE_ISOLATED])
    def test_same_value_and_phases(self, mode):
        local_value, local_spans = self._run(mode, "n0")
        remote_value, remote_spans = self._run(mode, "n1")
        assert local_value == remote_value == "hello!"
        assert "request" not in local_spans
        assert "request" in remote_spans
        assert [name for name in remote_spans if name != "request"] == local_spans
