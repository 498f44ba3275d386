"""Unit and integration tests for multi-step invocation plans."""

import pytest

from repro.cluster import star_cluster
from repro.core import GlobalRef
from repro.runtime import (
    Plan,
    PlanStep,
    RuntimeError_,
    run_plan,
)


def make_cluster(seed=91):
    c = star_cluster(seed, 4, prefix="n", nodes=4)
    sim, registry, runtime = c.sim, c.runtime.registry, c.runtime

    @registry.register("double_all")
    def double_all(ctx, args):
        return [x * 2 for x in args["rows"]]

    @registry.register("head")
    def head(ctx, args):
        return args["rows"][: args.get("k", 3)]

    @registry.register("read_rows")
    def read_rows(ctx, args):
        raw = yield ctx.read(args["source"], 0, args["n"])
        return list(raw)

    @registry.register("total")
    def total(ctx, args):
        return sum(args["rows"])

    code = {}
    for entry in ("double_all", "head", "read_rows", "total"):
        _, code[entry] = runtime.create_code("n0", entry, text_size=512)
    return sim, registry, runtime, code


class TestPlanValidation:
    def test_duplicate_step_names_rejected(self, ):
        sim, registry, runtime, code = make_cluster()
        with pytest.raises(RuntimeError_):
            Plan(steps=[
                PlanStep("a", code["total"]),
                PlanStep("a", code["total"]),
            ])

    def test_forward_reference_rejected(self):
        sim, registry, runtime, code = make_cluster()
        with pytest.raises(RuntimeError_):
            Plan(steps=[
                PlanStep("a", code["total"], inputs_from={"rows": "b"}),
                PlanStep("b", code["total"]),
            ])

    def test_self_reference_rejected(self):
        sim, registry, runtime, code = make_cluster()
        with pytest.raises(RuntimeError_):
            Plan(steps=[PlanStep("a", code["total"],
                                 inputs_from={"rows": "a"})])


class TestPlanExecution:
    def test_single_step_plan(self):
        sim, registry, runtime, code = make_cluster()
        plan = Plan(steps=[
            PlanStep("only", code["total"], values={"rows": [1, 2, 3]}),
        ])

        def proc():
            result = yield sim.spawn(run_plan(runtime, "n0", plan))
            return result

        result = sim.run_process(proc())
        assert result.value == 6
        assert len(result.step_results) == 1

    def test_values_flow_between_steps(self):
        sim, registry, runtime, code = make_cluster()
        plan = Plan(steps=[
            PlanStep("seed", code["head"], values={"rows": [5, 4, 3, 2, 1],
                                                   "k": 4}),
            PlanStep("x2", code["double_all"], inputs_from={"rows": "seed"}),
            PlanStep("sum", code["total"], inputs_from={"rows": "x2"}),
        ])

        def proc():
            result = yield sim.spawn(run_plan(runtime, "n0", plan))
            return result

        result = sim.run_process(proc())
        assert result.value == 2 * (5 + 4 + 3 + 2)

    def test_pipeline_follows_the_data(self):
        sim, registry, runtime, code = make_cluster()
        big = runtime.create_object("n2", size=500_000, label="dataset")
        big.write(0, bytes([1, 2, 3, 4]) * 100)
        plan = Plan(steps=[
            PlanStep("read", code["read_rows"],
                     data_refs={"source": GlobalRef(big.oid, 0, "read")},
                     values={"n": 400}, flops=1e4),
            PlanStep("sum", code["total"], inputs_from={"rows": "read"},
                     flops=1e4),
        ])

        def proc():
            result = yield sim.spawn(run_plan(runtime, "n0", plan))
            return result

        result = sim.run_process(proc())
        assert result.value == (1 + 2 + 3 + 4) * 100
        # The heavy first step ran where the dataset lives.
        assert result.step_results[0].executed_at == "n2"

    def test_intermediates_registered_as_objects(self):
        sim, registry, runtime, code = make_cluster()
        before = len(runtime.locations)
        plan = Plan(steps=[
            PlanStep("a", code["head"], values={"rows": [9, 8, 7]}),
            PlanStep("b", code["total"], inputs_from={"rows": "a"}),
        ])

        def proc():
            result = yield sim.spawn(run_plan(runtime, "n0", plan))
            return result

        result = sim.run_process(proc())
        assert result.value == 24
        assert len(runtime.locations) == before + 1  # one intermediate

    def test_plan_latency_accounted(self):
        sim, registry, runtime, code = make_cluster()
        plan = Plan(steps=[
            PlanStep("a", code["head"], values={"rows": [1, 2, 3]}),
            PlanStep("b", code["total"], inputs_from={"rows": "a"}),
        ])

        def proc():
            result = yield sim.spawn(run_plan(runtime, "n0", plan))
            return result

        result = sim.run_process(proc())
        assert result.latency_us > 0
        assert len(result.executed_at) == 2

    def test_candidate_restriction_applies_to_every_step(self):
        sim, registry, runtime, code = make_cluster()
        plan = Plan(steps=[
            PlanStep("a", code["head"], values={"rows": [1, 2, 3]}),
            PlanStep("b", code["total"], inputs_from={"rows": "a"}),
        ])

        def proc():
            result = yield sim.spawn(run_plan(runtime, "n0", plan,
                                              candidates=["n3"]))
            return result

        result = sim.run_process(proc())
        assert result.executed_at == ["n3", "n3"]
