"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kv_zipf --seed 1 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics (see README.md).  Either way the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed output check prints ``"correct": false`` and exits 1.

A repetition is one full run of the workload for one seed.  The run
first does one repetition with ``seed + 1`` (it warms the interpreter
and shows that another seed changes the simulated metrics), then repeats
the ``seed`` repetition until ``--seconds`` of measurement have passed
and reports host times as medians over those repetitions (set-up time
over the warm-up repetition too, so it always has several samples).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, unit) of every metric this benchmark prints; BENCHMARK.json
# declares the same names.
END_TO_END = (
    ("setup_s", "s"),
    ("host_ops_per_s", "ops/s"),
    ("peak_rss_mb", "MB"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("p999_us", "us"),
    ("ok_frac", "ratio"),
    ("max_ok_rate", "ops/s"),
)
PHASES = ("placement", "request", "stage_in", "queue", "compute", "return")
PER_LAYER = (
    ("sim.events", "count"),
    ("sim.spawns", "count"),
    ("sim.events_per_op", "events/op"),
    ("sim.self_s", "s"),
    ("net.packets", "count"),
    ("net.host_s", "s"),
    ("net.switch_s", "s"),
    ("net.link_s", "s"),
    ("net.route_calls", "count"),
    ("net.route_s", "s"),
    ("loadgen.sampler_build_s", "s"),
    ("loadgen.sample_calls", "count"),
    ("loadgen.sample_s", "s"),
    ("loadgen.record_s", "s"),
    ("loadgen.materialized", "count"),
    ("loadgen.materialize_s", "s"),
    ("runtime.invokes", "count"),
    ("runtime.invoke_s", "s"),
    ("runtime.remote_reads", "count"),
    ("runtime.remote_writes", "count"),
    ("runtime.node_s", "s"),
    ("runtime.retries", "count"),
    ("runtime.timeouts", "count"),
) + tuple((f"runtime.phase.{name}_us", "us") for name in PHASES) + (
    ("core.place_calls", "count"),
    ("core.place_s", "s"),
    ("obs.count_calls", "count"),
    ("obs.count_s", "s"),
    ("obs.spans_retained", "count"),
    ("obs.samples_retained", "count"),
    ("memproto.reads", "count"),
    ("memproto.writes", "count"),
    ("memproto.agent_s", "s"),
    ("memproto.hit_ratio", "ratio"),
    ("memproto.evict_writebacks", "count"),
    ("memproto.probe_stale_ratio", "ratio"),
    ("memproto.packets_per_op", "packets/op"),
    ("pubsub.published", "count"),
    ("pubsub.publish_s", "s"),
    ("pubsub.delivered_ratio", "ratio"),
    ("pubsub.shed_frac", "ratio"),
    ("pubsub.credit_stalls", "count"),
    ("wall.untraced_s", "s"),
    ("wall.traced_s", "s"),
    ("wall.overhead", "ratio"),
    ("wall.unattributed_s", "s"),
)
WORKLOAD_NAMES = ("kv_zipf", "invoke_leafspine", "bus_fanout", "coherence_storm")


def import_program():
    """Put the checkout's ``src`` first on the path and import from it.

    Exits 1 when the checkout holds no program: the benchmark measures the
    source next to it, never an installed copy.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


class Rep:
    """One repetition: its outcome, host times and (if traced) layer clock."""

    def __init__(self, workload: str, seed: int, traced: bool = False):
        from layers import LayerClock
        from workloads import WORKLOADS, Stopwatch

        self.watch = Stopwatch()
        self.clock = LayerClock() if traced else None
        # Start every repetition from a collected heap, so one repetition's
        # garbage is not collected on the next one's clock.
        gc.collect()
        start = time.perf_counter()
        if self.clock is not None:
            with self.clock:
                self.outcome = WORKLOADS[workload](seed, self.watch)
        else:
            self.outcome = WORKLOADS[workload](seed, self.watch)
        self.wall_s = time.perf_counter() - start

    @property
    def host_ops_per_s(self) -> float:
        return self.outcome.completed / self.watch.run_s


def repeat(workload: str, seed: int, seconds: float, traced: bool):
    """The measured repetitions (pairs of untraced and traced when traced)."""
    reps, traced_reps = [], []
    start = time.perf_counter()
    while True:
        reps.append(Rep(workload, seed))
        if traced:
            traced_reps.append(Rep(workload, seed, traced=True))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return reps, traced_reps


def check_reps(warm: Rep, reps, traced_reps) -> list:
    """Output checks across repetitions; returns the failures."""
    errors = []
    for rep in [warm] + reps + traced_reps:
        errors += rep.outcome.errors
    first = reps[0].outcome
    for rep in reps[1:]:
        if rep.outcome.fingerprint() != first.fingerprint():
            errors.append("a repeated seed did not repeat every simulated metric")
    for rep in traced_reps:
        if rep.outcome.fingerprint() != first.fingerprint():
            errors.append("the traced run's simulated outputs differ from the untraced run's")
        if rep.clock.total_self_s() > rep.wall_s:
            errors.append("per-layer self times sum to more than the traced wall time")
    if warm.outcome.sim_metrics() == first.sim_metrics():
        errors.append("a different seed left every simulated metric unchanged")
    from workloads import MIN_BEYOND

    if first.beyond(99.9) < MIN_BEYOND:
        errors.append(f"p999_us has {first.beyond(99.9)} samples beyond it, "
                      f"fewer than {MIN_BEYOND}")
    return errors


def end_to_end(warm: Rep, reps) -> dict:
    outcome = reps[0].outcome
    values = {
        "setup_s": statistics.median(rep.watch.setup_s for rep in [warm] + reps),
        "host_ops_per_s": statistics.median(rep.host_ops_per_s for rep in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    values.update(outcome.sim_metrics())
    return values


def per_layer(reps, traced_reps) -> dict:
    last = traced_reps[-1]
    outcome, clock = last.outcome, last.clock
    counts = dict.fromkeys((name for name, unit in PER_LAYER if unit != "s"), 0.0)
    counts.update(clock.calls)
    counts.update(outcome.counts)
    counts["sim.events_per_op"] = outcome.counts["sim.events"] / outcome.completed
    memproto_ops = clock.calls["memproto.reads"] + clock.calls["memproto.writes"]
    if memproto_ops:
        counts["memproto.packets_per_op"] = clock.packets_by_class["coherence"] / memproto_ops

    def median_s(get):
        return statistics.median(get(rep) for rep in traced_reps)

    values = {}
    for name, unit in PER_LAYER:
        if name.startswith("wall."):
            continue
        if unit == "s":
            values[name] = median_s(lambda rep: rep.clock.self_s.get(name, 0.0))
        else:
            values[name] = counts[name]
    untraced = statistics.median(rep.wall_s for rep in reps)
    traced = median_s(lambda rep: rep.wall_s)
    values["wall.untraced_s"] = untraced
    values["wall.traced_s"] = traced
    values["wall.overhead"] = traced / untraced
    values["wall.unattributed_s"] = median_s(lambda rep: rep.wall_s - rep.clock.total_self_s())
    return values


def describe(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:28s} {value:>16.6g} {unit:10s} {note}".rstrip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_program()

    traced = args.trace == 1
    warm = Rep(args.workload, args.seed + 1)
    reps, traced_reps = repeat(args.workload, args.seed, args.seconds, traced)
    errors = check_reps(warm, reps, traced_reps)
    outcome = reps[0].outcome
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(reps)} untraced and {len(traced_reps)} traced repetitions")
    print(f"  modelled ops per repetition: offered={outcome.offered} "
          f"completed={outcome.completed} dropped={outcome.dropped} failed={outcome.failed}"
          f" (fail_frac={1.0 - outcome.completed / outcome.offered:.6g})")
    if traced:
        specs = PER_LAYER
        values = per_layer(reps, traced_reps)
        notes = {}
    else:
        from workloads import PERCENTILES

        specs = END_TO_END
        values = end_to_end(warm, reps)
        n = outcome.hist.count
        notes = {name: f"(samples={n}, beyond={outcome.beyond(p)})" for name, p in PERCENTILES}
    for name, unit in specs:
        print(describe(name, values[name], unit, notes.get(name, "")))
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    result = {
        "correct": not errors,
        "attempted": sum(rep.outcome.offered for rep in reps + traced_reps),
        "failed": sum(rep.outcome.failed for rep in reps + traced_reps),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs},
    }
    print(json.dumps(result))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
