"""Tests for the benchmark: ``python3 -m pytest perfbench -q``.

They run whole repetitions, so they take a few minutes.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import layers  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_repetition_reproduces_untraced(workload):
    originals = {(owner, name): owner.__dict__[name] for _, owner, name, _, _ in layers.TARGETS}
    plain = run.Rep(workload, 3)
    traced = run.Rep(workload, 3, traced=True)
    assert plain.outcome.errors == []
    assert traced.outcome.fingerprint() == plain.outcome.fingerprint()
    assert 0 < traced.clock.total_self_s() <= traced.wall_s
    assert set(traced.clock.self_s) <= set(layers.LAYERS)
    for (owner, name), original in originals.items():
        assert owner.__dict__[name] is original, f"{owner.__name__}.{name} not restored"


def test_declared_metrics_match_run_py():
    for kind, specs in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in DECLARED[kind]]
        assert declared == list(specs)
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_names_are_declared(trace, capsys):
    code = run.main(["--workload", "bus_fanout", "--seed", "5",
                     "--seconds", "0.1", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert NAME_RE.match(name), name
        assert metric["unit"] == declared[name]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kv_zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
