"""The docs/vocabulary lockstep checker (``scripts/check_docs.py``).

Running it as part of the suite is what makes OBSERVABILITY.md
trustworthy: renaming a key in either place fails CI, not a reader.
"""

import importlib.util
import json
import pathlib


SCRIPT = (pathlib.Path(__file__).resolve().parent.parent
          / "scripts" / "check_docs.py")

spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)

from repro.obs import keys as keymod  # noqa: E402


def test_docs_and_code_agree():
    assert check_docs.run_all() == []


def test_doc_tables_parse_completely():
    rows = check_docs.parse_doc_rows()
    assert len(rows) == len(keymod.VOCABULARY)
    # Rows keep VOCABULARY order, so the docs read in declaration order.
    assert [r[0] for r in rows] == [s.name for s in keymod.VOCABULARY]


def test_detects_missing_doc_row(monkeypatch):
    monkeypatch.setattr(check_docs.keymod, "VOCABULARY",
                        keymod.VOCABULARY + (keymod.KeySpec(
                            "host.phantom", "counter", "1", "Never emitted."),))
    problems = check_docs.run_all()
    assert any("host.phantom" in p and "OBSERVABILITY.md" in p
               for p in problems)
    # The phantom key is also never emitted by the source.
    assert any("host.phantom" in p and "never emitted" in p
               for p in problems)


def test_detects_undocumented_emission(tmp_path, monkeypatch):
    rogue = tmp_path / "rogue.py"
    rogue.write_text('tracer.count("host.rogue_key")\n', encoding="utf-8")
    monkeypatch.setattr(check_docs, "SRC", tmp_path)
    monkeypatch.setattr(check_docs, "INSTRUMENTED", ("rogue.py",))
    problems = check_docs.check_emitted_keys_documented()
    assert problems and "host.rogue_key" in problems[0]


def test_detects_unusable_bench_baseline(tmp_path, monkeypatch):
    baseline = tmp_path / "BENCH-quick-baseline.json"
    monkeypatch.setattr(check_docs, "BASELINE", baseline)
    assert "is missing" in check_docs.check_bench_baseline()[0]
    baseline.write_text("{not json", encoding="utf-8")
    assert "does not load" in check_docs.check_bench_baseline()[0]
    document = json.loads(check_docs.REPO.joinpath(
        check_docs.BASELINE_REL).read_text(encoding="utf-8"))
    dropped = sorted(document["scenarios"])[0]
    del document["scenarios"][dropped]
    baseline.write_text(json.dumps(document), encoding="utf-8")
    assert check_docs.check_bench_baseline() == [
        f"bench scenario {dropped!r} is registered but missing from "
        f"{check_docs.BASELINE_REL}"]


def test_main_exit_code_reflects_consistency(capsys):
    assert check_docs.main() == 0
    assert "agree" in capsys.readouterr().out
