"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the repo root)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import mockchat  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import CAKE_EXPECTED, Outcome, check_cake_output, check_run_dir  # noqa: E402


def _span(sid, start, end, parent=-1, name="f"):
    return (sid, name, start, end, parent, 1)


def test_self_time_subtracts_merged_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 4.0, parent=0),  # overlaps span 1: [1, 4] counts once
        _span(3, 9.0, 12.0, parent=0),  # clipped to the parent's end
        _span(4, 1.5, 2.5, parent=1),  # a grandchild does not touch span 0
    ]
    selfs = tracer.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(1.0)


def test_self_times_sum_to_the_root_duration():
    spans = [
        _span(0, 0.0, 8.0),
        _span(1, 1.0, 5.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),
        _span(3, 6.0, 7.5, parent=0),
    ]
    assert sum(tracer.self_times(spans).values()) == pytest.approx(8.0)


def test_wrap_records_parents_counters_and_errors():
    t = tracer.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    traced_inner = t.wrap("inner", inner, lambda tr, a, k, r, e: tr.add("errors", e is not None))
    traced_outer = t.wrap("outer", lambda: traced_inner(1) + traced_inner(2))
    assert traced_outer() == 3
    with pytest.raises(ValueError):
        traced_inner(-1)
    by_id = {s[0]: s for s in t.spans}
    outer = next(s for s in t.spans if s[1] == "outer")
    children = [s for s in t.spans if s[4] == outer[0]]
    assert [c[1] for c in children] == ["inner", "inner"]
    assert all(by_id[c[4]] is outer for c in children)
    assert t.counters["errors"] == 1
    agg = tracer.aggregate([{"spans": t.spans, "counters": t.counters, "queries": []}])
    assert agg["spans"]["inner"]["calls"] == 3
    assert agg["spans"]["outer"]["self_s"] <= agg["spans"]["outer"]["total_s"]


def test_install_reaches_every_import_site():
    # install patches the package for the life of the process, so check it in a fresh one
    script = """
import tracer
from triage_arena import agents, arena, cli, model
original = agents.scripted_rawlsian
t = tracer.Tracer()
tracer.install(t)
assert agents._SCRIPTED_STRATEGIES["rawlsian"] is agents.scripted_rawlsian is not original
assert cli.run_debate is arena.run_debate
assert cli.cmd_run.__wrapped__.__name__ == "cmd_run"
model.Allocation.zeros(2)
assert next(t.allocations) == 1
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _scripted_run(tmp_path: Path, batch: int) -> Path:
    from triage_arena import cli

    cohorts, out = tmp_path / "cohorts", tmp_path / "run"
    assert cli.main(["gen-cohorts", "--seed", "5", "--batch", str(batch), "--out", str(cohorts)]) == 0
    assert cli.main([
        "run", "--cohorts", str(cohorts), "--framework", "Rawlsian", "--opponent", "biased",
        "--backend", "scripted", "--allow-adversarial", "--out", str(out),
    ]) == 0
    return out


def test_run_dir_check_passes_then_catches_corruption(tmp_path):
    out = _scripted_run(tmp_path, 3)
    clean = Outcome()
    combined = check_run_dir(out, 3, clean, "run")
    assert clean.failed == 0 and clean.attempted == 3
    assert combined == json.loads((out / "manifest.json").read_text())["combined_hash"]

    victim = sorted(out.glob("transcript_*.json"))[1]
    obj = json.loads(victim.read_text())
    obj["proposals"][0]["allocation"][0][0] += 1.0
    victim.write_text(json.dumps(obj))
    corrupted = Outcome()
    check_run_dir(out, 3, corrupted, "run")
    assert corrupted.failed >= 1
    assert any("hashes do not match" in p for p in corrupted.problems)


def test_run_dir_check_counts_missing_and_failed_debates(tmp_path):
    out = _scripted_run(tmp_path, 3)
    files = sorted(out.glob("transcript_*.json"))
    files[0].unlink()
    obj = json.loads(files[1].read_text())
    obj["failed"] = {"agent": "A", "round": 1, "raw_text": "no allocation"}
    files[1].write_text(json.dumps(obj))
    outcome = Outcome()
    check_run_dir(out, 3, outcome, "run")
    # one missing transcript, one failed debate, and the manifest no longer matches
    assert outcome.failed >= 3
    assert any("2 of 3 transcripts" in p for p in outcome.problems)
    assert any("failed" in p for p in outcome.problems)


def test_cake_check_requires_exactly_the_deliberate_failure():
    good = "\n".join(f"{status} {name}: detail" for status, name in CAKE_EXPECTED)
    ok = Outcome()
    check_cake_output("grid-certified at step 0.001\n" + good, ok)
    assert ok.failed == 0
    all_pass = good.replace("FAIL util_argmax_is_corner", "PASS util_argmax_is_corner")
    bad = Outcome()
    check_cake_output(all_pass, bad)
    assert bad.failed == 1


def test_mock_replies_parse_unless_deliberately_unparseable():
    from triage_arena import agents, arena, cohortgen
    from triage_arena.model import Framework, ProfileKind

    profile, system = agents.build_profile(ProfileKind.ALIGNED, Framework.CARE_ETHICS)
    spec = arena.AgentSpec(label="A", backend=None, profile=profile, system_text=system)
    config = cohortgen.SamplerConfig(master_seed=3, batch_size=40)
    unparseable = 0
    for b in range(40):
        cohort = cohortgen.generate_cohort(cohortgen.derive_seed(3, b), config, cohort_id=b)
        prompt = arena.build_prompt(spec, cohort, arena.InteractionHistory(), None, 1, arena.DebateConfig())
        text, bad = mockchat.reply_for(prompt)
        assert mockchat.reply_for(prompt) == (text, bad)
        if bad:
            unparseable += 1
            with pytest.raises(arena.ParseError):
                arena.parse_allocation(text, cohort.n)
            text, bad = mockchat.reply_for(prompt + "\n\n" + mockchat.RETRY_MARKER)
            assert not bad
        alloc, _warnings = arena.parse_allocation(text, cohort.n)
        assert alloc.n == cohort.n
    assert 0 < unparseable < 40


def test_benchmark_json_matches_the_metric_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.BOUNDED)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.LAYERS["end_to_end"][m["name"]]["unit"]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (d["unit"], d["better"]) for name, d in run.LAYERS["per_layer"].items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
