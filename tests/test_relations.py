"""Metamorphic relations over the pipeline: each runs the CLI on a small
seeded batch and on a transformed copy of its inputs, and checks a
relation between the two runs' outputs that holds without an oracle for
either (ROADMAP item 24). MR2, the A/B swap, is a property of
compare_cell alone and lives in test_stats.py (TestSwapRelation)."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from triage_arena.cli import main
from triage_arena.model import Resource

BATCH = 20
# scripted Utilitarian against the biased opponent: both greedy by survival
GREEDY_RUN = ["--framework", "Utilitarian", "--opponent", "biased", "--allow-adversarial"]
UNIT_RESOURCES = (Resource.ICU, Resource.VENT, Resource.SURGERY)


def final_esg(evals: Path) -> dict:
    """(cohort id, agent label) -> that final's esg, over the eval records."""
    esg = {}
    for path in sorted(evals.glob("eval_*.json")):
        record = json.loads(path.read_text())
        for label, report in record["finals"].items():
            esg[record["cohort_id"], label] = report["esg"]
    return esg


def run_and_eval(cohorts: Path, base: Path, *args: str) -> Path:
    """Run the scripted debates over cohorts into base/t, eval them into
    base/e, and return base/e."""
    assert main(["run", "--cohorts", str(cohorts), *args, "--out", str(base / "t")]) == 0
    assert main(["eval", "--transcripts", str(base / "t"), "--out", str(base / "e")]) == 0
    return base / "e"


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    """Seed-42 cohorts and the greedy pairing's eval records."""
    base = tmp_path_factory.mktemp("relations")
    assert main(["gen-cohorts", "--seed", "42", "--batch", str(BATCH), "--out", str(base / "c")]) == 0
    return base, run_and_eval(base / "c", base, *GREEDY_RUN)


def test_mr3_more_unit_supply_never_lowers_a_greedy_final_esg(seeded, tmp_path):
    """MR3, supply monotonicity: with one more ICU, Vent and Surgery unit
    in every cohort file, no final of the scripted Utilitarian agent or
    of the biased opponent has a lower esg. Both fill patients greedily
    by survival, so a larger supply of a unit resource can only reach
    more of them."""
    base, evals = seeded
    enlarged = tmp_path / "c"
    enlarged.mkdir()
    for path in sorted((base / "c").glob("cohort_*.json")):
        cohort = json.loads(path.read_text())
        for resource in UNIT_RESOURCES:
            cohort["capacity"]["supply"][resource] += 1
        (enlarged / path.name).write_text(json.dumps(cohort))
    before = final_esg(evals)
    after = final_esg(run_and_eval(enlarged, tmp_path, *GREEDY_RUN))
    assert len(before) == 2 * BATCH
    assert after.keys() == before.keys()
    lowered = {key: (before[key], after[key]) for key in before if after[key] < before[key]}
    assert lowered == {}
    # the transform reaches the finals at all
    assert any(after[key] > before[key] for key in before)


def test_mr4_eval_file_names_and_order_do_not_change_stats(seeded, tmp_path):
    """MR4, file-name invariance: stats pairs eval records by the cohort
    ids they hold, not by their file names. Renaming every record, keeping
    the eval_ prefix and the cohort id, so that the files list in the
    reverse order, leaves comparison.json and every other stats output
    byte-identical. Two frameworks share the directory, so the reversed
    listing also interleaves their records differently."""
    base, evals = seeded
    mixed = tmp_path / "e"
    shutil.copytree(evals, mixed)
    run_and_eval(base / "c", tmp_path / "rawlsian", "--framework", "Rawlsian")
    for path in (tmp_path / "rawlsian" / "e").glob("eval_*.json"):
        shutil.copy(path, mixed / path.name)
    renamed = tmp_path / "renamed"
    renamed.mkdir()
    files = sorted(mixed.glob("eval_*.json"))
    for rank, path in enumerate(files):
        record = json.loads(path.read_text())
        name = f"eval_{len(files) - rank:04d}_cohort_{record['cohort_id']:04d}.json"
        (renamed / name).write_bytes(path.read_bytes())
    assert [json.loads(p.read_text())["cohort_id"] for p in sorted(renamed.glob("eval_*.json"))] == [
        json.loads(p.read_text())["cohort_id"] for p in reversed(files)
    ]
    outputs = []
    for directory in (mixed, renamed):
        out = tmp_path / f"stats_{directory.name}"
        assert main(["stats", "--eval-dir", str(directory), "--out", str(out)]) == 0
        outputs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    assert Path("comparison.json") in outputs[0]
    assert outputs[0] == outputs[1]
