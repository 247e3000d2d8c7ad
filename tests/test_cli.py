from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import logging
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import triage_arena
from triage_arena import agents, arena, cli
from triage_arena.agents import ReplayBackend, ScriptedBackend, build_profile
from triage_arena.arena import AgentSpec, DebateConfig, run_debate, transcript_from_json
from triage_arena.cli import main
from triage_arena.metrics import METRIC_NAMES
from triage_arena.model import SCHEMA_VERSIONS, Framework, ProfileKind, canonical_json
from triage_arena.persistence import RunManifest, read_eval_record, validate_schemas, write_json
from triage_arena.stats import cell_seed, compare_cell, pair_reports

from conftest import failing_atomic_write

# Outputs of the small_run pipeline (seed 7, batch 6, scripted Rawlsian vs
# biased) and of `stats` and `report` over it with default options.
SMALL_RUN_COMBINED_HASH = "aadf4237f788801aacb12762afef7e233585e8f526a1e5b1504b9082a57055a7"
SMALL_RUN_COMPARISON_SHA256 = "d5540f7da98e5c7699fab6f8a47db95dd191392d40c89fd2e384ce37080562cb"
SMALL_RUN_REPORT_SHA256 = "37af91ac28b7a4f2cf7ee0b844dda928349d420fc86b21f0318246be5a7c98f5"
# Its eval records (schema_version 3): the per-round, final and joint metric
# reports, the sha256 of the transcript scored and the capacity variant,
# one eval file per cohort.
SMALL_RUN_EVAL_SHA256 = {
    "eval_rawlsian_biased_0000.json": "1c585b945852525acef9d4be4fcd32889616e6c4ed7cffbbf921dd10afffd431",
    "eval_rawlsian_biased_0001.json": "566a89ef9ce0cc6b0d5688be8e34bc411dbccae4a82781054a3f0966a638de88",
    "eval_rawlsian_biased_0002.json": "5a328b943f851d9184464c57b1d79855f2680920e437670723bb3e7e3d870eec",
    "eval_rawlsian_biased_0003.json": "c7849b9ec87ebdfa8778b7bd0828752462faf5a53d421173ba8f845d04ae1405",
    "eval_rawlsian_biased_0004.json": "c76061f241148d0fe486f3ae3fd95668d849a6c505e50777cf1310ec5c474dd8",
    "eval_rawlsian_biased_0005.json": "60d0587bed01c945546a5faffcfbae5e2feec4bcb39576744dd2b92d0a0bcc33",
}
# Manifest of `run --backend replay --framework Utilitarian`: the reference
# debate's stored rounds rendered as replies and replayed.
REPLAY_COMBINED_HASH = "935111c6a1b7225223aa82598d0fa19045497ec6a9e2f5341e66954b529c7144"


def read_dir_bytes(directory: Path) -> dict:
    return {
        f.name: f.read_bytes() for f in sorted(directory.glob("*.json"))
    }


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A complete gen -> run -> eval pipeline over 6 cohorts, shared
    across the read-only CLI tests."""
    base = tmp_path_factory.mktemp("pipeline")
    cohorts = base / "cohorts"
    transcripts = base / "transcripts"
    evals = base / "evals"
    assert main(["gen-cohorts", "--seed", "7", "--batch", "6", "--out", str(cohorts)]) == 0
    assert (
        main(
            [
                "run",
                "--cohorts", str(cohorts),
                "--framework", "Rawlsian",
                "--opponent", "biased",
                "--backend", "scripted",
                "--allow-adversarial",
                "--out", str(transcripts),
            ]
        )
        == 0
    )
    assert main(["eval", "--transcripts", str(transcripts), "--out", str(evals)]) == 0
    return base


@pytest.fixture(scope="module")
def mock_chat():
    """The benchmark's keep-alive mock chat server, whose every reply
    depends only on the prompt; its URL."""
    script = Path(__file__).resolve().parents[1] / "perfbench" / "mockchat.py"
    proc = subprocess.Popen([sys.executable, str(script)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        port = int(proc.stdout.readline())
        yield f"http://127.0.0.1:{port}/v1/chat/completions"
    finally:
        proc.stdin.close()
        proc.wait(timeout=10)
        proc.stdout.close()


class TestGenCohorts:
    def test_rerun_is_bit_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["gen-cohorts", "--seed", "42", "--batch", "5", "--out", str(out1)]) == 0
        assert main(["gen-cohorts", "--seed", "42", "--batch", "5", "--out", str(out2)]) == 0
        assert read_dir_bytes(out1) == read_dir_bytes(out2)

    def test_batch_zero_usage_error(self, tmp_path):
        assert main(["gen-cohorts", "--batch", "0", "--out", str(tmp_path / "x")]) == 2

    def test_manifest_hash_tracks_cohort_content(self, tmp_path):
        out = tmp_path / "c"
        main(["gen-cohorts", "--seed", "1", "--batch", "2", "--out", str(out)])
        manifest1 = json.loads((out / "manifest.json").read_text())
        target = out / "cohort_0000.json"
        mutated = target.read_text().replace('"cohort_id": 0', '"cohort_id": 0 ')
        target.write_text(mutated)
        main(["gen-cohorts", "--seed", "1", "--batch", "2", "--out", str(tmp_path / "d")])
        manifest_same = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest_same["combined_hash"] == manifest1["combined_hash"]
        from triage_arena.persistence import build_manifest, sha256_file

        rebuilt = build_manifest(
            "x", [(f.name, sha256_file(f)) for f in (target, out / "cohort_0001.json")], {}
        )
        assert rebuilt.combined_hash != manifest1["combined_hash"]

    def test_variant_choice_respected(self, tmp_path):
        out = tmp_path / "tight"
        main(["gen-cohorts", "--seed", "3", "--batch", "1", "--variant", "tight", "--out", str(out)])
        cohort = json.loads((out / "cohort_0000.json").read_text())
        assert cohort["capacity"]["supply"] == [2, 1, 45, 35, 60, 2]

    @staticmethod
    def _slots(count=3):
        return {
            "slots": [
                {
                    "slot_id": f"slot_custom_{i}",
                    "age_range": [20 + i, 30 + i],
                    "gender_options": {"Male": 0.5, "Female": 0.5},
                    "race_options": ["White", "Black"],
                    "ses_options": ["Low", "High"],
                    "citizenship_options": ["Citizen"],
                    "condition_variants": [
                        {"name": "Condition", "needs": ["Nursing", "MedA"]}
                    ],
                    "survival_range": [0.4, 0.9],
                    "occupation_options": ["Worker"],
                    "family_options": ["None"],
                }
                for i in range(count)
            ]
        }

    def test_custom_slots_file(self, tmp_path):
        slots_file = tmp_path / "slots.json"
        slots_file.write_text(json.dumps(self._slots()))
        out = tmp_path / "custom"
        assert main([
            "gen-cohorts", "--seed", "1", "--batch", "2",
            "--slots-file", str(slots_file), "--out", str(out),
        ]) == 0
        cohort = json.loads((out / "cohort_0000.json").read_text())
        assert len(cohort["patients"]) == 3
        assert all(p["slot_id"].startswith("slot_custom") for p in cohort["patients"])

    def test_slot_without_age_range_is_config_error(self, tmp_path, capsys):
        slots = self._slots()
        del slots["slots"][1]["age_range"]
        slots_file = tmp_path / "slots.json"
        slots_file.write_text(json.dumps(slots))
        out = tmp_path / "custom"
        code = main(["gen-cohorts", "--batch", "1", "--slots-file", str(slots_file), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"invalid slots file {slots_file}: KeyError: 'age_range'" in err
        assert not out.exists()

    def test_unsatisfiable_slots_are_usage_error(self, tmp_path, capsys):
        # two slots that can each draw only one demographic tuple
        slots = self._slots(2)
        for slot in slots["slots"]:
            slot.update(
                age_range=[30, 30], gender_options={"Male": 1.0}, race_options=["White"],
                ses_options=["Low"], citizenship_options=["Citizen"],
            )
        slots_file = tmp_path / "slots.json"
        slots_file.write_text(json.dumps(slots))
        out = tmp_path / "custom"
        code = main(["gen-cohorts", "--batch", "2", "--slots-file", str(slots_file), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: cohort 0: diversity constraint unsatisfiable within ")
        assert not out.exists()


class TestRun:
    def test_transcript_count_matches_cohorts(self, small_run):
        transcripts = list((small_run / "transcripts").glob("transcript_*.json"))
        assert len(transcripts) == 6

    def test_biased_without_flag_refused(self, tmp_path, small_run, capsys):
        code = main(
            [
                "run",
                "--cohorts", str(small_run / "cohorts"),
                "--framework", "Rawlsian",
                "--opponent", "biased",
                "--out", str(tmp_path / "t"),
            ]
        )
        assert code == 2
        assert "allow-adversarial" in capsys.readouterr().err

    def test_rerun_skips_existing(self, small_run, capsys):
        code = main(
            [
                "run",
                "--cohorts", str(small_run / "cohorts"),
                "--framework", "Rawlsian",
                "--opponent", "biased",
                "--backend", "scripted",
                "--allow-adversarial",
                "--out", str(small_run / "transcripts"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "executed 0 debates, skipped 6" in out

    @pytest.mark.parametrize(
        "damage",
        [lambda good: b"\xff\xfe{}", lambda good: b"[1]", lambda good: good[: len(good) // 2]],
        ids=["not-utf8", "not-an-object", "truncated"],
    )
    def test_rerun_redoes_bad_existing_transcript(self, small_run, tmp_path, capsys, damage):
        out = tmp_path / "t"
        shutil.copytree(small_run / "transcripts", out)
        target = sorted(out.glob("transcript_*.json"))[2]
        good = target.read_bytes()
        target.write_bytes(damage(good))
        code = main(
            [
                "run",
                "--cohorts", str(small_run / "cohorts"),
                "--framework", "Rawlsian",
                "--opponent", "biased",
                "--backend", "scripted",
                "--allow-adversarial",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "executed 1 debates, skipped 5 existing, 0 failures" in capsys.readouterr().out
        assert target.read_bytes() == good
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["combined_hash"] == SMALL_RUN_COMBINED_HASH

    def test_run_without_cohorts_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert main(["run", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --cohorts is required unless --backend replay\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "make, reason",
        [
            (lambda corpus: None, "does not exist"),
            (lambda corpus: corpus.write_text("a corpus file, not a directory\n"), "is not a directory"),
            # an empty and a blank .txt file, and words only outside .txt
            (
                lambda corpus: (
                    corpus.mkdir(),
                    (corpus / "empty.txt").write_text(""),
                    (corpus / "blank.txt").write_text(" \n\f\n"),
                    (corpus / "notes.md").write_text("equal concern\n"),
                ),
                "holds no .txt file with a word to retrieve",
            ),
        ],
        ids=["missing", "file", "no-chunk"],
    )
    def test_unusable_corpus_dir_is_usage_error(self, small_run, tmp_path, capsys, make, reason):
        corpus, out = tmp_path / "corpus", tmp_path / "t"
        make(corpus)
        argv = ["run", "--cohorts", str(small_run / "cohorts"), "--framework", "Rawlsian",
                "--corpus-dir", str(corpus), "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --corpus-dir {corpus} {reason}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_corpus_dir_gives_only_the_aligned_agent_a_log_per_round(self, small_run, tmp_path):
        corpus = resources.files("triage_arena").joinpath("data/sample_corpus")
        out = tmp_path / "t"
        argv = ["run", "--cohorts", str(small_run / "cohorts"), "--framework", "Rawlsian",
                "--opponent", "biased", "--allow-adversarial", "--corpus-dir", str(corpus), "--out", str(out)]
        assert main(argv) == 0
        transcripts = sorted(out.glob("transcript_*.json"))
        assert len(transcripts) == 6
        for path in transcripts:
            logs = json.loads(path.read_text())["retrieval_logs"]
            assert [(log["agent"], log["round"]) for log in logs] == [("A", 1), ("A", 2), ("A", 3)]

    def test_manifest_is_deterministic_only_if_both_backends_are(self, small_run, tmp_path, monkeypatch):
        class Unrepeatable(ScriptedBackend):
            deterministic = False

        build = cli._build_agents

        def build_with_unrepeatable_b(args, framework, fixtures=None):
            agent_a, agent_b = build(args, framework, fixtures)
            return agent_a, dataclasses.replace(agent_b, backend=Unrepeatable("utilitarian"))

        monkeypatch.setattr(cli, "_build_agents", build_with_unrepeatable_b)
        out = tmp_path / "t"
        assert main(["run", "--cohorts", str(small_run / "cohorts"), "--framework", "Rawlsian", "--out", str(out)]) == 0
        transcript = json.loads(sorted(out.glob("transcript_*.json"))[0].read_text())
        assert transcript["deterministic"] is False
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["deterministic"] is False
        assert manifest["timestamp"] is not None

    def test_unsupported_scripted_framework_is_config_error(self, small_run, tmp_path):
        code = main(
            [
                "run",
                "--cohorts", str(small_run / "cohorts"),
                "--framework", "CareEthics",
                "--backend", "scripted",
                "--out", str(tmp_path / "t"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "text, reason",
        [
            ('{"cohort_id": 0}', "KeyError"),
            ("{not json", "JSONDecodeError"),
        ],
    )
    def test_invalid_cohort_file_is_config_error(self, tmp_path, capsys, text, reason):
        cohorts = tmp_path / "cohorts"
        cohorts.mkdir()
        (cohorts / "cohort_0000.json").write_text(text)
        code = main(
            [
                "run",
                "--cohorts", str(cohorts),
                "--backend", "scripted",
                "--out", str(tmp_path / "t"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "cohort_0000.json" in err
        assert reason in err

    @pytest.mark.parametrize("length", [5, 7])
    def test_capacity_not_six_long_is_config_error(self, small_run, tmp_path, capsys, length):
        # rejected at load, before any debate could fail on it with exit 3
        obj = json.loads((small_run / "cohorts" / "cohort_0000.json").read_text())
        obj["capacity"]["supply"] = [1.0] * length
        cohorts = tmp_path / "cohorts"
        cohorts.mkdir()
        (cohorts / "cohort_0000.json").write_text(json.dumps(obj))
        out = tmp_path / "t"
        code = main(["run", "--cohorts", str(cohorts), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "cohort_0000.json" in err
        assert f"supply lists {length} entries" in err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_config_error(self, small_run, tmp_path, capsys, jobs):
        code = main(
            [
                "run",
                "--cohorts", str(small_run / "cohorts"),
                "--backend", "scripted",
                "--jobs", jobs,
                "--out", str(tmp_path / "t"),
            ]
        )
        assert code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_parallel_run_identical_to_serial(self, small_run, tmp_path):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        for out, jobs in ((serial, "1"), (parallel, "4")):
            assert (
                main(
                    [
                        "run",
                        "--cohorts", str(small_run / "cohorts"),
                        "--framework", "Utilitarian",
                        "--backend", "scripted",
                        "--jobs", jobs,
                        "--out", str(out),
                    ]
                )
                == 0
            )
        serial_files = read_dir_bytes(serial)
        parallel_files = read_dir_bytes(parallel)
        assert serial_files == parallel_files

    def test_scripted_strategy_called_once_per_debate(self, small_run, tmp_path, monkeypatch):
        # neither strategy reads the prompt or the history, so the rounds of
        # a debate share one reply; under --jobs each thread keeps its own
        calls = []

        def counted(name, strategy):
            def call(cohort):
                calls.append((name, cohort.cohort_id))
                return strategy(cohort)

            return call

        for name, strategy in list(agents._SCRIPTED_STRATEGIES.items()):
            monkeypatch.setitem(agents._SCRIPTED_STRATEGIES, name, counted(name, strategy))
        outputs = {}
        for jobs in ("1", "2"):
            calls.clear()
            out = tmp_path / f"jobs{jobs}"
            assert main([
                "run", "--cohorts", str(small_run / "cohorts"), "--framework", "Rawlsian",
                "--opponent", "biased", "--backend", "scripted", "--allow-adversarial",
                "--jobs", jobs, "--out", str(out),
            ]) == 0
            assert sorted(calls) == [
                (name, cohort) for name in ("biased", "rawlsian") for cohort in range(6)
            ]
            outputs[jobs] = read_dir_bytes(out)
        assert outputs["1"] == outputs["2"] == read_dir_bytes(small_run / "transcripts")

    @pytest.fixture
    def dead_endpoint(self, monkeypatch):
        """A chat URL on a local port with nothing listening; retries do not sleep."""
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        monkeypatch.setattr(time, "sleep", lambda seconds: None)
        return f"http://127.0.0.1:{port}/v1/chat/completions"

    def test_failed_debate_exits_io_and_keeps_manifest(self, tmp_path, dead_endpoint, capsys):
        cohorts = tmp_path / "cohorts"
        assert main(["gen-cohorts", "--seed", "3", "--batch", "1", "--out", str(cohorts)]) == 0
        out = tmp_path / "run"
        code = main(
            [
                "run",
                "--cohorts", str(cohorts),
                "--backend", "chat",
                "--endpoint", dead_endpoint,
                "--model", "m",
                "--out", str(out),
            ]
        )
        assert code == 3
        assert "1 failures" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == []
        assert not list(out.glob("transcript_*.json"))

    def test_failed_debate_is_journalled_and_run_again(self, tmp_path, dead_endpoint, capsys):
        cohorts = tmp_path / "cohorts"
        assert main(["gen-cohorts", "--seed", "3", "--batch", "1", "--out", str(cohorts)]) == 0
        out = tmp_path / "run"
        argv = ["run", "--cohorts", str(cohorts), "--backend", "chat", "--endpoint", dead_endpoint,
                "--model", "m", "--out", str(out)]
        for _attempt in (1, 2):
            assert main(argv) == 3
            assert "executed 0 debates, skipped 0 existing, 1 failures" in capsys.readouterr().out
            # the second failure replaces the line of the first
            lines = journal_lines(out)
            assert len(lines) == 1
            assert lines[-1]["sha256"] is None
            assert lines[-1]["failed"].startswith("transcript_utilitarian_baseline_0000.json: ")

    def test_parallel_failures_listed_in_cohort_order(self, tmp_path, dead_endpoint, capsys):
        cohorts = tmp_path / "cohorts"
        assert main(["gen-cohorts", "--seed", "3", "--batch", "3", "--out", str(cohorts)]) == 0
        out = tmp_path / "run"
        code = main(
            [
                "run",
                "--cohorts", str(cohorts),
                "--backend", "chat",
                "--endpoint", dead_endpoint,
                "--model", "m",
                "--jobs", "2",
                "--out", str(out),
            ]
        )
        assert code == 3
        failed = [line.strip() for line in capsys.readouterr().err.splitlines() if "failed:" in line]
        assert len(failed) == 3
        for i, line in enumerate(failed):
            assert line.startswith(f"failed: transcript_utilitarian_baseline_{i:04d}.json: ")
        assert json.loads((out / "manifest.json").read_text())["files"] == []


def journal_lines(run_dir: Path) -> list[dict]:
    return [json.loads(line) for line in (run_dir / "journal.jsonl").read_bytes().splitlines()]


SMALL_RUN_ARGS = ["--framework", "Rawlsian", "--opponent", "biased", "--backend", "scripted", "--allow-adversarial"]


class TestJournal:
    """`run` journals each debate and resumes from the journal without
    decoding the files it records; anything it does not vouch for falls
    back to decoding the cohort and comparing the transcript's
    config_hash, with the same outputs."""

    @pytest.fixture
    def resumable(self, small_run, tmp_path):
        """A copy of the small run's cohorts and run directory."""
        shutil.copytree(small_run / "cohorts", tmp_path / "cohorts")
        shutil.copytree(small_run / "transcripts", tmp_path / "t")
        return tmp_path

    @staticmethod
    def resume(base: Path, capsys, monkeypatch, *extra) -> tuple[str, int]:
        """Run again over base/cohorts into base/t; its summary line and
        how many input files it decoded."""
        decoded = []
        read_input = cli._read_input

        def counted(path, kind, parse, data=None):
            decoded.append(Path(path).name)
            return read_input(path, kind, parse, data)

        monkeypatch.setattr(cli, "_read_input", counted)
        code = main(["run", "--cohorts", str(base / "cohorts"), *SMALL_RUN_ARGS, *extra, "--out", str(base / "t")])
        monkeypatch.setattr(cli, "_read_input", read_input)
        assert code == 0
        return capsys.readouterr().out.strip(), len(decoded)

    def test_fresh_run_journals_every_debate(self, small_run):
        run_dir = small_run / "transcripts"
        lines = journal_lines(run_dir)
        assert sorted(line["transcript"] for line in lines) == sorted(
            f.name for f in run_dir.glob("transcript_*.json")
        )
        for line in lines:
            assert line["failed"] is None
            assert line["sha256"] == hashlib.sha256((run_dir / line["transcript"]).read_bytes()).hexdigest()
            cohort_bytes = (small_run / "cohorts" / line["cohort_file"]).read_bytes()
            assert line["cohort_sha256"] == hashlib.sha256(cohort_bytes).hexdigest()
            assert line["config_hash"] == json.loads((run_dir / line["transcript"]).read_text())["config_hash"]
        assert len({line["run_key"] for line in lines}) == 1

    def test_resume_decodes_no_input(self, resumable, capsys, monkeypatch):
        before = read_dir_bytes(resumable / "t")
        journal = (resumable / "t" / "journal.jsonl").read_bytes()
        summary, decoded = self.resume(resumable, capsys, monkeypatch)
        assert summary == "executed 0 debates, skipped 6 existing, 0 failures"
        assert decoded == 0
        assert read_dir_bytes(resumable / "t") == before
        assert (resumable / "t" / "journal.jsonl").read_bytes() == journal

    @pytest.mark.parametrize("damage", ["deleted", "torn", "unterminated", "foreign-lines", "bad-cohort-file"])
    def test_damaged_journal_gives_the_same_outputs(self, resumable, capsys, monkeypatch, damage):
        path = resumable / "t" / "journal.jsonl"
        before = read_dir_bytes(resumable / "t")
        journal = path.read_bytes()
        if damage == "deleted":
            path.unlink()
        elif damage == "torn":
            data = path.read_bytes()
            path.write_bytes(data[: data.rstrip(b"\n").rfind(b"\n") + 100])
        elif damage == "unterminated":
            # a whole last line whose newline was never written
            path.write_bytes(journal.rstrip(b"\n"))
        elif damage == "bad-cohort-file":
            # lines under the run key whose cohort_file is a list, or
            # missing, in place of the first two debates' lines
            first, second, *rest = journal.splitlines(keepends=True)
            first, second = json.loads(first), json.loads(second)
            del second["cohort_file"]
            bad = [{**first, "cohort_file": [first["cohort_file"]]}, second]
            path.write_bytes(b"".join([*(json.dumps(entry).encode() + b"\n" for entry in bad), *rest]))
        else:
            # lines a run never writes, and one naming a file outside --out
            # with the hash of that file
            outside = resumable / "outside.json"
            shutil.copy(resumable / "t" / "transcript_rawlsian_biased_0000.json", outside)
            first = json.loads(path.read_bytes().splitlines()[0])
            foreign = json.dumps({**first, "transcript": "../outside.json"}).encode()
            path.write_bytes(b'[1]\n{"transcript": []}\n{"transcript": "x"}\n"y"\n' + path.read_bytes() + foreign + b"\n")
        summary, decoded = self.resume(resumable, capsys, monkeypatch)
        assert summary == "executed 0 debates, skipped 6 existing, 0 failures"
        assert decoded == {"deleted": 6, "torn": 1, "unterminated": 0, "foreign-lines": 0, "bad-cohort-file": 2}[damage]
        assert read_dir_bytes(resumable / "t") == before
        # the journal is rewritten with one line per debate
        assert path.read_bytes() == journal
        # the debates found done by their config_hash are journalled, so
        # the next resume decodes nothing
        assert self.resume(resumable, capsys, monkeypatch) == (summary, 0)

    def test_edited_cohort_reruns_only_its_debate(self, resumable, capsys, monkeypatch, tmp_path):
        cohort_file = resumable / "cohorts" / "cohort_0003.json"
        obj = json.loads(cohort_file.read_text())
        obj["seed"] += 1  # in the config_hash, but not read by a scripted debate
        write_json(cohort_file, obj)
        summary, decoded = self.resume(resumable, capsys, monkeypatch)
        assert summary == "executed 1 debates, skipped 5 existing, 0 failures"
        assert decoded == 1
        fresh = tmp_path / "fresh"
        assert main(["run", "--cohorts", str(resumable / "cohorts"), *SMALL_RUN_ARGS, "--out", str(fresh)]) == 0
        assert read_dir_bytes(resumable / "t") == read_dir_bytes(fresh)

    def test_reformatted_cohort_is_kept_by_its_config_hash(self, resumable, capsys, monkeypatch):
        cohort_file = resumable / "cohorts" / "cohort_0002.json"
        cohort_file.write_text(json.dumps(json.loads(cohort_file.read_text())))
        before = read_dir_bytes(resumable / "t")
        summary, decoded = self.resume(resumable, capsys, monkeypatch)
        assert (summary, decoded) == ("executed 0 debates, skipped 6 existing, 0 failures", 1)
        assert read_dir_bytes(resumable / "t") == before

    def test_changed_rounds_rerun_every_debate(self, resumable, capsys, monkeypatch, tmp_path):
        summary, decoded = self.resume(resumable, capsys, monkeypatch, "--rounds", "2")
        assert (summary, decoded) == ("executed 6 debates, skipped 0 existing, 0 failures", 6)
        fresh = tmp_path / "fresh"
        assert main(["run", "--cohorts", str(resumable / "cohorts"), *SMALL_RUN_ARGS, "--rounds", "2",
                     "--out", str(fresh)]) == 0
        assert read_dir_bytes(resumable / "t") == read_dir_bytes(fresh)
        # the lines of the earlier run key are compacted away
        assert journal_lines(resumable / "t") == journal_lines(fresh)
        assert len(journal_lines(fresh)) == 6

    def test_compacted_journal_resumes_without_decoding(self, resumable, capsys, monkeypatch):
        self.resume(resumable, capsys, monkeypatch, "--rounds", "2")
        journal = (resumable / "t" / "journal.jsonl").read_bytes()
        before = read_dir_bytes(resumable / "t")
        summary, decoded = self.resume(resumable, capsys, monkeypatch, "--rounds", "2")
        assert (summary, decoded) == ("executed 0 debates, skipped 6 existing, 0 failures", 0)
        assert read_dir_bytes(resumable / "t") == before
        assert (resumable / "t" / "journal.jsonl").read_bytes() == journal

    def test_jobs2_journals_one_whole_line_per_debate(self, small_run, tmp_path):
        out = tmp_path / "t"
        argv = ["run", "--cohorts", str(small_run / "cohorts"), *SMALL_RUN_ARGS, "--jobs", "2", "--out", str(out)]
        assert main(argv) == 0
        # the --jobs 1 journal: one line per debate, in cohort order
        assert (out / "journal.jsonl").read_bytes() == (small_run / "transcripts" / "journal.jsonl").read_bytes()

    def test_deleted_cohort_drops_its_journal_line(self, resumable, capsys, monkeypatch, tmp_path):
        (resumable / "cohorts" / "cohort_0002.json").unlink()
        summary, decoded = self.resume(resumable, capsys, monkeypatch)
        assert (summary, decoded) == ("executed 0 debates, skipped 5 existing, 0 failures", 0)
        fresh = tmp_path / "fresh"
        assert main(["run", "--cohorts", str(resumable / "cohorts"), *SMALL_RUN_ARGS, "--out", str(fresh)]) == 0
        assert (resumable / "t" / "journal.jsonl").read_bytes() == (fresh / "journal.jsonl").read_bytes()
        assert (resumable / "t" / "manifest.json").read_bytes() == (fresh / "manifest.json").read_bytes()

    def test_killed_run_resumes_with_the_missing_debates(self, small_run, tmp_path, capsys):
        # each debate sleeps first, so the run is killed between debates
        script = (
            "import sys, time\n"
            "from triage_arena import cli\n"
            "debate = cli.run_debate\n"
            "cli.run_debate = lambda *args, **kwargs: (time.sleep(0.25), debate(*args, **kwargs))[1]\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        out = tmp_path / "t"
        src = str(Path(triage_arena.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["run", "--cohorts", str(small_run / "cohorts"), *SMALL_RUN_ARGS, "--out", str(out)]
        proc = subprocess.Popen([sys.executable, "-c", script, *argv], env=env)
        try:
            deadline = time.monotonic() + 60
            while len(list(out.glob("transcript_*.json"))) < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
            proc.kill()
        finally:
            proc.wait(timeout=10)
        assert proc.returncode == -signal.SIGKILL
        kept = {f.name: f.stat().st_ino for f in out.glob("transcript_*.json")}
        assert 3 <= len(kept) < 6
        assert not (out / "manifest.json").exists()
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            f"executed {6 - len(kept)} debates, skipped {len(kept)} existing, 0 failures\n"
        )
        assert {name: (out / name).stat().st_ino for name in kept} == kept
        assert json.loads((out / "manifest.json").read_text())["combined_hash"] == SMALL_RUN_COMBINED_HASH
        assert read_dir_bytes(out) == read_dir_bytes(small_run / "transcripts")


class TestReplayAndEval:
    def test_replay_reproduces_reference_totals(self, tmp_path):
        out = tmp_path / "replay"
        assert (
            main(
                [
                    "run",
                    "--backend", "replay",
                    "--framework", "Utilitarian",
                    "--out", str(out),
                ]
            )
            == 0
        )
        transcript = json.loads(next(out.glob("transcript_*.json")).read_text())
        finals = transcript["final_allocations"]
        totals_a = [sum(row[j] for row in finals["A"]) for j in range(6)]
        totals_b = [sum(row[j] for row in finals["B"]) for j in range(6)]
        assert totals_a == [2, 1, 50, 35, 56, 2]
        assert totals_b == [2, 1, 53, 35, 56, 2]
        assert transcript["final_reports"]["A"]["feasible"] is False
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["combined_hash"] == REPLAY_COMBINED_HASH
        evals = tmp_path / "replay_eval"
        assert main(["eval", "--transcripts", str(out), "--out", str(evals)]) == 0
        eval_obj = json.loads(next(evals.glob("eval_*.json")).read_text())
        round_rows = {(r["agent"], r["round"]): r for r in eval_obj["rounds"]}
        assert round_rows[("A", 1)]["feasible"] is True
        assert round_rows[("A", 2)]["feasible"] is False
        assert round_rows[("A", 3)]["feasible"] is False

    def test_eval_idempotent(self, small_run, tmp_path):
        again = tmp_path / "evals2"
        assert main(["eval", "--transcripts", str(small_run / "transcripts"), "--out", str(again)]) == 0
        assert read_dir_bytes(small_run / "evals") == read_dir_bytes(again)

    def test_eval_lists_corrupt_files_and_continues(self, small_run, tmp_path, capsys):
        transcripts = tmp_path / "with_corrupt"
        transcripts.mkdir()
        source = list((small_run / "transcripts").glob("transcript_*.json"))[:2]
        for f in source:
            (transcripts / f.name).write_text(f.read_text())
        (transcripts / "transcript_bad_0099.json").write_text("{not json")
        cut = source[1].read_bytes()
        (transcripts / "transcript_cut_0096.json").write_bytes(cut[: len(cut) // 2])
        # transcripts recorded under another protocol are not relabelled
        for name, field, value in [
            ("transcript_reordered_0098.json", "speaking_order", ["opponent", "A"]),
            ("transcript_retries_0097.json", "max_parse_retries", 2),
        ]:
            obj = json.loads(source[0].read_text())
            obj["config"][field] = value
            (transcripts / name).write_text(json.dumps(obj))
        out = tmp_path / "evalc"
        assert main(["eval", "--transcripts", str(transcripts), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "evaluated 2 transcripts, 4 corrupt" in captured.out
        assert "corrupt: transcript_cut_0096.json: " in captured.err
        for name in ("transcript_reordered_0098.json", "transcript_retries_0097.json"):
            assert f"{name}: speaking order and parse retries" in captured.err
        assert len(list(out.glob("eval_*.json"))) == 2

    def test_re_eval_drops_the_record_of_a_transcript_now_corrupt(self, small_run, tmp_path, capsys):
        transcripts, evals = tmp_path / "t", tmp_path / "e"
        shutil.copytree(small_run / "transcripts", transcripts)
        shutil.copytree(small_run / "evals", evals)
        target = sorted(transcripts.glob("transcript_*.json"))[3]
        good = target.read_bytes()
        target.write_bytes(good[: len(good) // 2])
        assert main(["eval", "--transcripts", str(transcripts), "--out", str(evals)]) == 1
        assert "evaluated 5 transcripts, 1 corrupt" in capsys.readouterr().out
        assert not (evals / target.name.replace("transcript_", "eval_")).exists()
        assert len(list(evals.glob("eval_*.json"))) == 5
        assert main(["stats", "--eval-dir", str(evals), "--out", str(tmp_path / "s")]) == 0
        cells = json.loads((tmp_path / "s" / "comparison.json").read_text())["reports"]
        assert cells and all(cell["n"] == 5 for cell in cells)

    def test_re_eval_drops_the_record_of_a_deleted_transcript(self, small_run, tmp_path, capsys):
        transcripts, evals = tmp_path / "t", tmp_path / "e"
        shutil.copytree(small_run / "transcripts", transcripts)
        shutil.copytree(small_run / "evals", evals)
        # another pairing's evals share --out; none of its transcripts is here
        other = evals / "eval_utilitarian_baseline_0003.json"
        other.write_bytes((evals / "eval_rawlsian_biased_0003.json").read_bytes())
        sorted(transcripts.glob("transcript_*.json"))[3].unlink()
        assert main(["eval", "--transcripts", str(transcripts), "--out", str(evals)]) == 0
        assert "evaluated 5 transcripts, 0 corrupt, 1 stale removed" in capsys.readouterr().out
        assert not (evals / "eval_rawlsian_biased_0003.json").exists()
        assert other.exists()
        other.unlink()
        assert len(list(evals.glob("eval_*.json"))) == 5
        assert main(["stats", "--eval-dir", str(evals), "--out", str(tmp_path / "s")]) == 0
        cells = json.loads((tmp_path / "s" / "comparison.json").read_text())["reports"]
        assert cells and all(cell["n"] == 5 for cell in cells)

    def test_eval_without_transcripts_makes_no_out_dir(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "e"
        assert main(["eval", "--transcripts", str(empty), "--out", str(out)]) == 2
        assert "no transcript_*.json files" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_debate_record_has_no_joint(self, cohort, tmp_path):
        # A's second reply never parses, so the debate fails in round 2
        text = "\n".join(f"Patient {i}: [0, 0, 1, 0, 1, 0]" for i in range(1, cohort.n + 1))
        profile_a, _ = build_profile(ProfileKind.ALIGNED, Framework.RAWLSIAN)
        profile_b, _ = build_profile(ProfileKind.BASELINE)
        agent_a = AgentSpec("A", ReplayBackend([text, "junk", "junk"]), profile_a)
        agent_b = AgentSpec("B", ReplayBackend([text]), profile_b)
        transcript = run_debate(cohort, agent_a, agent_b, DebateConfig(rounds=2))
        assert not transcript.completed
        record = cli._eval_record(transcript, "transcript_failed_0000.json", "0" * 64)
        assert record["schema_version"] == 3
        assert [(r["agent"], r["round"]) for r in record["rounds"]] == [("A", 1), ("B", 1)]
        assert record["finals"] == {} and record["joint"] is None
        write_json(tmp_path / "eval_failed_0000.json", record)
        assert validate_schemas(tmp_path) == []


class TestStats:
    def test_stats_outputs_and_schema(self, small_run, tmp_path):
        out = tmp_path / "stats"
        assert main(["stats", "--eval-dir", str(small_run / "evals"), "--out", str(out)]) == 0
        csv_text = (out / "results.csv").read_text()
        header = csv_text.splitlines()[0]
        assert header == (
            "framework,metric,n,mean_a,mean_b,ci_a_lo,ci_a_hi,ci_b_lo,ci_b_hi,p,d,winner"
        )
        assert (out / "results.md").exists()
        assert (out / "comparison.json").exists()
        assert sorted(p.name for p in (out / "charts").glob("*.svg"))

    @pytest.mark.parametrize("flag", [["--jobs", "2"], ["--normality-pretest"]], ids=["jobs", "normality-pretest"])
    def test_removed_flags_are_usage_errors(self, small_run, tmp_path, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", "--eval-dir", str(small_run / "evals"), *flag, "--out", str(tmp_path / "s")])
        assert excinfo.value.code == 2
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "breakage, reason",
        [("drop-framework", "ValueError: (root): 'framework' is a required property"), ("not-json", "JSONDecodeError")],
        ids=["drop-framework-schema", "not-json-JSONDecodeError"],
    )
    def test_invalid_eval_file_is_config_error(self, small_run, tmp_path, capsys, breakage, reason):
        evals = tmp_path / "evals"
        evals.mkdir()
        for f in sorted((small_run / "evals").glob("eval_*.json")):
            (evals / f.name).write_bytes(f.read_bytes())
        victim = sorted(evals.glob("eval_*.json"))[1]
        if breakage == "drop-framework":
            obj = json.loads(victim.read_text())
            del obj["framework"]
            victim.write_text(json.dumps(obj))
        else:
            victim.write_text("{not json")
        code = main(["stats", "--eval-dir", str(evals), "--out", str(tmp_path / "s")])
        assert code == 2
        err = capsys.readouterr().err
        assert victim.name in err
        assert reason in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("key, value", [("framework", ["Rawlsian"]), ("opponent_kind", {"kind": "Biased"}), ("framework", None)])
    def test_eval_record_naming_its_cell_with_a_non_string_is_usage_error(self, small_run, tmp_path, capsys, key, value):
        # a list or dict would not hash as a cell's name, and None would not sort with the rest
        evals = tmp_path / "evals"
        shutil.copytree(small_run / "evals", evals)
        victim = sorted(evals.glob("eval_*.json"))[1]
        obj = json.loads(victim.read_text())
        obj[key] = value
        write_json(victim, obj)
        code = main(["stats", "--eval-dir", str(evals), "--out", str(tmp_path / "s")])
        assert code == 2
        err = capsys.readouterr().err
        # the eval schema's message, as validate prints it
        reason = f"{value!r} is not one of ['Baseline', 'Biased']" if key == "opponent_kind" else f"{value!r} is not of type 'string'"
        assert f"invalid eval file {victim}: ValueError: {key}: {reason}" in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("edit", ["v1", "v2", "not-an-eval"])
    def test_old_or_foreign_eval_record_is_refused_by_stats_and_validate(self, small_run, tmp_path, capsys, edit):
        # stats, report and validate read only eval records of schema_version 3
        evals = tmp_path / "evals"
        shutil.copytree(small_run / "evals", evals)
        victim = evals / "eval_rawlsian_biased_0001.json"
        obj = json.loads(victim.read_text())
        if edit == "v1":
            del obj["joint"]  # a schema_version 1 eval record had no joint block
            obj["schema_version"] = 1
        elif edit == "v2":
            obj["schema_version"] = 2
        else:
            obj["kind"] = "not-an-eval"
        write_json(victim, obj)
        assert main(["validate", str(evals)]) == 1
        assert victim.name in capsys.readouterr().out
        code = main(["stats", "--eval-dir", str(evals), "--out", str(tmp_path / "s")])
        assert code == 2
        err = capsys.readouterr().err
        assert victim.name in err
        assert "not an eval record of schema_version 3" in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("alpha", ["0", "1", "2", "-1", "nan"])
    def test_alpha_outside_unit_interval_is_usage_error(self, small_run, tmp_path, capsys, alpha):
        # such an alpha would write a comparison.json that validate rejects,
        # or, for NaN, one it passes
        out = tmp_path / "s"
        code = main(["stats", "--eval-dir", str(small_run / "evals"), f"--alpha={alpha}", "--out", str(out)])
        assert code == 2
        assert "--alpha must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_stats_matches_library_pairing_cell_by_cell(self, small_run, tmp_path):
        out = tmp_path / "stats"
        assert main(["stats", "--eval-dir", str(small_run / "evals"), "--out", str(out)]) == 0
        written = json.loads((out / "comparison.json").read_text())["reports"]
        transcripts = [
            transcript_from_json(json.loads(f.read_text()))
            for f in sorted((small_run / "transcripts").glob("transcript_*.json"))
        ]
        expected = [
            compare_cell(
                pair_reports(
                    [(t.cohort.cohort_id, t.final_reports) for t in transcripts if t.completed],
                    metric,
                ),
                framework="Rawlsian",
                metric=metric,
                bootstrap_seed=cell_seed(42, "Rawlsian", metric),
            ).to_json()
            for metric in METRIC_NAMES
        ]
        assert len(written) == len(METRIC_NAMES)
        for got, want in zip(written, expected):
            assert canonical_json(got) == canonical_json(want)

    def test_identical_columns_give_ties(self, small_run, tmp_path):
        evals = tmp_path / "mirrored"
        evals.mkdir()
        for f in (small_run / "evals").glob("eval_*.json"):
            obj = json.loads(f.read_text())
            labels = [l for l in obj["finals"] if l != "A"]
            for label in labels:
                obj["finals"][label] = obj["finals"]["A"]
            (evals / f.name).write_text(json.dumps(obj))
        out = tmp_path / "tied"
        assert main(["stats", "--eval-dir", str(evals), "--out", str(out)]) == 0
        rows = list(csv.DictReader(io.StringIO((out / "results.csv").read_text())))
        assert rows
        for row in rows:
            assert row["winner"] == "tie"
            assert float(row["p"]) == 1.0

    def test_two_opponents_of_one_framework_are_usage_error(self, small_run, tmp_path, capsys):
        # eval may share --out between pairings, but a cell is named by its
        # framework alone
        def evals_with(framework):
            evals, transcripts = tmp_path / f"e_{framework}", tmp_path / f"t_{framework}"
            shutil.copytree(small_run / "evals", evals)
            argv = ["run", "--cohorts", str(small_run / "cohorts"), "--framework", framework, "--out", str(transcripts)]
            assert main(argv) == 0
            assert main(["eval", "--transcripts", str(transcripts), "--out", str(evals)]) == 0
            capsys.readouterr()
            return evals

        evals, out = evals_with("Rawlsian"), tmp_path / "s"
        assert main(["stats", "--eval-dir", str(evals), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{evals} holds Rawlsian records against both Baseline and Biased opponents" in err
        assert not out.exists()
        # two frameworks, each against one opponent, make one cell per metric each
        evals = evals_with("Utilitarian")
        assert main(["stats", "--eval-dir", str(evals), "--out", str(out)]) == 0
        cells = json.loads((out / "comparison.json").read_text())["reports"]
        assert [cell["framework"] for cell in cells] == ["Rawlsian"] * 6 + ["Utilitarian"] * 6


class TestChatBackendIntegration:
    @pytest.fixture
    def allocation_server(self):
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        class Handler(BaseHTTPRequestHandler):
            prompts = []
            authorizations = []

            def do_POST(self):
                length = int(self.headers["Content-Length"])
                payload = json.loads(self.rfile.read(length))
                type(self).prompts.append(payload["messages"][-1]["content"])
                type(self).authorizations.append(self.headers["Authorization"])
                text = "\n".join(
                    f"Patient {i}: [0, 0, 1, 1, 2, 0]" for i in range(1, 9)
                ) + "\nJustification: spread everything thin."
                body = json.dumps(
                    {"id": "resp-1", "choices": [{"message": {"content": text}}]}
                ).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        Handler.prompts = []
        Handler.authorizations = []
        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions", Handler
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_chat_run_with_retrieval_corpus(self, small_run, tmp_path, allocation_server):
        from importlib import resources

        endpoint, handler = allocation_server
        corpus = resources.files("triage_arena").joinpath("data/sample_corpus")
        out = tmp_path / "chat_run"
        code = main(
            [
                "run",
                "--cohorts", str(small_run / "cohorts"),
                "--framework", "Egalitarian",
                "--backend", "chat",
                "--endpoint", endpoint,
                "--model", "mock-model",
                "--rounds", "2",
                "--corpus-dir", str(corpus),
                "--out", str(out),
            ]
        )
        assert code == 0
        transcripts = sorted(out.glob("transcript_*.json"))
        assert len(transcripts) == 6
        first = json.loads(transcripts[0].read_text())
        assert first["deterministic"] is False
        assert first["timestamps"] is not None
        # the aligned agent retrieved once per round
        logs = first["retrieval_logs"]
        assert len(logs) == 2
        assert all(log["k"] == 5 and len(log["pages"]) == 5 for log in logs)
        assert "Egalitarian" in logs[0]["query"]
        # retrieved excerpts reached the aligned agent's prompt
        assert any("Reference excerpts" in p for p in handler.prompts)
        # the manifest records the nondeterministic backend
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["deterministic"] is False
        assert manifest["timestamp"] is not None
        # finals parsed from the mock body: every patient got the same row
        assert first["final_allocations"]["A"][0] == [0, 0, 1, 1, 2, 0]

    def test_api_key_reaches_the_endpoint_but_no_output(
        self, small_run, tmp_path, allocation_server, monkeypatch, capsys, caplog
    ):
        endpoint, handler = allocation_server
        key = "sk-test-7f3a9c2e41d0"
        monkeypatch.setenv("TRIAGE_ARENA_CHAT_API_KEY", key)
        out = tmp_path / "keyed_run"
        argv = ["run", "--cohorts", str(small_run / "cohorts"), "--framework", "Egalitarian",
                "--backend", "chat", "--endpoint", endpoint, "--model", "mock-model",
                "--rounds", "1", "--out", str(out)]
        with caplog.at_level(logging.DEBUG):
            assert main(argv) == 0
        assert handler.authorizations
        assert set(handler.authorizations) == {f"Bearer {key}"}
        files = [path for path in out.rglob("*") if path.is_file()]
        assert any(path.name == "manifest.json" for path in files)
        for path in files:
            assert key.encode() not in path.read_bytes(), path.name
        captured = capsys.readouterr()
        assert key not in captured.out + captured.err + caplog.text


class TestChatTransport:
    def test_jobs3_shares_the_backends_and_matches_jobs1(self, tmp_path, mock_chat):
        cohorts = tmp_path / "cohorts"
        assert main(["gen-cohorts", "--seed", "5", "--batch", "6", "--out", str(cohorts)]) == 0
        proposals = {}
        for jobs in ("1", "3"):
            out = tmp_path / f"jobs{jobs}"
            argv = ["run", "--cohorts", str(cohorts), "--backend", "chat", "--endpoint", mock_chat,
                    "--model", "m", "--framework", "CareEthics", "--jobs", jobs, "--out", str(out)]
            assert main(argv) == 0
            proposals[jobs] = {
                f.name: json.loads(f.read_text())["proposals"] for f in sorted(out.glob("transcript_*.json"))
            }
        assert len(proposals["3"]) == 6
        assert proposals["3"] == proposals["1"]

    def test_nondeterministic_run_is_stamped_by_one_helper(self, tmp_path, mock_chat, monkeypatch):
        stamp = "2000-01-02T03:04:05+00:00"
        for module in (arena, cli):
            monkeypatch.setattr(module, "_utc_stamp", lambda: stamp)
        cohorts, out = tmp_path / "cohorts", tmp_path / "t"
        assert main(["gen-cohorts", "--seed", "5", "--batch", "2", "--out", str(cohorts)]) == 0
        argv = ["run", "--cohorts", str(cohorts), "--backend", "chat", "--endpoint", mock_chat,
                "--model", "m", "--framework", "CareEthics", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads((out / "manifest.json").read_text())["timestamp"] == stamp
        transcripts = sorted(out.glob("transcript_*.json"))
        assert len(transcripts) == 2
        for path in transcripts:
            assert json.loads(path.read_text())["timestamps"] == {"completed_at": stamp}

    def test_dead_embedding_endpoint_exits_io_without_traceback(self, tmp_path, monkeypatch, capsys):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        monkeypatch.setenv("TRIAGE_ARENA_EMBED_ENDPOINT", f"http://127.0.0.1:{port}/embed")
        monkeypatch.setenv("TRIAGE_ARENA_EMBED_MODEL", "m")
        monkeypatch.setattr(time, "sleep", lambda seconds: None)
        cohorts = tmp_path / "cohorts"
        assert main(["gen-cohorts", "--seed", "3", "--batch", "1", "--out", str(cohorts)]) == 0
        capsys.readouterr()
        corpus = str(resources.files("triage_arena").joinpath("data/sample_corpus"))
        code = main(["run", "--cohorts", str(cohorts), "--corpus-dir", corpus, "--out", str(tmp_path / "run")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("io/transport error: embedding ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


class TestRetrieverMemo:
    class CountingEmbedder(cli.HashingEmbedder):
        """The default embedder, failing on demand and counting its calls;
        keeps its instances."""

        made = []

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.fail = False
            self.calls = 0
            type(self).made.append(self)

        def embed(self, text):
            self.calls += 1
            if self.fail:
                raise RuntimeError("embedder down")
            return super().embed(text)

    @pytest.fixture
    def retriever(self, monkeypatch):
        monkeypatch.delenv("TRIAGE_ARENA_EMBED_ENDPOINT", raising=False)
        monkeypatch.delenv("TRIAGE_ARENA_EMBED_MODEL", raising=False)
        self.CountingEmbedder.made = []
        monkeypatch.setattr(cli, "HashingEmbedder", self.CountingEmbedder)
        corpus = str(resources.files("triage_arena").joinpath("data/sample_corpus"))
        hook = cli._make_retriever(argparse.Namespace(corpus_dir=corpus))
        (embedder,) = self.CountingEmbedder.made
        return hook, embedder, corpus

    def test_each_distinct_query_embedded_once(self, retriever):
        hook, embedder, corpus = retriever
        built = embedder.calls
        asked = [(f, t) for _ in range(2) for f in ("Egalitarian", "CareEthics") for t in (1, 2, 3)]
        results = [hook(f, t) for f, t in asked]
        assert embedder.calls - built == 6

        direct_embedder = cli.HashingEmbedder()
        index = cli.index_corpus(cli.load_corpus_dir(corpus), direct_embedder)
        for (f, _), got in zip(asked, results):
            assert got == cli.retrieve(index, got.query_text, direct_embedder)
            assert got.query_text.startswith(f)

    def test_failures_are_not_cached(self, retriever):
        hook, embedder, _ = retriever
        embedder.fail = True
        with pytest.raises(RuntimeError, match="embedder down"):
            hook("Rawlsian", 1)
        embedder.fail = False
        calls = embedder.calls
        assert hook("Rawlsian", 1).query_text.startswith("Rawlsian")
        assert embedder.calls == calls + 1


def test_cli_runs_without_requests(tmp_path, mock_chat):
    """`requests` is not used at all, and commands that open no transport
    do not load `http.client` either."""
    script = (
        "import sys; sys.modules['requests'] = None\n"
        "from triage_arena.cli import main\n"
        "out, endpoint, corpus = sys.argv[1:]\n"
        "codes = [main(['gen-cohorts', '--seed', '1', '--batch', '3', '--out', out]),\n"
        "         main(['validate', out])]\n"
        "print('http.client loaded', 'http.client' in sys.modules)\n"
        "codes.append(main(['run', '--cohorts', out, '--backend', 'chat', '--endpoint', endpoint,\n"
        "                   '--model', 'm', '--corpus-dir', corpus, '--out', out + '-run']))\n"
        "print('exit codes', codes)\n"
    )
    src = str(Path(triage_arena.__file__).resolve().parents[1])
    corpus = str(resources.files("triage_arena").joinpath("data/sample_corpus"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "cohorts"), mock_chat, corpus],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "http.client loaded False" in lines
    assert lines[-1] == "exit codes [0, 0, 0]"
    assert len(list((tmp_path / "cohorts-run").glob("transcript_*.json"))) == 3


def test_cli_pipeline_runs_without_scipy(tmp_path):
    """scipy is only a test oracle: gen-cohorts through stats never import it."""
    script = (
        "import sys; sys.modules['scipy'] = None\n"
        "from triage_arena.cli import main\n"
        "base = sys.argv[1]\n"
        "codes = [main(['gen-cohorts', '--seed', '1', '--batch', '3', '--out', base + '/c']),\n"
        "         main(['run', '--cohorts', base + '/c', '--out', base + '/t']),\n"
        "         main(['eval', '--transcripts', base + '/t', '--out', base + '/e']),\n"
        "         main(['stats', '--eval-dir', base + '/e', '--out', base + '/s'])]\n"
        "print('exit codes', codes)\n"
    )
    src = str(Path(triage_arena.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "exit codes [0, 0, 0, 0]"
    assert (tmp_path / "s" / "comparison.json").exists()


class TestVerifyCake:
    def test_default_params_report_and_exit_code(self, capsys):
        code = main(["verify-cake", "--step", "0.01"])
        out = capsys.readouterr().out
        # the corner claim honestly fails for every valid parameterization,
        # so the command reports it and exits nonzero
        assert "FAIL util_argmax_is_corner" in out
        assert "PASS rawls_argmax_requires_inclusion" in out
        assert "PASS argmax_intersection_empty" in out
        assert code == 1

    @pytest.mark.parametrize(
        "step, code, digest",
        [
            ("0.001", 1, "7703eb2c2700f72d0b7e7fe7cb2f0ca290455002e32498fa23dfe1f89a86556e"),
            ("0.01", 1, "48dea46fd5b3b4fabb3dcee58ec13638cd77af9d2e17004a8c4583cc5a76f62c"),
            # 3.0e8 offers per DP pass, under the bound
            ("0.0001", 1, "cb6a14cc13a6d0c1df68fa495288090aa940ffd3537f0c17e6ec287a0792a4fe"),
        ],
    )
    def test_stdout_is_byte_identical_to_reference(self, capsys, step, code, digest):
        # step 0.001 is the run the benchmark's oracle-grid workload makes
        assert main(["verify-cake", "--step", step]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_too_coarse_step_is_config_error(self):
        assert main(["verify-cake", "--step", "0.5"]) == 2

    @pytest.mark.parametrize("step", ["0", "-0.01"])
    def test_non_positive_step_is_config_error(self, capsys, step):
        # the cake grid validates the step for both cake commands
        assert main(["verify-cake", "--step", step]) == 2
        assert "step must be finite and positive" in capsys.readouterr().err

    def test_grid_over_the_offer_bound_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        assert main(["verify-cake", "--step", "0.00001"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err == (
            "error: step 1e-05 needs 30000900006 offers per pass of the cake DP, "
            "above the bound of 10000000000\n"
        )
        assert captured.out == ""

    def test_step_with_infinite_reciprocal_is_config_error(self, capsys):
        assert main(["verify-cake", "--step", "1e-320"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: step 1e-320 is too small: 1/step is not finite\n"
        assert captured.out == ""

    def test_lambda_zero_override_fails_and_exits_one(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"lambda": 0.0, "allow_degenerate": True}))
        code = main(["verify-cake", "--params-file", str(params), "--step", "0.01"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_invalid_params_are_config_errors(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"gamma": 0.9, "beta": 0.5}))
        assert main(["verify-cake", "--params-file", str(params)]) == 2

    @pytest.mark.parametrize("text", ['{"lam": NaN}', '{"alpha": Infinity}'])
    def test_non_finite_params_are_config_errors(self, tmp_path, capsys, text):
        # a NaN lam used to be accepted and reported as "grid max nan"
        params = tmp_path / "params.json"
        params.write_text(text)
        assert main(["verify-cake", "--params-file", str(params), "--step", "0.01"]) == 2
        assert "cake parameters must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, reason",
        [
            ({"lamda": 0.0}, "unknown cake parameters: lamda"),
            (["lambda", 0.0], "invalid params file"),
        ],
        ids=["misspelt-key", "not-an-object"],
    )
    def test_unknown_or_malformed_params_are_config_errors(self, tmp_path, capsys, content, reason):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(content))
        assert main(["verify-cake", "--params-file", str(params)]) == 2
        assert reason in capsys.readouterr().err


class TestCheckNondegeneracy:
    def test_cake_non_degenerate_on_coarse_grid(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"xbar4": 0.2, "xmin": 0.2}))
        out = tmp_path / "report.json"
        code = main(
            [
                "check-nondegeneracy",
                "--params-file", str(params),
                "--step", "0.1",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "non-degenerate" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["degenerate"] is False
        assert set(report["argmax_sizes"]) == {"util", "egal", "rawls", "prior"}

    def test_bound_exceeded_is_usage_error(self, tmp_path):
        code = main(["check-nondegeneracy", "--step", "0.01", "--bound", "1000"])
        assert code == 2

    def test_default_report_is_byte_identical_to_reference(self, tmp_path):
        # the step-0.05 report the benchmark pins for the oracle-grid workload
        out = tmp_path / "report.json"
        assert main(["check-nondegeneracy", "--step", "0.05", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "940f04a765b96710598cb60d01856eada6295cfb4c6aa0f5bd1602ba1f6ecf4c"
        )

    def test_many_block_report_is_byte_identical_to_reference(self, tmp_path):
        # step 0.04 scans its 736,281 grid points in 180 blocks
        out = tmp_path / "report.json"
        assert main(["check-nondegeneracy", "--step", "0.04", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "178ef38244915165bcb4c388bae41dbdcd0faabaea3b4fd9602cfa17d9ff1aea"
        )

    def test_repeated_functionals_are_usage_error(self, capsys):
        code = main(
            ["check-nondegeneracy", "--step", "0.1", "--functionals", "util,util"]
        )
        assert code == 2
        assert "repeated functional identifiers: util" in capsys.readouterr().err

    def test_unknown_param_keys_are_usage_error(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"xbar4": 0.2, "lamda": 0.0, "xmn": 0.1}))
        code = main(["check-nondegeneracy", "--params-file", str(params), "--step", "0.1"])
        assert code == 2
        assert f"invalid params file {params}: ValueError: unknown cake parameters: lamda, xmn" in (
            capsys.readouterr().err
        )

    def test_prior_weights_of_wrong_length_are_usage_error(self, capsys):
        code = main(["check-nondegeneracy", "--step", "0.1", "--prior-weights", "1,2"])
        assert code == 2
        assert "2 entries but there are 6 utilities" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "params_text, weights, reason",
        [
            ('{"lam": NaN}', "1,1,1,1,1,1", "cake parameters must be finite: lam=nan"),
            ("{}", "nan,1,1,1,1,1", "prior_weights must be finite"),
            ("{}", "inf,1,1,1,1,1", "prior_weights must be finite"),
        ],
        ids=["nan-lam", "nan-weight", "inf-weight"],
    )
    def test_non_finite_params_or_weights_are_usage_errors(self, tmp_path, capsys, params_text, weights, reason):
        # each used to empty an argmax set and certify "non-degenerate"
        params = tmp_path / "params.json"
        params.write_text(params_text)
        out = tmp_path / "report.json"
        code = main([
            "check-nondegeneracy", "--step", "0.1", "--params-file", str(params),
            "--prior-weights", weights, "--out", str(out),
        ])
        assert code == 2
        assert reason in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["epsilon", "delta"])
    def test_overflow_to_nan_is_usage_error(self, tmp_path, capsys, name):
        # a finite but huge parameter overflows egal to NaN, which emptied
        # its argmax set and certified the grid "non-degenerate"
        params = tmp_path / "params.json"
        params.write_text(json.dumps({name: 1e308}))
        out = tmp_path / "report.json"
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = main([
                "check-nondegeneracy", "--step", "0.1", "--params-file", str(params),
                "--out", str(out),
            ])
        assert code == 2
        assert "no grid maximum for egal: NaN" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("step", ["inf", "nan", "-inf", "0"])
    def test_non_finite_or_non_positive_step_is_usage_error(self, tmp_path, capsys, step):
        # an accepted --step inf would write "step": Infinity, which is not JSON
        out = tmp_path / "report.json"
        assert main(["check-nondegeneracy", f"--step={step}", "--out", str(out)]) == 2
        assert "step must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_step_with_infinite_reciprocal_is_usage_error(self, tmp_path, capsys):
        # 1 / step overflows to inf, which no grid unit count can hold
        out = tmp_path / "report.json"
        assert main(["check-nondegeneracy", "--step", "1e-320", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: step 1e-320 is too small: 1/step is not finite\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_negative_or_nan_tol_is_usage_error(self, tmp_path, capsys, tol):
        # a negative or NaN tol would empty every argmax set and certify the
        # grid non-degenerate; an infinite one would keep every grid point
        # and certify it degenerate
        out = tmp_path / "report.json"
        code = main(["check-nondegeneracy", "--step", "0.05", "--tol", tol, "--out", str(out)])
        assert code == 2
        assert "tol must be nonnegative" in capsys.readouterr().err
        assert not out.exists()


def transcript_scoring_report(manifest_path: Path) -> tuple[str, int]:
    """The report text and exit code of `report` as it was when it decoded
    and scored every listed transcript itself, in place of reading eval
    records: an in-file copy of that command."""
    base = manifest_path.parent
    manifest = RunManifest.from_json(json.loads(manifest_path.read_text(encoding="utf-8")))
    missing: list[str] = []
    unreadable: list[str] = []
    variants: dict[int, str] = {}
    counts: dict[tuple[str, str, int], int] = {}
    finals: dict[tuple[str, str], list[list[float]]] = {}
    joints: dict[str, list[tuple[list[float], bool]]] = {}
    for rel, problem in manifest.check(base):
        if problem is not None:
            missing.append(problem)
        if not (rel.startswith("transcript_") and (base / rel).exists()):
            continue
        data = (base / rel).read_bytes()
        try:
            transcript = transcript_from_json(json.loads(data.decode("utf-8")))
            record = cli._eval_record(transcript, rel, hashlib.sha256(data).hexdigest())
        except Exception as exc:
            unreadable.append(f"{rel}: unreadable ({exc})")
            continue
        framework = record["framework"]
        variants[record["cohort_id"]] = transcript.cohort.capacity.variant
        for row in record["rounds"]:
            if not row["feasible"]:
                key = (framework, row["agent"], row["round"])
                counts[key] = counts.get(key, 0) + 1
        if not record["completed"]:
            continue
        for label, report in record["finals"].items():
            finals.setdefault((framework, label), []).append([report[m] for m in METRIC_NAMES])
        joint = record["joint"]
        if joint is not None:
            joints.setdefault(framework, []).append(
                ([joint["deltas"][m] for m in METRIC_NAMES], joint["metrics"]["feasible"])
            )
    missing += unreadable

    lines = ["# Run report", "", "## Configuration", "```json"]
    lines.append(canonical_json(manifest.config).rstrip())
    lines += ["```", ""]
    if missing:
        lines.append("## Missing or invalid inputs")
        lines.extend(f"- {item}" for item in missing)
        lines.append("")
    if variants:
        lines.append("## Cohorts")
        lines.append(
            f"- {len(variants)} cohorts, capacity variant(s): "
            f"{', '.join(sorted(set(variants.values())))}"
        )
        lines.append("")
        lines.append("## Infeasibility counts per (framework, agent, round)")
        lines.append("| framework | agent | round | infeasible proposals |")
        lines.append("| --- | --- | --- | --- |")
        for (framework, agent, round_t), count in sorted(counts.items()):
            lines.append(f"| {framework} | {agent} | {round_t} | {count} |")
        if not counts:
            lines.append("| (none) | - | - | 0 |")
        lines.append("")
        lines.append("## Final metric summary")
        lines.append("| framework | agent | metric | mean over cohorts |")
        lines.append("| --- | --- | --- | --- |")
        for (framework, label), rows in sorted(finals.items()):
            for metric, vals in zip(METRIC_NAMES, zip(*rows)):
                lines.append(f"| {framework} | {label} | {metric} | {sum(vals) / len(vals):.4f} |")
        lines.append("")
        lines.append("## Emergence deltas (joint vs mean of finals)")
        lines.append(
            "Joint allocations follow the harness rule: the shared final when "
            "the agents converged, otherwise the elementwise mean rescaled to "
            "capacity. Positive deltas mean the joint improves on the average "
            "final under the metric's direction."
        )
        lines.append("")
        lines.append("| framework | metric | mean delta | joints infeasible |")
        lines.append("| --- | --- | --- | --- |")
        for framework, members in sorted(joints.items()):
            infeasible = sum(not feasible for _deltas, feasible in members)
            for metric, vals in zip(METRIC_NAMES, zip(*(d for d, _feasible in members))):
                lines.append(f"| {framework} | {metric} | {sum(vals) / len(vals):+.4f} | {infeasible} |")
        lines.append("")
    return "\n".join(lines) + "\n", 1 if missing else 0


def report(manifest: Path, out: Path, eval_dir: Path | None = None) -> int:
    """Exit code of `report` over a run manifest, with --eval-dir when given."""
    flags = [] if eval_dir is None else ["--eval-dir", str(eval_dir)]
    return main(["report", "--run-manifest", str(manifest), *flags, "--out", str(out)])


class TestReportAndValidate:
    def test_report_from_replay_shows_infeasible_rounds(self, tmp_path, capsys):
        # eval writes into the eval directory beside the run, where report
        # looks by default
        out = tmp_path / "run"
        main(["run", "--backend", "replay", "--framework", "Utilitarian", "--out", str(out)])
        assert main(["eval", "--transcripts", str(out), "--out", str(tmp_path / "eval")]) == 0
        report_path = tmp_path / "report.md"
        assert report(out / "manifest.json", report_path) == 0
        text = report_path.read_text()
        assert "| Utilitarian | A | 2 | 1 |" in text
        assert "| Utilitarian | A | 3 | 1 |" in text
        assert "Emergence deltas" in text
        assert (text, 0) == transcript_scoring_report(out / "manifest.json")

    def test_report_equals_the_transcript_scoring_report(self, small_run, tmp_path):
        manifest = small_run / "transcripts" / "manifest.json"
        report_path = tmp_path / "report.md"
        assert report(manifest, report_path, small_run / "evals") == 0
        assert (report_path.read_text(), 0) == transcript_scoring_report(manifest)

    def test_report_regeneration_deterministic(self, small_run, tmp_path):
        r1, r2 = tmp_path / "r1.md", tmp_path / "r2.md"
        manifest = small_run / "transcripts" / "manifest.json"
        assert report(manifest, r1, small_run / "evals") == 0
        assert report(manifest, r2, small_run / "evals") == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_complete_run_has_no_missing_markers(self, small_run, tmp_path):
        report_path = tmp_path / "full.md"
        report(small_run / "transcripts" / "manifest.json", report_path, small_run / "evals")
        assert "Missing or invalid" not in report_path.read_text()

    def test_tampered_transcript_is_reported_and_exits_one(self, small_run, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        for f in (small_run / "transcripts").glob("*.json"):
            (run / f.name).write_bytes(f.read_bytes())
        victim = sorted(run.glob("transcript_*.json"))[2]
        victim.write_text(victim.read_text() + "\n")
        report_path = tmp_path / "tampered.md"
        assert report(run / "manifest.json", report_path, small_run / "evals") == 1
        text = report_path.read_text()
        assert "## Missing or invalid inputs" in text
        assert f"- {victim.name}: content hash mismatch" in text

    @staticmethod
    def drop_a_final_row(data: bytes) -> bytes:
        obj = json.loads(data)
        obj["final_allocations"]["C"].pop()
        return json.dumps(obj).encode()

    @pytest.mark.parametrize(
        "damage",
        [lambda data: data[: len(data) // 2], drop_a_final_row],
        ids=["truncated", "finals-of-two-shapes"],
    )
    def test_unreadable_transcript_is_listed_and_the_rest_rendered(self, small_run, tmp_path, damage):
        run = tmp_path / "run"
        shutil.copytree(small_run / "transcripts", run)
        victim = sorted(run.glob("transcript_*.json"))[2]
        victim.write_bytes(damage(victim.read_bytes()))
        report_path = tmp_path / "cut.md"
        assert report(run / "manifest.json", report_path, small_run / "evals") == 1
        problems, _rest = self.split_problems(report_path.read_text())
        assert problems == [f"{victim.name}: content hash mismatch"]
        text = report_path.read_text()
        assert "- 5 cohorts, capacity variant(s): standard" in text
        assert "## Final metric summary" in text and "| Rawlsian | C | gini |" in text
        assert "| Rawlsian | gini |" in text  # an emergence delta row

    @staticmethod
    def table_rows(text: str, heading: str) -> list[list[str]]:
        """The body cells of the first table under a Markdown heading."""
        section = text.split(f"## {heading}", 1)[1].split("\n## ", 1)[0]
        rows = [line.strip("|").split("|") for line in section.splitlines() if line.startswith("| ")]
        return [[cell.strip() for cell in row] for row in rows[2:]]  # below header and rule

    @staticmethod
    def split_problems(text: str) -> tuple[list[str], str]:
        """The "Missing or invalid inputs" items, and the report without them."""
        head, rest = text.split("## Missing or invalid inputs\n", 1)
        section, tail = rest.split("\n\n", 1)
        return [line.removeprefix("- ") for line in section.splitlines()], head + tail

    @staticmethod
    def report_without(run: Path, names, out: Path, eval_dir: Path) -> str:
        """The report over the run's manifest with the named files taken off it."""
        manifest = RunManifest.from_json(json.loads((run / "manifest.json").read_text()))
        kept = tuple((rel, sha) for rel, sha in manifest.files if rel not in names)
        write_json(run / "kept.json", dataclasses.replace(manifest, files=kept).to_json())
        assert report(run / "kept.json", out, eval_dir) == 0
        return out.read_text()

    def test_damaged_run_report_reads_each_file_once(self, small_run, tmp_path, monkeypatch):
        run = tmp_path / "run"
        shutil.copytree(small_run / "transcripts", run)
        manifest = RunManifest.from_json(json.loads((run / "manifest.json").read_text()))
        listed = [rel for rel, _ in manifest.files]
        names = sorted(rel for rel in listed if rel.startswith("transcript_"))
        deleted, truncated, edited = run / names[1], run / names[2], run / names[4]
        deleted.unlink()
        edited.write_text(edited.read_text() + " ")
        truncated.write_bytes(truncated.read_bytes()[:-40])
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if not isinstance(file, int):  # the atomic write opens a descriptor
                opened.append(Path(file).name)
            return real_open(file, *args, **kwargs)

        report_path = tmp_path / "report.md"
        with monkeypatch.context() as patch:
            patch.setattr(io, "open", counting_open)
            code = report(run / "manifest.json", report_path, small_run / "evals")
        assert code == 1
        assert all(opened.count(rel) == 1 for rel in listed)
        # only the records of the intact transcripts are read, each once
        damaged = (deleted.name, truncated.name, edited.name)
        records = [f.name for f in (small_run / "evals").glob("eval_*.json")]
        assert sorted(name for name in opened if name in records) == sorted(
            cli._eval_name(rel) for rel in names if rel not in damaged
        )
        problems, rest = self.split_problems(report_path.read_text())
        assert problems == [
            f"{deleted.name}: missing",
            f"{truncated.name}: content hash mismatch",
            f"{edited.name}: content hash mismatch",
        ]
        # the rest of the report is that of the same run with the three
        # damaged transcripts taken off its manifest
        assert rest == self.report_without(run, damaged, tmp_path / "kept.md", small_run / "evals")

    @pytest.mark.parametrize("damage", ["deleted", "stale", "v2"])
    def test_intact_transcript_without_its_eval_record_is_listed(self, small_run, tmp_path, damage):
        evals = tmp_path / "evals"
        shutil.copytree(small_run / "evals", evals)
        victim = sorted((small_run / "transcripts").glob("transcript_*.json"))[3].name
        record = evals / cli._eval_name(victim)
        obj = json.loads(record.read_text())
        if damage == "deleted":
            record.unlink()
        elif damage == "stale":
            write_json(record, {**obj, "source_sha256": hashlib.sha256(b"other bytes").hexdigest()})
        else:
            del obj["source_sha256"], obj["capacity_variant"]
            write_json(record, {**obj, "schema_version": 2})
        manifest = small_run / "transcripts" / "manifest.json"
        report_path = tmp_path / "report.md"
        assert report(manifest, report_path, evals) == 1
        problems, rest = self.split_problems(report_path.read_text())
        if damage == "v2":  # refused by the reader, which names the record and its reason
            reason = f"invalid eval file {record}: ValueError: not an eval record of schema_version 3"
        else:
            reason = f"no eval record of these bytes in {evals}"
        assert problems == [f"{victim}: {reason}"]
        run = tmp_path / "run"
        shutil.copytree(small_run / "transcripts", run)
        assert rest == self.report_without(run, (victim,), tmp_path / "kept.md", evals)

    def test_eval_record_that_is_not_json_is_listed(self, small_run, tmp_path):
        evals = tmp_path / "evals"
        shutil.copytree(small_run / "evals", evals)
        victim = sorted(evals.glob("eval_*.json"))[3]
        victim.write_text("{not json")
        out = tmp_path / "r.md"
        assert report(small_run / "transcripts" / "manifest.json", out, evals) == 1
        problems, _rest = self.split_problems(out.read_text())
        transcript = victim.name.replace("eval_", "transcript_")
        assert problems == [
            f"{transcript}: invalid eval file {victim}: JSONDecodeError: Expecting property name "
            "enclosed in double quotes: line 1 column 2 (char 1)"
        ]

    def test_missing_eval_dir_is_usage_error(self, small_run, tmp_path, capsys):
        manifest = small_run / "transcripts" / "manifest.json"
        out = tmp_path / "r.md"
        # the default is the eval directory beside the run, which small_run lacks
        assert report(manifest, out) == 2
        assert f"eval directory {small_run / 'eval'}: no such directory" in capsys.readouterr().err
        assert report(manifest, out, tmp_path / "nowhere") == 2
        assert report(manifest, out, manifest) == 2
        assert f"eval directory {manifest}: not a directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("point", ["open", "write", "replace"])
    def test_failed_report_write_keeps_the_previous_report(self, small_run, tmp_path, point):
        manifest = small_run / "transcripts" / "manifest.json"
        report_path = tmp_path / "report.md"
        assert report(manifest, report_path, small_run / "evals") == 0
        previous = report_path.read_bytes()
        with failing_atomic_write(point):
            # with no records in tmp_path, the new report would differ
            assert report(manifest, report_path, tmp_path) == 3
        assert report_path.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == ["report.md"]

    def test_listed_file_that_cannot_be_read_is_io_error(self, small_run, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(small_run / "transcripts", run)
        victim = sorted(run.glob("transcript_*.json"))[2]
        victim.unlink()
        victim.mkdir()
        out = tmp_path / "r.md"
        assert report(run / "manifest.json", out, small_run / "evals") == 3
        assert not out.exists()

    def test_report_numbers_are_the_eval_records_means(self, small_run, tmp_path):
        report_path = tmp_path / "report.md"
        manifest = small_run / "transcripts" / "manifest.json"
        assert report(manifest, report_path, small_run / "evals") == 0
        text = report_path.read_text()
        records = [json.loads(f.read_text()) for f in sorted((small_run / "evals").glob("eval_*.json"))]
        assert records and all(r["completed"] and r["joint"] is not None for r in records)

        def mean(vals):
            return sum(vals) / len(vals)

        summary = self.table_rows(text, "Final metric summary")
        assert len(summary) == 2 * len(METRIC_NAMES)
        for framework, label, metric, cell in summary:
            vals = [r["finals"][label][metric] for r in records if r["framework"] == framework]
            assert cell == f"{mean(vals):.4f}"
        emergence = self.table_rows(text, "Emergence deltas")
        assert [row[1] for row in emergence] == list(METRIC_NAMES)
        for framework, metric, cell, infeasible in emergence:
            joints = [r["joint"] for r in records if r["framework"] == framework]
            assert cell == f"{mean([j['deltas'][metric] for j in joints]):+.4f}"
            assert infeasible == str(sum(not j["metrics"]["feasible"] for j in joints))

    def test_validate_fresh_dirs(self, small_run):
        assert main(["validate", str(small_run / "cohorts")]) == 0
        assert main(["validate", str(small_run / "transcripts")]) == 0
        assert main(["validate", str(small_run / "evals")]) == 0

    def test_missing_manifest_is_io_error(self, tmp_path):
        code = main(
            [
                "report",
                "--run-manifest", str(tmp_path / "nowhere" / "manifest.json"),
                "--out", str(tmp_path / "r.md"),
            ]
        )
        assert code == 3

    def test_file_that_is_not_a_manifest_is_usage_error(self, small_run, tmp_path, capsys):
        not_manifest = sorted((small_run / "transcripts").glob("transcript_*.json"))[0]
        out = tmp_path / "r.md"
        code = main(["report", "--run-manifest", str(not_manifest), "--out", str(out)])
        assert code == 2
        assert f"invalid manifest file {not_manifest}: KeyError: 'run_id'" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_flags_corruption(self, small_run, tmp_path, capsys):
        bad_dir = tmp_path / "bad"
        bad_dir.mkdir()
        source = next((small_run / "cohorts").glob("cohort_*.json"))
        obj = json.loads(source.read_text())
        obj["patients"][0]["survival_prob"] = 2.5
        (bad_dir / source.name).write_text(json.dumps(obj))
        assert main(["validate", str(bad_dir)]) == 1
        assert "survival_prob" in capsys.readouterr().out


@pytest.fixture(scope="module")
def rawlsian_run(tmp_path_factory):
    """gen -> run -> eval over 4 seed-42 cohorts, scripted Rawlsian
    against the baseline, into run/ and eval/."""
    base = tmp_path_factory.mktemp("rawlsian")
    assert main(["gen-cohorts", "--seed", "42", "--batch", "4", "--out", str(base / "cohorts")]) == 0
    assert main(["run", "--cohorts", str(base / "cohorts"), "--framework", "Rawlsian", "--out", str(base / "run")]) == 0
    assert main(["eval", "--transcripts", str(base / "run"), "--out", str(base / "eval")]) == 0
    return base


# Edits of one eval record that stats, report and validate answered
# differently before they shared one reader (a crash, a misreading, or an
# acceptance the others refused); None writes a file that is not JSON.
EVAL_RECORD_FAULTS = {
    "string-metric": lambda obj: obj["finals"]["A"].update(esg="x"),
    "string-feasible": lambda obj: obj["finals"]["A"].update(feasible="no"),
    "string-completed": lambda obj: obj.update(completed="no"),
    "no-completed": lambda obj: obj.pop("completed"),
    "string-delta": lambda obj: obj["joint"]["deltas"].update(esg="x"),
    "finals-without-B": lambda obj: obj["finals"].pop("B"),
    "no-finals": lambda obj: obj.update(finals={}),
    "list-framework": lambda obj: obj.update(framework=["Rawlsian"]),
    "not-json": None,
}

# One value of each JSON type, and of some types a few, to put where a
# value of another type was.
_JSON_TYPE_VALUES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "number": st.integers(min_value=-2, max_value=5) | st.floats(allow_nan=False, allow_infinity=False),
    "string": st.sampled_from(["", "x", "A", "B", "Biased", "eval"]),
    "array": st.lists(st.integers(min_value=0, max_value=3), max_size=2),
    "object": st.dictionaries(st.sampled_from(["A", "B", "esg"]), st.integers(min_value=0, max_value=3), max_size=2),
}


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


def _paths(obj, path=()):
    """The path of every value in obj, obj's own () included."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


class TestOneEvalReader:
    """stats, report and validate accept and refuse the same eval records."""

    @staticmethod
    def damaged_copy(run: Path, out: Path, name: str, edit) -> Path:
        """A copy of run's eval directory at out with the record name
        edited in place, or made not JSON when edit is None; that record."""
        shutil.copytree(run / "eval", out)
        victim = out / name
        if edit is None:
            victim.write_text("{not json")
        else:
            obj = json.loads(victim.read_text())
            edit(obj)
            victim.write_text(json.dumps(obj))
        return victim

    @pytest.mark.parametrize("fault", list(EVAL_RECORD_FAULTS))
    def test_every_command_refuses_the_record_and_names_it(self, rawlsian_run, tmp_path, capsys, fault):
        name = "eval_rawlsian_baseline_0001.json"
        evals = tmp_path / "eval"
        victim = self.damaged_copy(rawlsian_run, evals, name, EVAL_RECORD_FAULTS[fault])
        stats_out = tmp_path / "s"
        assert main(["stats", "--eval-dir", str(evals), "--out", str(stats_out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: invalid eval file {victim}: ")
        assert not stats_out.exists()
        report_path = tmp_path / "r.md"
        assert report(rawlsian_run / "run" / "manifest.json", report_path, evals) == 1
        problems, _rest = TestReportAndValidate.split_problems(report_path.read_text())
        # the one reader's reason, word for word
        assert problems == [f"{name.replace('eval_', 'transcript_')}: {line.removeprefix('error: ')}"]
        capsys.readouterr()
        assert main(["validate", str(evals)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith(f"{victim}: ") for line in lines)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_validate_and_stats_refuse_exactly_what_the_reader_refuses(self, rawlsian_run, tmp_path_factory, capsys, data):
        names = sorted(p.name for p in (rawlsian_run / "eval").glob("eval_*.json"))
        name = data.draw(st.sampled_from(names))
        how = data.draw(st.sampled_from(["delete", "retype", "drop-final"]))
        obj = json.loads((rawlsian_run / "eval" / name).read_text())
        if how == "drop-final":
            label = data.draw(st.sampled_from(sorted(obj["finals"])))
            edit = lambda o: o["finals"].pop(label)  # noqa: E731
        else:
            deletable = [p for p in _paths(obj) if p and isinstance(p[-1], str)]
            path = data.draw(st.sampled_from(deletable if how == "delete" else list(_paths(obj))[1:]))
            current = obj
            for key in path:
                current = current[key]
            kind = data.draw(st.sampled_from(sorted(set(_JSON_TYPE_VALUES) - {_json_type(current)})))
            value = data.draw(_JSON_TYPE_VALUES[kind])

            def edit(o):
                parent = o
                for key in path[:-1]:
                    parent = parent[key]
                if how == "delete":
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value

        base = tmp_path_factory.mktemp("property")
        victim = self.damaged_copy(rawlsian_run, base / "eval", name, edit)
        try:
            read_eval_record(json.loads(victim.read_text()))
            refused = False
        except ValueError:
            refused = True
        violations = validate_schemas(base / "eval")
        assert bool(violations) == refused
        assert all(v.path == str(victim) for v in violations)
        assert main(["stats", "--eval-dir", str(base / "eval"), "--out", str(base / "s")]) == (2 if refused else 0)
        assert (base / "s").exists() != refused
        capsys.readouterr()


def test_every_writer_stamps_the_schema_versions_table(tmp_path, monkeypatch):
    assert triage_arena.persistence.SCHEMA_VERSIONS is SCHEMA_VERSIONS
    patched = {kind: 100 + i for i, kind in enumerate(sorted(SCHEMA_VERSIONS))}
    for kind, version in patched.items():
        monkeypatch.setitem(SCHEMA_VERSIONS, kind, version)
    # the packaged schemas' schema_version const would refuse the patched
    # versions; test_packaged_schema_versions_match_the_table guards it
    monkeypatch.setattr(triage_arena.persistence, "_schema_errors", lambda kind: lambda obj: [])
    cohorts, transcripts, evals, stats = (tmp_path / name for name in "ctes")
    assert main(["gen-cohorts", "--seed", "1", "--batch", "2", "--out", str(cohorts)]) == 0
    assert main(["run", "--cohorts", str(cohorts), "--out", str(transcripts)]) == 0
    assert main(["eval", "--transcripts", str(transcripts), "--out", str(evals)]) == 0
    assert main(["stats", "--eval-dir", str(evals), "--out", str(stats)]) == 0
    stamped = set()
    for path in tmp_path.rglob("*.json"):
        obj = json.loads(path.read_text())
        stamped.add((obj["kind"], obj["schema_version"]))
    assert stamped == set(patched.items())


class TestPinnedOutputs:
    def test_every_written_file_is_stdlib_indented_json(self, small_run):
        files = sorted(small_run.rglob("*.json"))
        assert len(files) >= 19  # 6 cohorts, 6 transcripts, 6 evals and manifests
        for file in files:
            data = file.read_bytes()
            stdlib = json.dumps(json.loads(data), sort_keys=True, indent=2, ensure_ascii=False)
            assert data == (stdlib + "\n").encode("utf-8"), file.name

    def test_small_scripted_run_outputs_are_pinned(self, small_run, tmp_path):
        manifest = small_run / "transcripts" / "manifest.json"
        assert json.loads(manifest.read_text())["combined_hash"] == SMALL_RUN_COMBINED_HASH
        stats = tmp_path / "stats"
        assert main(["stats", "--eval-dir", str(small_run / "evals"), "--out", str(stats)]) == 0
        comparison = (stats / "comparison.json").read_bytes()
        assert hashlib.sha256(comparison).hexdigest() == SMALL_RUN_COMPARISON_SHA256
        report_path = tmp_path / "report.md"
        assert report(manifest, report_path, small_run / "evals") == 0
        assert hashlib.sha256(report_path.read_bytes()).hexdigest() == SMALL_RUN_REPORT_SHA256

    def test_small_run_eval_files_are_pinned(self, small_run):
        written = {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted((small_run / "evals").glob("eval_*.json"))
        }
        assert written == SMALL_RUN_EVAL_SHA256
