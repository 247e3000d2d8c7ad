from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import socket
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

import triage_arena
from triage_arena import cli
from triage_arena.arena import transcript_from_json
from triage_arena.cli import main
from triage_arena.metrics import METRIC_NAMES
from triage_arena.model import canonical_json
from triage_arena.stats import cell_seed, compare_cell, pair_reports

# Outputs of the small_run pipeline (seed 7, batch 6, scripted Rawlsian vs
# biased) and of `stats` and `report` over it with default options.
SMALL_RUN_COMBINED_HASH = "aadf4237f788801aacb12762afef7e233585e8f526a1e5b1504b9082a57055a7"
SMALL_RUN_COMPARISON_SHA256 = "d5540f7da98e5c7699fab6f8a47db95dd191392d40c89fd2e384ce37080562cb"
SMALL_RUN_REPORT_SHA256 = "37af91ac28b7a4f2cf7ee0b844dda928349d420fc86b21f0318246be5a7c98f5"
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
        from triage_arena.persistence import build_manifest

        rebuilt = build_manifest("x", out, [target, out / "cohort_0001.json"], {})
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
        "content", [b"\xff\xfe{}", b"[1]"], ids=["not-utf8", "not-an-object"]
    )
    def test_rerun_redoes_bad_existing_transcript(self, small_run, tmp_path, capsys, content):
        out = tmp_path / "t"
        shutil.copytree(small_run / "transcripts", out)
        target = sorted(out.glob("transcript_*.json"))[2]
        good = target.read_bytes()
        target.write_bytes(content)
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
        assert "3 corrupt" in captured.out
        for name in ("transcript_reordered_0098.json", "transcript_retries_0097.json"):
            assert f"{name}: speaking order and parse retries" in captured.err
        assert len(list(out.glob("eval_*.json"))) == 2


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

    @pytest.mark.parametrize("breakage, reason", [("drop-framework", "KeyError"), ("not-json", "JSONDecodeError")])
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


class TestChatBackendIntegration:
    @pytest.fixture
    def allocation_server(self):
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        class Handler(BaseHTTPRequestHandler):
            prompts = []

            def do_POST(self):
                length = int(self.headers["Content-Length"])
                payload = json.loads(self.rfile.read(length))
                type(self).prompts.append(payload["messages"][-1]["content"])
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
        """The default embedder, failing on demand; keeps its instances."""

        made = []

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.fail = False
            type(self).made.append(self)

        def embed(self, text):
            if self.fail:
                self.calls += 1
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
            assert got == cli.retrieve(index, got.query_text, direct_embedder, k=5)
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
        assert main(["verify-cake", "--step", step]) == 2
        assert "step must be positive" in capsys.readouterr().err

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

    @pytest.mark.parametrize("step", ["inf", "nan", "-inf", "0"])
    def test_non_finite_or_non_positive_step_is_usage_error(self, tmp_path, capsys, step):
        # an accepted --step inf would write "step": Infinity, which is not JSON
        out = tmp_path / "report.json"
        assert main(["check-nondegeneracy", f"--step={step}", "--out", str(out)]) == 2
        assert "step must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_negative_or_nan_tol_is_usage_error(self, tmp_path, capsys, tol):
        # such a tol would empty every argmax set and certify the grid
        # non-degenerate
        out = tmp_path / "report.json"
        code = main(["check-nondegeneracy", "--step", "0.05", "--tol", tol, "--out", str(out)])
        assert code == 2
        assert "tol must be nonnegative" in capsys.readouterr().err
        assert not out.exists()


class TestReportAndValidate:
    def test_report_from_replay_shows_infeasible_rounds(self, tmp_path, capsys):
        out = tmp_path / "replay"
        main(["run", "--backend", "replay", "--framework", "Utilitarian", "--out", str(out)])
        report_path = tmp_path / "report.md"
        assert main(["report", "--run-manifest", str(out / "manifest.json"), "--out", str(report_path)]) == 0
        text = report_path.read_text()
        assert "| Utilitarian | A | 2 | 1 |" in text
        assert "| Utilitarian | A | 3 | 1 |" in text
        assert "Emergence deltas" in text

    def test_report_regeneration_deterministic(self, small_run, tmp_path):
        r1, r2 = tmp_path / "r1.md", tmp_path / "r2.md"
        manifest = small_run / "transcripts" / "manifest.json"
        assert main(["report", "--run-manifest", str(manifest), "--out", str(r1)]) == 0
        assert main(["report", "--run-manifest", str(manifest), "--out", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_complete_run_has_no_missing_markers(self, small_run, tmp_path):
        report_path = tmp_path / "full.md"
        manifest = small_run / "transcripts" / "manifest.json"
        main(["report", "--run-manifest", str(manifest), "--out", str(report_path)])
        assert "Missing or invalid" not in report_path.read_text()

    def test_tampered_transcript_is_reported_and_exits_one(self, small_run, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        for f in (small_run / "transcripts").glob("*.json"):
            (run / f.name).write_bytes(f.read_bytes())
        victim = sorted(run.glob("transcript_*.json"))[2]
        victim.write_text(victim.read_text() + "\n")
        report_path = tmp_path / "tampered.md"
        assert main(["report", "--run-manifest", str(run / "manifest.json"), "--out", str(report_path)]) == 1
        text = report_path.read_text()
        assert "## Missing or invalid inputs" in text
        assert f"- {victim.name}: content hash mismatch" in text

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
        report = tmp_path / "report.md"
        assert main(["report", "--run-manifest", str(manifest), "--out", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == SMALL_RUN_REPORT_SHA256
