"""The three benchmark workloads: their inputs, stages and correctness checks.

Every workload is one closed-loop client: the stages run one after
another, each as a fresh `triage-arena` CLI process (see stage.py), with
`--jobs 1` unless a stage says otherwise. A stage is
(name, cli arguments, expected exit code). Checks read the outputs back
with the standard library only, so they do not trust the code under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text(encoding="utf-8"))

SCRIPTED_BATCH = 500
CHAT_BATCH = 100
ROUNDS = 3
CORPUS_DOCS = 8
CORPUS_TOKENS_PER_DOC = 56_000  # 125 chunks of 512 tokens at stride 448 per doc


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Outcome:
    """Problems found by the checks of one iteration, plus what they saw.

    attempted counts debates plus CLI invocations; failed counts missing
    transcripts, failed debates, unexpected exit codes and failed checks.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.info: dict[str, object] = {}

    def require(self, ok: bool, problem: str) -> bool:
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok


def check_exit_codes(stages, results, outcome: Outcome) -> None:
    for name, _args, expected in stages:
        result = results[name]
        outcome.attempted += 1
        outcome.require(
            result["rc"] == expected,
            f"{name}: exit code {result['rc']}, expected {expected}"
            + (f"\n{result['error']}" if result.get("error") else ""),
        )


def check_run_dir(run_dir: Path, expected: int, outcome: Outcome, label: str) -> str | None:
    """Count the debates of a `run` output directory from its transcripts
    and manifest (run exits 0 even when a debate fails), verify every
    listed hash and return the manifest's combined hash."""
    outcome.attempted += expected
    transcripts = sorted(run_dir.glob("transcript_*.json"))
    outcome.failed += max(expected - len(transcripts), 0)
    if len(transcripts) != expected:
        outcome.problems.append(f"{label}: {len(transcripts)} of {expected} transcripts present")
    for path in transcripts:
        try:
            failed = json.loads(path.read_text(encoding="utf-8")).get("failed")
        except (OSError, ValueError) as exc:
            failed = f"unreadable: {exc}"
        outcome.require(failed is None, f"{label}: {path.name} failed: {failed}")
    manifest_path = run_dir / "manifest.json"
    if not outcome.require(manifest_path.exists(), f"{label}: no manifest.json"):
        return None
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    listed = {entry["path"]: entry["sha256"] for entry in manifest["files"]}
    outcome.require(
        sorted(listed) == [p.name for p in transcripts],
        f"{label}: manifest lists {len(listed)} files for {len(transcripts)} transcripts",
    )
    actual = {rel: sha256_file(run_dir / rel) for rel in listed if (run_dir / rel).exists()}
    outcome.require(actual == listed, f"{label}: manifest hashes do not match the files")
    combined = hashlib.sha256("".join(listed[rel] for rel in sorted(listed)).encode("ascii")).hexdigest()
    outcome.require(
        combined == manifest["combined_hash"], f"{label}: combined_hash does not match its entries"
    )
    return manifest["combined_hash"]


def check_reference(seed: int, workload: str, key: str, value, outcome: Outcome) -> None:
    """Compare with reference.json, which holds values for one seed and
    values that hold at every seed."""
    for scope in (str(seed), "all_seeds"):
        expected = REFERENCE.get(scope, {}).get(workload, {}).get(key)
        if expected is not None:
            outcome.require(value == expected, f"{key} {value} differs from the reference {expected}")


# -- scripted-500 -----------------------------------------------------------

def scripted_stages(ws: Path, seed: int, server_url=None):
    run = [
        "run", "--cohorts", str(ws / "cohorts"), "--framework", "Rawlsian",
        "--opponent", "biased", "--backend", "scripted", "--allow-adversarial",
    ]
    return [
        ("gen", ["gen-cohorts", "--seed", str(seed), "--batch", str(SCRIPTED_BATCH),
                 "--variant", "standard", "--out", str(ws / "cohorts")], 0),
        ("run", run + ["--jobs", "1", "--out", str(ws / "run")], 0),
        ("resume", run + ["--jobs", "1", "--out", str(ws / "run")], 0),
        ("eval", ["eval", "--transcripts", str(ws / "run"), "--out", str(ws / "eval")], 0),
        ("stats", ["stats", "--eval-dir", str(ws / "eval"), "--out", str(ws / "stats")], 0),
        ("report", ["report", "--run-manifest", str(ws / "run" / "manifest.json"),
                    "--out", str(ws / "report.md")], 0),
        ("validate", ["validate", str(ws / "run")], 0),
        ("run_jobs2", run + ["--jobs", "2", "--out", str(ws / "run_jobs2")], 0),
    ]


def scripted_check(ws: Path, seed: int, stages, results, server_counts=None) -> Outcome:
    outcome = Outcome()
    check_exit_codes(stages, results, outcome)
    jobs1 = check_run_dir(ws / "run", SCRIPTED_BATCH, outcome, "run --jobs 1")
    jobs2 = check_run_dir(ws / "run_jobs2", SCRIPTED_BATCH, outcome, "run --jobs 2")
    outcome.require(jobs1 == jobs2, f"combined_hash differs: --jobs 1 {jobs1}, --jobs 2 {jobs2}")
    check_reference(seed, "scripted-500", "combined_hash", jobs1, outcome)
    resume_out = results["resume"]["stdout"]
    outcome.require(
        resume_out.startswith("executed 0 debates,"), f"resume run executed debates: {resume_out!r}"
    )
    outcome.require(
        len(list((ws / "eval").glob("eval_*.json"))) == SCRIPTED_BATCH, "eval wrote the wrong number of files"
    )
    report = ws / "report.md"
    outcome.require(
        report.exists() and "## Final metric summary" in report.read_text(encoding="utf-8"),
        "report has no final metric summary",
    )
    comparison = ws / "stats" / "comparison.json"
    if outcome.require(comparison.exists(), "stats wrote no comparison.json"):
        outcome.info["comparison_sha256"] = sha256_file(comparison)
        check_reference(seed, "scripted-500", "comparison_sha256", outcome.info["comparison_sha256"], outcome)
    outcome.info["combined_hash"] = jobs1
    return outcome


# -- oracle-grid ------------------------------------------------------------

def oracle_stages(ws: Path, seed: int, server_url=None):
    # The grid and cake parameters are fixed, so the seed changes nothing here.
    return [
        ("nondegeneracy", ["check-nondegeneracy", "--step", "0.05",
                           "--out", str(ws / "nondegeneracy.json")], 0),
        ("verify_cake", ["verify-cake", "--step", "0.001"], 1),
    ]


CAKE_EXPECTED = (
    ("FAIL", "util_argmax_is_corner"),
    ("PASS", "rawls_argmax_requires_inclusion"),
    ("PASS", "argmax_intersection_empty"),
)


def check_cake_output(stdout: str, outcome: Outcome) -> None:
    """verify-cake must report exactly the deliberate FAIL and two PASSes."""
    verdicts = tuple(
        (line.split()[0], line.split()[1].rstrip(":"))
        for line in stdout.splitlines()
        if line.startswith(("PASS ", "FAIL "))
    )
    outcome.require(verdicts == CAKE_EXPECTED, f"verify-cake verdicts {verdicts}, expected {CAKE_EXPECTED}")


def oracle_check(ws: Path, seed: int, stages, results, server_counts=None) -> Outcome:
    outcome = Outcome()
    check_exit_codes(stages, results, outcome)
    report = ws / "nondegeneracy.json"
    if outcome.require(report.exists(), "check-nondegeneracy wrote no report"):
        outcome.info["nondegeneracy_sha256"] = sha256_file(report)
        check_reference(seed, "oracle-grid", "nondegeneracy_sha256", outcome.info["nondegeneracy_sha256"], outcome)
    check_cake_output(results["verify_cake"]["stdout"], outcome)
    return outcome


# -- chat-rag ---------------------------------------------------------------

def write_corpus(root: Path, seed: int, out: Path) -> None:
    """Resample the words of the packaged sample corpus into CORPUS_DOCS
    seeded documents."""
    sample = root / "src" / "triage_arena" / "data" / "sample_corpus"
    words = [w for f in sorted(sample.glob("*.txt")) for w in f.read_text(encoding="utf-8").split()]
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    for d in range(CORPUS_DOCS):
        tokens = rng.choices(words, k=CORPUS_TOKENS_PER_DOC)
        lines = [" ".join(tokens[i : i + 16]) for i in range(0, len(tokens), 16)]
        (out / f"doc_{d:02d}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def chat_inputs(ws: Path, seed: int):
    """The cohorts, made by a CLI call before the timed region."""
    return [
        ("gen", ["gen-cohorts", "--seed", str(seed), "--batch", str(CHAT_BATCH),
                 "--variant", "standard", "--out", str(ws / "cohorts")], 0),
    ]


def chat_stages(ws: Path, seed: int, server_url=None):
    return [
        ("chat_run", ["run", "--cohorts", str(ws / "cohorts"), "--backend", "chat",
                      "--framework", "CareEthics", "--corpus-dir", str(ws / "corpus"),
                      "--endpoint", server_url, "--model", "mock-chat",
                      "--jobs", "1", "--out", str(ws / "run")], 0),
        ("eval", ["eval", "--transcripts", str(ws / "run"), "--out", str(ws / "eval")], 0),
        ("stats", ["stats", "--eval-dir", str(ws / "eval"), "--out", str(ws / "stats")], 0),
    ]


def chat_check(ws: Path, seed: int, stages, results, server_counts) -> Outcome:
    outcome = Outcome()
    check_exit_codes(stages, results, outcome)
    check_run_dir(ws / "run", CHAT_BATCH, outcome, "chat run")
    proposals = 0
    for path in sorted((ws / "run").glob("transcript_*.json")):
        proposals += len(json.loads(path.read_text(encoding="utf-8"))["proposals"])
    outcome.require(
        proposals == CHAT_BATCH * ROUNDS * 2, f"{proposals} proposals, expected {CHAT_BATCH * ROUNDS * 2}"
    )
    # every unparseable reply costs exactly one retry request
    expected = proposals + server_counts["unparseable"]
    outcome.require(
        server_counts["requests"] == expected,
        f"{server_counts['requests']} chat requests, expected {expected} "
        f"({proposals} turns + {server_counts['unparseable']} parse retries)",
    )
    outcome.require(server_counts["unparseable"] > 0, "no parse retry was exercised")
    outcome.info.update(server_counts)
    comparison = ws / "stats" / "comparison.json"
    if outcome.require(comparison.exists(), "stats wrote no comparison.json"):
        outcome.info["comparison_sha256"] = sha256_file(comparison)
        check_reference(seed, "chat-rag", "comparison_sha256", outcome.info["comparison_sha256"], outcome)
    return outcome


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stages: Callable  # (workspace, seed, chat endpoint) -> stages to time
    check: Callable  # (workspace, seed, stages, results, server counts) -> Outcome
    run_stage: str | None  # the `run` stage whose cmd_run self time is cli.cmd_run.self_s
    inputs: Callable | None = None  # (workspace, seed) -> untimed stages that make inputs
    corpus: bool = False  # write the seeded retrieval corpus before timing
    server: bool = False  # serve the mock chat endpoint while timing
    # Timed and checked, but left out of pipeline_s: the --jobs 2 run spreads
    # its work over both vCPUs, whose speeds the in-process scale of
    # stage.py does not follow, so it is reported on its own.
    side_stages: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scripted-500",
            "scripted Rawlsian vs biased debates at batch 500, standard capacity: "
            "gen, run, resume, eval, stats, report, validate and a --jobs 2 run",
            scripted_stages, scripted_check, run_stage="run", side_stages=("run_jobs2",),
        ),
        Workload(
            "oracle-grid",
            "check-nondegeneracy --step 0.05 and verify-cake --step 0.001: oracle "
            "grid enumeration and Allocation construction, no file I/O",
            oracle_stages, oracle_check, run_stage=None,
        ),
        Workload(
            "chat-rag",
            "chat backend with retrieval over a seeded ~1000-chunk corpus, 100 cohorts, "
            "3 rounds, against a local mock chat server; then eval and stats",
            chat_stages, chat_check, run_stage="chat_run",
            inputs=chat_inputs, corpus=True, server=True,
        ),
    )
}
