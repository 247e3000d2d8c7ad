"""Command-line surface.

Subcommands: gen-cohorts, run, eval, stats, verify-cake,
check-nondegeneracy, report, validate. Every command is deterministic
given its inputs and seeds (the chat backend excepted, and labelled as
nondeterministic in its manifest), never mutates its inputs, and writes
outputs only under --out. Exit codes: 0 success, 1 verification or
assertion failure, 2 usage or config error, 3 IO or transport error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import os
import sys
import threading
from pathlib import Path

from . import agents as agents_mod
from .arena import (
    AgentSpec,
    DebateConfig,
    DebateTranscript,
    _utc_stamp,
    agent_label,
    default_joint_allocation,
    deterministic_pair,
    emergence_deltas,
    run_debate,
    transcript_from_json,
    transcript_to_json,
)
from .cohortgen import (
    CohortGenerationError,
    SamplerConfig,
    default_slots,
    generate_batch,
    slots_from_json,
)
from .fanout import fan_out
from .metrics import (
    METRIC_DIRECTIONS,
    METRIC_NAMES,
    MetricReport,
    metric_reports,
)
from .model import (
    DATA,
    SCHEMA_VERSIONS,
    Cohort,
    Framework,
    ProfileKind,
    TransportError,
    canonical_json,
)
from .oracle import (
    RECHECK_TOL,
    CakeParams,
    cake_functionals,
    cake_space,
    check_nondegeneracy,
    verify_cake_claims,
)
from .persistence import (
    RunManifest,
    _atomic_write_bytes,
    atomic_write_text,
    build_manifest,
    load_reference_fixtures,
    read_eval_record,
    sha256_bytes,
    validate_schemas,
    write_json,
)
from .retrieval import (
    HashingEmbedder,
    RemoteEmbedder,
    load_corpus_dir,
    index_corpus,
    retrieve,
)
from .stats import (
    ComparisonReport,
    DEFAULT_ALPHA,
    DEFAULT_RESAMPLES,
    cell_seed,
    compare_cell,
    pair_reports,
    results_to_csv,
    results_to_markdown,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

_SCRIPTED_ALIGNED = {
    Framework.UTILITARIAN: "utilitarian",
    Framework.RAWLSIAN: "rawlsian",
}


class UsageError(ValueError):
    pass


def _read_input(path, kind: str, parse, data: bytes | None = None):
    """parse(obj) of the JSON object in an input file, decoded from data
    when the caller has read the file's bytes already. A file that does
    not decode, or lacks what parse needs, is a UsageError naming it."""
    try:
        text = Path(path).read_text(encoding="utf-8") if data is None else data.decode("utf-8")
        return parse(json.loads(text))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # ValueError covers bad JSON
        raise UsageError(f"invalid {kind} file {path}: {type(exc).__name__}: {exc}") from None


def cmd_gen_cohorts(args) -> int:
    if args.batch < 1:
        raise UsageError("--batch must be at least 1")
    slots = _read_input(args.slots_file, "slots", slots_from_json) if args.slots_file else default_slots()
    config = SamplerConfig(
        master_seed=args.seed,
        batch_size=args.batch,
        capacity_variant=args.variant,
        slots=slots,
    )
    try:
        cohorts = generate_batch(config)
    except CohortGenerationError as exc:  # slots that cannot make a diverse cohort
        raise UsageError(str(exc)) from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for cohort in cohorts:
        name = f"cohort_{cohort.cohort_id:04d}.json"
        files.append((name, write_json(out / name, cohort.to_json())))
    manifest = build_manifest(
        run_id=f"gen_seed{args.seed}_batch{args.batch}",
        files=files,
        config={
            "command": "gen-cohorts",
            "seed": args.seed,
            "batch": args.batch,
            "variant": args.variant,
            "seeds": [cohort.seed for cohort in cohorts],
        },
    )
    write_json(out / "manifest.json", manifest.to_json())
    print(f"wrote {len(files)} cohorts and manifest.json under {out}")
    return EXIT_OK


def _chat_config_from(args) -> agents_mod.ChatBackendConfig:
    endpoint = args.endpoint or os.environ.get("TRIAGE_ARENA_CHAT_ENDPOINT")
    model = args.model or os.environ.get("TRIAGE_ARENA_CHAT_MODEL")
    if not endpoint or not model:
        raise UsageError(
            "chat backend needs --endpoint and --model (or the "
            "TRIAGE_ARENA_CHAT_ENDPOINT / TRIAGE_ARENA_CHAT_MODEL variables)"
        )
    return agents_mod.ChatBackendConfig(
        endpoint=endpoint, model=model, temperature=args.temperature
    )


def _corpus_chunks(args):
    """The chunks of --corpus-dir, None without one; a UsageError if it has none."""
    if not args.corpus_dir:
        return None
    corpus = Path(args.corpus_dir)
    if not corpus.is_dir():
        reason = "is not a directory" if corpus.exists() else "does not exist"
        raise UsageError(f"--corpus-dir {corpus} {reason}")
    chunks = load_corpus_dir(corpus)
    if not chunks:
        raise UsageError(f"--corpus-dir {corpus} holds no .txt file with a word to retrieve")
    return chunks


def _make_retriever(chunks):
    """Build the per-round retrieval hook over corpus chunks."""
    embed_endpoint = os.environ.get("TRIAGE_ARENA_EMBED_ENDPOINT")
    embed_model = os.environ.get("TRIAGE_ARENA_EMBED_MODEL")
    if embed_endpoint and embed_model:
        embedder = RemoteEmbedder(endpoint=embed_endpoint, model=embed_model)
    else:
        embedder = HashingEmbedder()
    index = index_corpus(chunks, embedder)
    queries = json.loads((DATA / "queries.json").read_text(encoding="utf-8"))
    keywords = queries["round_keywords"]

    # The query depends only on the framework and the round, so each
    # distinct one is embedded and scored once per run. Failures are not
    # cached; under --jobs a duplicate computation gives the same result.
    @functools.cache
    def retrieve_once(query: str):
        return retrieve(index, query, embedder)

    def retriever(framework: str, round_t: int):
        template = keywords[min(round_t - 1, len(keywords) - 1)]
        return retrieve_once(f"{framework} {template}")

    return retriever


def _build_agents(args, framework: Framework, fixtures=None):
    """Both agents of a run; the replay backend feeds back the texts of
    the loaded reference fixtures."""
    opponent_kind = args.opponent
    if opponent_kind == "biased" and not args.allow_adversarial:
        raise UsageError(
            "a biased opponent deliberately produces discriminatory "
            "allocations for moderation experiments; pass --allow-adversarial "
            "to acknowledge this"
        )
    if args.backend == "scripted":
        strategy = _SCRIPTED_ALIGNED.get(framework)
        if strategy is None:
            raise UsageError(
                f"no scripted strategy implements the {framework.value} "
                f"framework; use --backend chat for that alignment "
                f"(scripted supports: "
                f"{', '.join(f.value for f in _SCRIPTED_ALIGNED)})"
            )
        backend_a = agents_mod.ScriptedBackend(strategy)
        backend_b = agents_mod.ScriptedBackend(
            "biased" if opponent_kind == "biased" else "utilitarian"
        )
    elif args.backend == "chat":
        chat_config = _chat_config_from(args)
        backend_a = agents_mod.ChatBackend(chat_config)
        backend_b = agents_mod.ChatBackend(chat_config)
    else:  # replay
        backend_a = agents_mod.ReplayBackend(fixtures.round_texts["A"], "replay:A")
        backend_b = agents_mod.ReplayBackend(fixtures.round_texts["B"], "replay:B")

    profile_a, system_a = agents_mod.build_profile(ProfileKind.ALIGNED, framework)
    if opponent_kind == "biased":
        adversarial = args.adversarial_file or DATA / "adversarial" / "biased_prompt.txt"
        profile_b, system_b = agents_mod.build_profile(
            ProfileKind.BIASED, adversarial_path=adversarial
        )
    else:
        profile_b, system_b = agents_mod.build_profile(ProfileKind.BASELINE)
    agent_a = AgentSpec(agent_label(profile_a), backend_a, profile_a, system_a)
    agent_b = AgentSpec(agent_label(profile_b), backend_b, profile_b, system_b)
    return agent_a, agent_b


def _transcript_name(framework: str, opponent: str, cohort_id: int) -> str:
    return f"transcript_{framework.lower()}_{opponent.lower()}_{cohort_id:04d}.json"


JOURNAL = "journal.jsonl"


def _read_bytes(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except OSError:
        return None


def _journal_hits(data: bytes, run_key: str) -> dict:
    """What journal bytes record as written under run_key: (cohort file
    name, sha256 of its bytes) -> (transcript name, sha256 of its bytes,
    the journal line as read, newline-ended), a later line superseding an
    earlier one. A line that does not decode (one torn by an interrupt)
    or lacks a field, a failed debate's line, a transcript name that is
    not a plain file name and an unhashable cohort file record nothing."""
    hits = {}
    for line in data.splitlines():
        try:
            entry = json.loads(line)
            name, sha = entry["transcript"], entry["sha256"]
            if entry["run_key"] == run_key and sha is not None and Path(name).name == name:
                hits[entry["cohort_file"], entry["cohort_sha256"]] = (name, sha, line + b"\n")
        except (ValueError, TypeError, KeyError):
            continue
    return hits


def _journal_line(entry: dict) -> bytes:
    return (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")


def cmd_run(args) -> int:
    """Run one debate per cohort file, or the replayed reference debate,
    and write the transcripts and their manifest under --out.

    A debate whose transcript is already there with this run's
    config_hash is skipped. Each debate run appends a line to the journal
    in --out, outside the hashed files. Where the last journal line for
    a cohort file's bytes records its transcript's bytes under the same
    run key (the hash of the config and backends that
    config_hash covers), the debate is skipped without decoding either
    file; otherwise the cohort is decoded and the transcript's
    config_hash compared. Debates skipped by that comparison are added to
    the journal. At the end the journal holds one line per debate of this
    run, in cohort order; it is rewritten only when it holds anything else.
    """
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    try:
        framework = Framework(args.framework)
    except ValueError:
        raise UsageError(
            f"unknown framework {args.framework!r}; expected one of "
            f"{', '.join(f.value for f in Framework)}"
        ) from None
    fixtures = None
    if args.backend == "replay":
        fixtures = load_reference_fixtures()
        sources = [fixtures.cohort]
    elif args.cohorts is None:
        raise UsageError("--cohorts is required unless --backend replay")
    else:
        directory = Path(args.cohorts)
        sources = sorted(directory.glob("cohort_*.json"))
        if not sources:
            raise UsageError(f"no cohort_*.json files under {directory}")

    agent_a, agent_b = _build_agents(args, framework, fixtures)
    try:
        return _run_debates(args, framework, sources, agent_a, agent_b)
    finally:
        for agent in (agent_a, agent_b):
            if hasattr(agent.backend, "close"):
                agent.backend.close()


def _run_debates(args, framework: Framework, sources: list, agent_a, agent_b) -> int:
    """cmd_run's work once its backends are built; sources holds the
    cohort files, or the replayed cohort itself."""
    config = DebateConfig(
        rounds=args.rounds,
        framework=framework.value,
        opponent_kind=agent_b.profile.kind.value,
    )
    hashed = {
        "config": config.to_json(),
        "backends": {"A": agent_a.backend.name, agent_b.label: agent_b.backend.name},
    }
    run_key = sha256_bytes(canonical_json(hashed).encode("utf-8"))
    out = Path(args.out)
    journal_path = out / JOURNAL
    journal_data = _read_bytes(journal_path) or b""
    hits = _journal_hits(journal_data, run_key)

    # transcript name -> (sha256 of its bytes, None for a failed debate, and
    # its journal line), in cohort order; a debate to run holds None
    record = {}
    appended = []  # lines of the debates found done by their config_hash
    tasks = []
    for path in sources:
        if isinstance(path, Cohort):
            cohort, cohort_file, cohort_sha = path, None, None
        else:
            data = path.read_bytes()
            cohort_file, cohort_sha = path.name, sha256_bytes(data)
            hit = hits.get((cohort_file, cohort_sha))
            if hit is not None:
                name, sha, line = hit
                existing = _read_bytes(out / name)
                if existing is not None and sha256_bytes(existing) == sha:
                    record[name] = (sha, line)
                    continue
            cohort = _read_input(path, "cohort", Cohort.from_json, data)
        name = _transcript_name(framework.value, args.opponent, cohort.cohort_id)
        config_hash = sha256_bytes(canonical_json({**hashed, "cohort": cohort.to_json()}).encode("utf-8"))
        entry = {
            "transcript": name,
            "config_hash": config_hash,
            "cohort_file": cohort_file,
            "cohort_sha256": cohort_sha,
            "run_key": run_key,
        }
        existing = _read_bytes(out / name)
        if existing is not None:
            # an undecodable or non-object transcript is not done
            try:
                obj = json.loads(existing.decode("utf-8"))
            except ValueError:
                obj = None
            if isinstance(obj, dict) and obj.get("config_hash") == config_hash:
                sha = sha256_bytes(existing)
                line = _journal_line({**entry, "sha256": sha, "failed": None})
                record[name] = (sha, line)
                appended.append(line)
                continue
        record[name] = None
        tasks.append((cohort, entry))

    skipped = len(sources) - len(tasks)
    chunks = _corpus_chunks(args)
    # the index is embedded only for a debate that will read it
    retriever = _make_retriever(chunks) if chunks and tasks else None
    # made only now, so a usage error above leaves no directory behind
    out.mkdir(parents=True, exist_ok=True)
    lock = threading.Lock()
    with open(journal_path, "ab") as journal:
        if journal_data and not journal_data.endswith(b"\n"):
            journal.write(b"\n")  # ends any line an interrupt tore
        journal.writelines(appended)
        journal.flush()

        def execute(task) -> None:
            """Run, write, journal and record one debate."""
            cohort, entry = task
            name = entry["transcript"]
            try:
                transcript = run_debate(cohort, agent_a, agent_b, config, retriever=retriever)
                obj = transcript_to_json(transcript)
                obj["config_hash"] = entry["config_hash"]
                sha, failed = write_json(out / name, obj), None
            except Exception as exc:
                sha, failed = None, f"{name}: {exc}"
            line = _journal_line({**entry, "failed": failed, "sha256": sha})
            with lock:
                journal.write(line)
                journal.flush()
                record[name] = (sha, line)

        # An interrupt cancels the debates still queued. One job runs on
        # the calling thread, without a pool.
        if args.jobs == 1:
            for task in tasks:
                execute(task)
        else:
            with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
                list(pool.map(execute, tasks))
    lines = b"".join(line for _sha, line in record.values())
    if journal_path.read_bytes() != lines:
        _atomic_write_bytes(journal_path, lines)
    failures = [json.loads(line)["failed"] for sha, line in record.values() if sha is None]
    executed = len(tasks) - len(failures)

    deterministic = deterministic_pair(agent_a, agent_b)
    manifest = build_manifest(
        run_id=f"run_{framework.value.lower()}_{args.opponent}",
        files=[(name, sha) for name, (sha, _line) in record.items() if sha is not None],
        config={
            "command": "run",
            "framework": framework.value,
            "opponent": args.opponent,
            "backend": args.backend,
            "rounds": args.rounds,
            "deterministic": deterministic,
        },
        timestamp=None if deterministic else _utc_stamp(),
    )
    write_json(out / "manifest.json", manifest.to_json())
    print(
        f"executed {executed} debates, skipped {skipped} existing, "
        f"{len(failures)} failures"
    )
    for failure in failures:
        print(f"  failed: {failure}", file=sys.stderr)
    return EXIT_IO if failures else EXIT_OK


def _eval_record(transcript: DebateTranscript, source: str, source_sha256: str) -> dict:
    """The eval record of one transcript, whose file source held bytes
    with sha256 source_sha256: the metric report of every proposal, of
    each final and, for a debate that ended with two finals, of their
    joint with its emergence deltas. The one place a transcript is
    scored; eval writes the record and report aggregates it."""
    cohort = transcript.cohort
    proposals = transcript.history.proposals
    finals = list(transcript.final_allocations.values())
    scored = [p.allocation for p in proposals] + finals
    joint_note = None
    if transcript.completed and len(finals) == 2:
        joint_allocation, joint_note = default_joint_allocation(*finals, cohort.capacity)
        scored.append(joint_allocation)
    reports = metric_reports(cohort, scored)
    final_reports = reports[len(proposals):len(proposals) + len(finals)]
    joint = None
    if joint_note is not None:
        joint = {
            "note": joint_note,
            "metrics": reports[-1].to_json(),
            "deltas": emergence_deltas(reports[-1], final_reports),
        }
    return {
        "schema_version": SCHEMA_VERSIONS["eval"],
        "kind": "eval",
        "source_transcript": source,
        "source_sha256": source_sha256,
        "cohort_id": cohort.cohort_id,
        "capacity_variant": cohort.capacity.variant,
        "framework": transcript.config.framework,
        "opponent_kind": transcript.config.opponent_kind,
        "completed": transcript.completed,
        "rounds": [
            {
                "round": prop.round,
                "agent": prop.agent,
                "feasible": report.feasible,
                "metrics": report.to_json(),
            }
            for prop, report in zip(proposals, reports)
        ],
        "finals": {
            label: report.to_json()
            for label, report in zip(transcript.final_allocations, final_reports)
        },
        "joint": joint,
    }


def _eval_name(transcript_name: str) -> str:
    """The name of the eval record of a transcript file."""
    return transcript_name.replace("transcript_", "eval_")


def cmd_eval(args) -> int:
    transcripts_dir = Path(args.transcripts)
    files = sorted(transcripts_dir.glob("transcript_*.json"))
    if not files:
        raise UsageError(f"no transcript_*.json files under {transcripts_dir}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def evaluate(share: list[Path]) -> list[str]:
        """Write the eval record of each transcript of share; the line of
        each one that is corrupt."""
        corrupt = []
        for file in share:
            target = out / _eval_name(file.name)
            try:
                data = file.read_bytes()
                obj = json.loads(data.decode("utf-8"))
                record = _eval_record(transcript_from_json(obj), file.name, sha256_bytes(data))
            except Exception as exc:
                corrupt.append(f"{file.name}: {exc}")
                # an earlier eval of this transcript no longer describes it
                target.unlink(missing_ok=True)
                continue
            write_json(target, record)
        return corrupt

    # the records are files, so a child's share needs nothing sent back
    corrupt = fan_out(evaluate, files)
    # the eval of a transcript gone from --transcripts describes nothing;
    # only the pairings (name up to the cohort number) read here are
    # pruned, so an --out shared with another pairing keeps its evals
    names = {file.name for file in files}
    pairings = {name.rpartition("_")[0] for name in names}
    stale = 0
    for record_file in sorted(out.glob("eval_*.json")):
        source = record_file.name.replace("eval_", "transcript_", 1)
        if source not in names and source.rpartition("_")[0] in pairings:
            record_file.unlink()
            stale += 1
    print(
        f"evaluated {len(files) - len(corrupt)} transcripts, {len(corrupt)} corrupt, "
        f"{stale} stale removed"
    )
    for item in corrupt:
        print(f"  corrupt: {item}", file=sys.stderr)
    return EXIT_VERIFICATION if corrupt else EXIT_OK


def _svg_bar_chart(metric: str, rows: list[ComparisonReport]) -> str:
    """Tiny hand-rolled grouped bar chart with CI whiskers."""
    width, height, margin = 640, 360, 50
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    values = []
    for r in rows:
        values.extend([r.ci_a[1], r.ci_b[1], r.mean_a, r.mean_b])
    top = max(values + [1e-9]) * 1.15
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">'
        f"{metric} ({METRIC_DIRECTIONS[metric]} is better)</text>",
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    group_w = plot_w / max(len(rows), 1)
    bar_w = group_w * 0.3

    def y_of(v: float) -> float:
        return height - margin - (max(v, 0.0) / top) * plot_h

    for i, r in enumerate(rows):
        x0 = margin + i * group_w + group_w * 0.15
        for offset, (mean, ci, color) in enumerate(
            [(r.mean_a, r.ci_a, "#4878a8"), (r.mean_b, r.ci_b, "#c44e52")]
        ):
            x = x0 + offset * bar_w * 1.2
            y = y_of(mean)
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
                f'height="{height - margin - y:.1f}" fill="{color}"/>'
            )
            cx = x + bar_w / 2
            parts.append(
                f'<line x1="{cx:.1f}" y1="{y_of(ci[0]):.1f}" x2="{cx:.1f}" '
                f'y2="{y_of(ci[1]):.1f}" stroke="black" stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{x0 + bar_w:.1f}" y="{height - margin + 16}" '
            f'text-anchor="middle" font-size="10">{r.framework}</text>'
        )
    parts.append(
        f'<text x="{margin}" y="{margin - 8}" font-size="10">0 to {top:.3g}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_stats(args) -> int:
    if not 0 < args.alpha < 1:
        raise UsageError(f"--alpha must lie in (0, 1), not {args.alpha}")
    eval_dir = Path(args.eval_dir)
    files = sorted(eval_dir.glob("eval_*.json"))
    if not files:
        raise UsageError(f"no eval_*.json files under {eval_dir}")
    # framework -> (its opponent kind, its pairing entries): a cell is
    # named by its framework, so each framework has one opponent
    groups: dict[str, tuple[str, list]] = {}
    for f in files:
        record = _read_input(f, "eval", read_eval_record)
        framework, opponent = record["framework"], record["opponent_kind"]
        kind, members = groups.setdefault(framework, (opponent, []))
        if opponent != kind:
            raise UsageError(
                f"{eval_dir} holds {framework} records against both {kind} "
                f"and {opponent} opponents; stats compares one opponent per framework"
            )
        if record["completed"]:
            finals = {label: MetricReport.from_json(r) for label, r in record["finals"].items()}
            members.append((record["cohort_id"], finals))
    reports = [
        compare_cell(
            pair_reports(members, metric),
            framework=framework,
            metric=metric,
            alpha=args.alpha,
            bootstrap_seed=cell_seed(args.seed, framework, metric),
        )
        for framework, (_opponent, members) in sorted(groups.items())
        for metric in METRIC_NAMES
    ]
    # made only now, so a refused cell leaves no directory behind
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    write_json(
        out / "comparison.json",
        {
            "schema_version": SCHEMA_VERSIONS["comparison"],
            "kind": "comparison",
            "alpha": args.alpha,
            "bootstrap_seed": args.seed,
            "resamples": DEFAULT_RESAMPLES,
            "reports": [r.to_json() for r in reports],
        },
    )
    atomic_write_text(out / "results.csv", results_to_csv(reports))
    atomic_write_text(out / "results.md", results_to_markdown(reports))
    charts = out / "charts"
    charts.mkdir(exist_ok=True)
    for metric in METRIC_NAMES:
        rows = [r for r in reports if r.metric == metric and r.n > 0]
        if rows:
            atomic_write_text(charts / f"{metric}.svg", _svg_bar_chart(metric, rows))
    print(f"wrote {len(reports)} comparison cells under {out}")
    return EXIT_OK


def _cake_params(args) -> CakeParams:
    if not args.params_file:
        return CakeParams()
    return _read_input(args.params_file, "params", CakeParams.from_json)


def cmd_verify_cake(args) -> int:
    report = verify_cake_claims(_cake_params(args), step=args.step)
    print(report.label)
    for claim in report.claims:
        status = "PASS" if claim.passed else "FAIL"
        print(f"{status} {claim.name}: {claim.detail}")
        if claim.witness is not None:
            print(f"     witness: {tuple(round(x, 6) for x in claim.witness)}")
    if not report.recheck_agrees:
        print(f"warning: verdicts differ at tolerance {RECHECK_TOL}")
    return EXIT_OK if report.all_passed else EXIT_VERIFICATION


def cmd_check_nondegeneracy(args) -> int:
    params = _cake_params(args)
    include = tuple(name.strip() for name in args.functionals.split(","))
    prior_weights = None
    if "prior" in include:
        if args.prior_weights:
            prior_weights = [float(x) for x in args.prior_weights.split(",")]
        else:
            prior_weights = [1.0] * 6
    functionals = cake_functionals(params, prior_weights, include)
    space = cake_space(args.step, enumeration_bound=args.bound)
    report = check_nondegeneracy(functionals, space, tol=args.tol)
    print(report.label)
    for name, size in sorted(report.argmax_sizes.items()):
        print(f"  argmax[{name}]: {size} grid point(s)")
    if report.degenerate:
        print(f"  shared maximizer: {report.witness.rows}")
    if args.out:
        write_json(Path(args.out), report.to_json())
    return EXIT_VERIFICATION if report.degenerate else EXIT_OK


def cmd_report(args) -> int:
    """Render the Markdown report of a run from the eval records of its
    transcripts.

    Each file the manifest lists is read once, to check its hash. A
    transcript whose bytes match adds the numbers of its eval record in
    --eval-dir (by default the eval directory beside the run directory),
    read once by persistence.read_eval_record, if it is of those bytes;
    no transcript is decoded. A missing or mismatched file, and an intact
    transcript whose record is missing, of other bytes or refused by the
    reader, is listed as a problem, in manifest order, and gives exit 1.
    """
    manifest_path = Path(args.run_manifest)
    base = manifest_path.parent
    manifest = _read_input(manifest_path, "manifest", RunManifest.from_json)
    if args.eval_dir is None:
        eval_dir = Path(os.path.abspath(base)).parent / "eval"
    else:
        eval_dir = Path(args.eval_dir)
    if not eval_dir.is_dir():
        reason = "not a directory" if eval_dir.exists() else "no such directory"
        raise UsageError(f"eval directory {eval_dir}: {reason}; run eval into it or pass --eval-dir")
    # Only the values the report prints are kept: metric values in
    # METRIC_NAMES order, appended in manifest order.
    problems: list[str] = []
    variants: dict[int, str] = {}  # cohort id -> capacity variant
    counts: dict[tuple[str, str, int], int] = {}
    finals: dict[tuple[str, str], list[list[float]]] = {}  # (framework, agent)
    joints: dict[str, list[tuple[list[float], bool]]] = {}  # deltas, feasible

    listed = dict(manifest.files)
    for rel, problem in manifest.check(base):
        if problem is not None:
            problems.append(problem)
            continue
        if not rel.startswith("transcript_"):
            continue
        path = eval_dir / _eval_name(rel)
        data = _read_bytes(path)
        try:
            record = None if data is None else _read_input(path, "eval", read_eval_record, data)
        except UsageError as exc:
            problems.append(f"{rel}: {exc}")
            continue
        if record is None or record["source_sha256"] != listed[rel]:
            problems.append(f"{rel}: no eval record of these bytes in {eval_dir}")
            continue
        framework = record["framework"]
        variants[record["cohort_id"]] = record["capacity_variant"]
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

    lines = ["# Run report", ""]
    lines.append("## Configuration")
    lines.append("```json")
    lines.append(canonical_json(manifest.config).rstrip())
    lines.append("```")
    lines.append("")
    if problems:
        lines.append("## Missing or invalid inputs")
        lines.extend(f"- {item}" for item in problems)
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
                lines.append(
                    f"| {framework} | {label} | {metric} | {sum(vals) / len(vals):.4f} |"
                )
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
                lines.append(
                    f"| {framework} | {metric} | {sum(vals) / len(vals):+.4f} | {infeasible} |"
                )
        lines.append("")
    out = Path(args.out)
    atomic_write_text(out, "\n".join(lines) + "\n")
    print(f"wrote report to {out}")
    return EXIT_VERIFICATION if problems else EXIT_OK


def cmd_validate(args) -> int:
    violations = validate_schemas(args.directory)
    if not violations:
        print("all files valid")
        return EXIT_OK
    for v in violations:
        print(f"{v.path}: {v.problem}")
    return EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triage-arena",
        description="Deterministic multi-agent triage debate harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-cohorts", help="generate seeded patient cohorts")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--batch", type=int, default=50)
    p.add_argument("--variant", default="standard", choices=["standard", "tight", "abundant"])
    p.add_argument("--slots-file", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_cohorts)

    p = sub.add_parser("run", help="run debates over a cohort directory")
    p.add_argument("--cohorts", help="directory of cohort_*.json files")
    p.add_argument("--framework", default="Utilitarian")
    p.add_argument("--opponent", default="baseline", choices=["baseline", "biased"])
    p.add_argument("--backend", default="scripted", choices=["scripted", "chat", "replay"])
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--allow-adversarial", action="store_true")
    p.add_argument("--adversarial-file", default=None)
    p.add_argument("--corpus-dir", default=None, help="enable retrieval over this corpus")
    p.add_argument("--endpoint", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--temperature", type=float, default=0.0)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="recompute metric reports for transcripts")
    p.add_argument("--transcripts", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="paired statistical comparison over eval files")
    p.add_argument("--eval-dir", required=True)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify-cake", help="verify the cake-division claims on a grid")
    p.add_argument("--params-file", default=None)
    p.add_argument("--step", type=float, default=0.01)
    p.set_defaults(func=cmd_verify_cake)

    p = sub.add_parser(
        "check-nondegeneracy", help="intersect welfare argmax sets by full enumeration"
    )
    p.add_argument("--params-file", default=None)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--bound", type=int, default=5_000_000)
    p.add_argument("--functionals", default="util,egal,rawls,prior")
    p.add_argument("--prior-weights", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check_nondegeneracy)

    p = sub.add_parser("report", help="render a Markdown run report")
    p.add_argument("--run-manifest", required=True)
    p.add_argument(
        "--eval-dir", default=None,
        help="eval records of the run's transcripts (default: eval beside the run directory)",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("validate", help="validate a run directory against the schemas")
    p.add_argument("directory")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # so is UsageError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, TransportError) as exc:
        print(f"io/transport error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
