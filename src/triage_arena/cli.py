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
from importlib import resources as _resources
from pathlib import Path

from . import agents as agents_mod
from .arena import (
    AgentSpec,
    DebateConfig,
    agent_label,
    default_joint_allocation,
    emergence_deltas,
    run_debate,
    transcript_from_json,
    transcript_to_json,
)
from .cohortgen import SamplerConfig, generate_batch, slots_from_json
from .metrics import (
    METRIC_DIRECTIONS,
    METRIC_NAMES,
    MetricConfig,
    MetricReport,
    metric_reports,
)
from .model import (
    BiasSource,
    Cohort,
    Framework,
    ProfileKind,
    TransportError,
    canonical_json,
)
from .oracle import (
    CakeParams,
    EnumerationBoundExceeded,
    cake_functionals,
    cake_space,
    check_nondegeneracy,
    verify_cake_claims,
)
from .persistence import (
    RunManifest,
    build_manifest,
    load_reference_fixtures,
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


def _read_input(path, kind: str, parse):
    """parse(obj) of the JSON object in an input file. A file that does
    not decode, or lacks what parse needs, is a UsageError naming it."""
    try:
        return parse(json.loads(Path(path).read_text(encoding="utf-8")))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # ValueError covers bad JSON
        raise UsageError(f"invalid {kind} file {path}: {type(exc).__name__}: {exc}") from None


def _load_cohorts(directory: Path) -> list[Cohort]:
    files = sorted(directory.glob("cohort_*.json"))
    if not files:
        raise UsageError(f"no cohort_*.json files under {directory}")
    return [_read_input(f, "cohort", Cohort.from_json) for f in files]


def cmd_gen_cohorts(args) -> int:
    if args.batch < 1:
        raise UsageError("--batch must be at least 1")
    slots = _read_input(args.slots_file, "slots", slots_from_json) if args.slots_file else None
    kwargs = dict(
        master_seed=args.seed,
        batch_size=args.batch,
        capacity_variant=args.variant,
    )
    if slots is not None:
        kwargs["slots"] = slots
    config = SamplerConfig(**kwargs)
    cohorts = generate_batch(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for cohort in cohorts:
        path = out / f"cohort_{cohort.cohort_id:04d}.json"
        write_json(path, cohort.to_json())
        files.append(path)
    manifest = build_manifest(
        run_id=f"gen_seed{args.seed}_batch{args.batch}",
        base_dir=out,
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


def _make_retriever(args, k: int = 5):
    """Build the per-round retrieval hook from a corpus directory."""
    if not args.corpus_dir:
        return None
    chunks = load_corpus_dir(args.corpus_dir)
    embed_endpoint = os.environ.get("TRIAGE_ARENA_EMBED_ENDPOINT")
    embed_model = os.environ.get("TRIAGE_ARENA_EMBED_MODEL")
    if embed_endpoint and embed_model:
        embedder = RemoteEmbedder(endpoint=embed_endpoint, model=embed_model)
    else:
        embedder = HashingEmbedder()
    index = index_corpus(chunks, embedder)
    queries = json.loads(
        _resources.files("triage_arena")
        .joinpath("data/queries.json")
        .read_text(encoding="utf-8")
    )
    keywords = queries["round_keywords"]

    # The query depends only on the framework and the round, so each
    # distinct one is embedded and scored once per run. Failures are not
    # cached; under --jobs a duplicate computation gives the same result.
    @functools.cache
    def retrieve_once(query: str):
        return retrieve(index, query, embedder, k=k)

    def retriever(framework: str, round_t: int):
        template = keywords[min(round_t - 1, len(keywords) - 1)]
        return retrieve_once(f"{framework} {template}")

    return retriever


def _default_adversarial_path() -> Path:
    return Path(
        str(
            _resources.files("triage_arena").joinpath(
                "data/adversarial/biased_prompt.txt"
            )
        )
    )


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
    retrieval_enabled = bool(args.corpus_dir)
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
    elif args.backend == "replay":
        backend_a = agents_mod.ReplayBackend(fixtures.round_texts["A"], "replay:A")
        backend_b = agents_mod.ReplayBackend(fixtures.round_texts["B"], "replay:B")
    else:
        raise UsageError(f"unsupported backend {args.backend!r}")

    profile_a, system_a = agents_mod.build_profile(
        ProfileKind.ALIGNED, framework, retrieval_enabled=retrieval_enabled
    )
    if opponent_kind == "biased":
        adversarial = Path(args.adversarial_file) if args.adversarial_file else _default_adversarial_path()
        profile_b, system_b = agents_mod.build_profile(
            ProfileKind.BIASED,
            bias_source=BiasSource.ADVERSARIAL_PROMPT,
            adversarial_path=adversarial,
        )
    else:
        profile_b, system_b = agents_mod.build_profile(ProfileKind.BASELINE)
    agent_a = AgentSpec(agent_label(profile_a), backend_a, profile_a, system_a)
    agent_b = AgentSpec(agent_label(profile_b), backend_b, profile_b, system_b)
    return agent_a, agent_b


def _transcript_name(framework: str, opponent: str, cohort_id: int) -> str:
    return f"transcript_{framework.lower()}_{opponent.lower()}_{cohort_id:04d}.json"


def cmd_run(args) -> int:
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    try:
        framework = Framework(args.framework)
    except ValueError:
        raise UsageError(
            f"unknown framework {args.framework!r}; expected one of "
            f"{', '.join(f.value for f in Framework)}"
        ) from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    fixtures = None
    if args.backend == "replay":
        fixtures = load_reference_fixtures()
        cohorts = [fixtures.cohort]
    else:
        cohorts = _load_cohorts(Path(args.cohorts))

    agent_a, agent_b = _build_agents(args, framework, fixtures)
    opponent_kind = "Biased" if args.opponent == "biased" else "Baseline"
    config = DebateConfig(
        rounds=args.rounds,
        framework=framework.value,
        opponent_kind=opponent_kind,
    )
    retriever = _make_retriever(args)

    done_files = []
    tasks = []
    for cohort in cohorts:
        name = _transcript_name(framework.value, args.opponent, cohort.cohort_id)
        config_hash = sha256_bytes(
            canonical_json(
                {
                    "config": config.to_json(),
                    "cohort": cohort.to_json(),
                    "backends": {
                        "A": agent_a.backend.name,
                        agent_b.label: agent_b.backend.name,
                    },
                }
            ).encode("utf-8")
        )
        target = out / name
        if target.exists():
            # an unreadable, undecodable or non-object transcript is not done
            try:
                existing = json.loads(target.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                existing = None
            if isinstance(existing, dict) and existing.get("config_hash") == config_hash:
                done_files.append(target)
                continue
        tasks.append((cohort, name, config_hash))

    skipped = len(done_files)

    def execute(task):
        """Run and write one debate; the failure line, or None on success."""
        cohort, name, config_hash = task
        try:
            transcript = run_debate(cohort, agent_a, agent_b, config, retriever=retriever)
            obj = transcript_to_json(transcript)
            obj["config_hash"] = config_hash
            write_json(out / name, obj)
        except Exception as exc:
            return f"{name}: {exc}"
        return None

    # Both mappers yield in task order, so failures are listed in cohort
    # order; an interrupt cancels the debates still queued. One job runs on
    # the calling thread, without a pool.
    try:
        if args.jobs == 1:
            outcomes = [execute(task) for task in tasks]
        else:
            with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
                outcomes = list(pool.map(execute, tasks))
    finally:
        for agent in (agent_a, agent_b):
            if hasattr(agent.backend, "close"):
                agent.backend.close()
    failures = [failure for failure in outcomes if failure is not None]
    done_files += [out / name for (_, name, _), failure in zip(tasks, outcomes) if failure is None]
    executed = len(tasks) - len(failures)

    deterministic = bool(getattr(agent_a.backend, "deterministic", False))
    timestamp = None
    if not deterministic:
        import datetime

        timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    manifest = build_manifest(
        run_id=f"run_{framework.value.lower()}_{args.opponent}",
        base_dir=out,
        files=done_files,
        config={
            "command": "run",
            "framework": framework.value,
            "opponent": args.opponent,
            "backend": args.backend,
            "rounds": args.rounds,
            "deterministic": deterministic,
        },
        timestamp=timestamp,
    )
    write_json(out / "manifest.json", manifest.to_json())
    print(
        f"executed {executed} debates, skipped {skipped} existing, "
        f"{len(failures)} failures"
    )
    for failure in failures:
        print(f"  failed: {failure}", file=sys.stderr)
    return EXIT_IO if failures else EXIT_OK


def cmd_eval(args) -> int:
    transcripts_dir = Path(args.transcripts)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metric_config = MetricConfig.default()
    files = sorted(transcripts_dir.glob("transcript_*.json"))
    if not files:
        raise UsageError(f"no transcript_*.json files under {transcripts_dir}")
    corrupt = []
    written = []
    for file in files:
        try:
            obj = json.loads(file.read_text(encoding="utf-8"))
            transcript = transcript_from_json(obj)
        except Exception as exc:
            corrupt.append(f"{file.name}: {exc}")
            continue
        proposals = transcript.history.proposals
        reports = metric_reports(
            transcript.cohort,
            [p.allocation for p in proposals] + list(transcript.final_allocations.values()),
            metric_config,
        )
        rounds = [
            {
                "round": prop.round,
                "agent": prop.agent,
                "feasible": report.feasible,
                "metrics": report.to_json(),
            }
            for prop, report in zip(proposals, reports)
        ]
        finals = {
            label: report.to_json()
            for label, report in zip(transcript.final_allocations, reports[len(proposals):])
        }
        eval_obj = {
            "schema_version": 1,
            "kind": "eval",
            "source_transcript": file.name,
            "cohort_id": transcript.cohort.cohort_id,
            "framework": transcript.config.framework,
            "opponent_kind": transcript.config.opponent_kind,
            "completed": transcript.completed,
            "rounds": rounds,
            "finals": finals,
        }
        target = out / file.name.replace("transcript_", "eval_")
        write_json(target, eval_obj)
        written.append(target)
    print(f"evaluated {len(written)} transcripts, {len(corrupt)} corrupt")
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


def _eval_entry(e: dict):
    """An eval file's (framework, opponent) group and its pairing entry,
    None when the debate did not complete."""
    group = (e["framework"], e["opponent_kind"])
    if not e.get("completed", True):
        return group, None
    finals = {label: MetricReport.from_json(r) for label, r in e["finals"].items()}
    return group, (e["cohort_id"], finals)


def cmd_stats(args) -> int:
    eval_dir = Path(args.eval_dir)
    files = sorted(eval_dir.glob("eval_*.json"))
    if not files:
        raise UsageError(f"no eval_*.json files under {eval_dir}")
    groups: dict[tuple[str, str], list] = {}
    for f in files:
        group, entry = _read_input(f, "eval", _eval_entry)
        members = groups.setdefault(group, [])
        if entry is not None:
            members.append(entry)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    reports = [
        compare_cell(
            pair_reports(members, metric),
            framework=framework,
            metric=metric,
            alpha=args.alpha,
            bootstrap_seed=cell_seed(args.seed, framework, metric),
        )
        for (framework, _opponent), members in sorted(groups.items())
        for metric in METRIC_NAMES
    ]

    write_json(
        out / "comparison.json",
        {
            "schema_version": 1,
            "kind": "comparison",
            "alpha": args.alpha,
            "bootstrap_seed": args.seed,
            "resamples": DEFAULT_RESAMPLES,
            "reports": [r.to_json() for r in reports],
        },
    )
    (out / "results.csv").write_text(results_to_csv(reports), encoding="utf-8")
    (out / "results.md").write_text(results_to_markdown(reports), encoding="utf-8")
    charts = out / "charts"
    charts.mkdir(exist_ok=True)
    for metric in METRIC_NAMES:
        rows = [r for r in reports if r.metric == metric and r.n > 0]
        if rows:
            (charts / f"{metric}.svg").write_text(
                _svg_bar_chart(metric, rows), encoding="utf-8"
            )
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
        print(f"warning: verdicts differ at tolerance {report.recheck_tol}")
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
    manifest_path = Path(args.run_manifest)
    base = manifest_path.parent
    manifest = _read_input(manifest_path, "manifest", RunManifest.from_json)
    missing = manifest.verify(base)
    transcripts = []
    for rel, _hash in manifest.files:
        path = base / rel
        if path.exists() and rel.startswith("transcript_"):
            try:
                transcripts.append(
                    transcript_from_json(json.loads(path.read_text(encoding="utf-8")))
                )
            except Exception as exc:
                missing.append(f"{rel}: unreadable ({exc})")

    lines = ["# Run report", ""]
    lines.append("## Configuration")
    lines.append("```json")
    lines.append(canonical_json(manifest.config).rstrip())
    lines.append("```")
    lines.append("")
    if missing:
        lines.append("## Missing or invalid inputs")
        lines.extend(f"- {item}" for item in missing)
        lines.append("")
    if transcripts:
        cohorts = {t.cohort.cohort_id: t.cohort for t in transcripts}
        variants = {c.capacity.variant for c in cohorts.values()}
        lines.append("## Cohorts")
        lines.append(
            f"- {len(cohorts)} cohorts, capacity variant(s): {', '.join(sorted(variants))}"
        )
        lines.append("")
        lines.append("## Infeasibility counts per (framework, agent, round)")
        lines.append("| framework | agent | round | infeasible proposals |")
        lines.append("| --- | --- | --- | --- |")
        counts: dict[tuple[str, str, int], int] = {}
        for t in transcripts:
            for prop in t.history.proposals:
                if prop.feasibility is not None and not prop.feasibility.feasible:
                    key = (t.config.framework, prop.agent, prop.round)
                    counts[key] = counts.get(key, 0) + 1
        for (framework, agent, round_t), count in sorted(counts.items()):
            lines.append(f"| {framework} | {agent} | {round_t} | {count} |")
        if not counts:
            lines.append("| (none) | - | - | 0 |")
        lines.append("")
        lines.append("## Final metric summary")
        lines.append("| framework | agent | metric | mean over cohorts |")
        lines.append("| --- | --- | --- | --- |")
        by_fw: dict[str, list] = {}
        for t in transcripts:
            if t.completed:
                by_fw.setdefault(t.config.framework, []).append(t)
        for framework, members in sorted(by_fw.items()):
            labels = sorted({l for t in members for l in t.final_reports})
            for label in labels:
                for metric in METRIC_NAMES:
                    vals = [
                        t.final_reports[label].value(metric)
                        for t in members
                        if label in t.final_reports
                    ]
                    if vals:
                        lines.append(
                            f"| {framework} | {label} | {metric} "
                            f"| {sum(vals) / len(vals):.4f} |"
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
        for framework, members in sorted(by_fw.items()):
            per_transcript = []
            for t in members:
                allocs = list(t.final_allocations.values())
                if len(allocs) != 2:
                    continue
                joint, _note = default_joint_allocation(
                    allocs[0], allocs[1], t.cohort.capacity
                )
                per_transcript.append(emergence_deltas(t, joint))
            for metric in METRIC_NAMES:
                deltas = [d[metric].value for d in per_transcript]
                infeasible = sum(1 for d in per_transcript if not d[metric].joint_feasible)
                if deltas:
                    lines.append(
                        f"| {framework} | {metric} "
                        f"| {sum(deltas) / len(deltas):+.4f} | {infeasible} |"
                    )
        lines.append("")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote report to {out}")
    return EXIT_VERIFICATION if missing else EXIT_OK


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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, EnumerationBoundExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, TransportError) as exc:
        print(f"io/transport error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
