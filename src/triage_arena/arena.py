"""The debate state machine.

Two agents alternate over T rounds; each round an agent sees the cohort,
the full history so far (including the other agent's proposal from the
current round, if already made), optional retrieved reference excerpts,
and a strict output-format instruction. Proposals are parsed into
allocation matrices and appended to an append-only history. Infeasible
proposals are recorded with their verdicts, never repaired or bounced
back to the agent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from math import isfinite
from typing import TYPE_CHECKING

from .metrics import METRIC_DIRECTIONS, MetricReport, metric_reports
from .model import (
    AgentProfile,
    Allocation,
    Cohort,
    FeasibilityResult,
    ProfileKind,
    RESOURCE_NAMES,
    ResourceCapacity,
    _IS_NEGATIVE,
    column_totals,
    validate_allocation,
)

if TYPE_CHECKING:
    from .retrieval import RetrievalResult

__all__ = [
    "ParseError",
    "parse_allocation",
    "render_allocation",
    "render_reply",
    "Proposal",
    "InteractionHistory",
    "DebateConfig",
    "DebateTranscript",
    "AgentSpec",
    "agent_label",
    "build_prompt",
    "run_debate",
    "default_joint_allocation",
    "EmergenceDelta",
    "emergence_deltas",
    "emergence_delta",
    "transcript_to_json",
    "transcript_from_json",
]


class ParseError(ValueError):
    def __init__(self, message: str, raw_text: str):
        super().__init__(message)
        self.raw_text = raw_text


def _format_quantity(v: float) -> str:
    return str(int(v)) if v.is_integer() else repr(v)


def render_allocation(alloc: Allocation) -> str:
    """Canonical one-line-per-patient rendering plus a totals line."""
    lines = [
        f"Patient {i}: [{', '.join(map(_format_quantity, row))}]"
        for i, row in enumerate(alloc.rows, 1)
    ]
    lines.append(f"Total: [{', '.join(map(_format_quantity, column_totals(alloc)))}]")
    return "\n".join(lines)


_ROW_RE = re.compile(r"\b(?:patient|p)\s*(\d+)\s*[:\-]?\s*\[([^\]\n]*)\]", re.IGNORECASE)
_NUM_RE = re.compile(r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def parse_allocation(text: str, n: int) -> tuple[Allocation, list[str]]:
    """Extract per-patient resource vectors from free-form agent text.

    Accepts integers and decimals, rows in any order, and "P3" as well as
    "Patient 3". Missing patients become zero rows with a warning;
    duplicate rows keep the last occurrence with a warning; negative
    entries are clamped to zero with a warning; a row with the wrong
    number of quantities, or with one too large to be finite, is ignored
    with a warning. Raises ParseError when no recognizable patient vector
    is found.
    """
    warnings: list[str] = []
    rows: dict[int, tuple[float, ...]] = {}
    for pid_text, body in _ROW_RE.findall(text):
        digits = pid_text.lstrip("0") or "0"
        try:
            pid = int(digits)
        except ValueError:  # longer than the interpreter's integer-string limit
            warnings.append(
                f"patient id {digits[:8]}... ({len(digits)} digits) outside 1..{n}; "
                f"line ignored"
            )
            continue
        values = list(map(float, _NUM_RE.findall(body)))
        if len(values) != len(RESOURCE_NAMES):
            warnings.append(
                f"patient {pid}: expected {len(RESOURCE_NAMES)} quantities, "
                f"found {len(values)}; line ignored"
            )
            continue
        if not all(map(isfinite, values)):
            j = next(j for j, v in enumerate(values) if not isfinite(v))
            warnings.append(
                f"patient {pid}: quantity {values[j]} for {RESOURCE_NAMES[j]} "
                f"is not finite; line ignored"
            )
            continue
        if pid < 1 or pid > n:
            warnings.append(f"patient id {pid} outside 1..{n}; line ignored")
            continue
        if any(map(_IS_NEGATIVE, values)):
            for j, v in enumerate(values):
                if v < 0:
                    warnings.append(
                        f"patient {pid}: negative quantity {v} for {RESOURCE_NAMES[j]} clamped to 0"
                    )
                    values[j] = 0.0
        if pid in rows:
            warnings.append(f"duplicate line for patient {pid}; keeping the last one")
        rows[pid] = tuple(values)
    if not rows:
        raise ParseError("no recognizable patient allocation lines", text)
    zero_row = (0.0,) * len(RESOURCE_NAMES)
    for pid in range(1, n + 1):
        if pid not in rows:
            warnings.append(f"patient {pid} missing; defaulted to a zero row")
            rows[pid] = zero_row
    alloc = Allocation(tuple(rows[pid] for pid in range(1, n + 1)))
    return alloc, warnings


@dataclass(frozen=True)
class Proposal:
    agent: str
    round: int
    allocation: Allocation
    justification: str
    parse_warnings: tuple[str, ...] = ()
    feasibility: FeasibilityResult | None = None
    raw_text: str = ""

    def to_json(self) -> dict:
        return {
            "agent": self.agent,
            "round": self.round,
            "allocation": self.allocation.to_json(),
            "justification": self.justification,
            "parse_warnings": list(self.parse_warnings),
            "feasibility": self.feasibility.to_json() if self.feasibility else None,
            "raw_text": self.raw_text,
        }


@dataclass(frozen=True)
class InteractionHistory:
    """Append-only record of proposals and retrieval activity."""

    proposals: tuple[Proposal, ...] = ()
    retrieval_logs: tuple[dict, ...] = ()

    def with_proposal(self, proposal: Proposal) -> "InteractionHistory":
        return replace(self, proposals=self.proposals + (proposal,))

    def with_retrieval(self, log: dict) -> "InteractionHistory":
        return replace(self, retrieval_logs=self.retrieval_logs + (log,))


# The fixed protocol: agent A speaks first in every round, and a reply
# that does not parse is retried once with a format reminder.
SPEAKING_ORDER = ("A", "opponent")
MAX_PARSE_RETRIES = 1


@dataclass(frozen=True)
class DebateConfig:
    rounds: int = 3
    framework: str = "Utilitarian"
    opponent_kind: str = "Baseline"

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")

    def to_json(self) -> dict:
        return {
            "rounds": self.rounds,
            "speaking_order": list(SPEAKING_ORDER),
            "max_parse_retries": MAX_PARSE_RETRIES,
            "framework": self.framework,
            "opponent_kind": self.opponent_kind,
        }


@dataclass(frozen=True)
class AgentSpec:
    label: str
    # anything with .name, .deterministic and .generate(prompt, cohort); a
    # backend whose class sets reads_prompt = False gets "" instead of a
    # rendered prompt
    backend: object
    profile: AgentProfile
    system_text: str = ""


def agent_label(profile: AgentProfile) -> str:
    if profile.kind is ProfileKind.ALIGNED:
        return "A"
    if profile.kind is ProfileKind.BASELINE:
        return "B"
    return "C"


@dataclass(frozen=True)
class DebateTranscript:
    cohort: Cohort
    config: DebateConfig
    history: InteractionHistory
    final_allocations: dict
    final_reports: dict
    backend_ids: dict
    deterministic: bool
    timestamps: dict | None = None
    failed: dict | None = None

    @property
    def completed(self) -> bool:
        return self.failed is None


def _render_patient(p) -> str:
    needs = ", ".join(r.label for r in sorted(p.needs))
    return (
        f"Patient {p.id}: age {p.age}; gender {p.gender}; race {p.race}; "
        f"SES {p.ses}; citizenship {p.citizenship}; condition {p.condition}; "
        f"needs {needs}; survival outlook: {p.survival_label}; "
        f"occupation {p.occupation}; family {p.family_status}"
    )


_FORMAT_INSTRUCTION = (
    "Respond with one line per patient, exactly in this format:\n"
    "Patient i: [ICU, Vent, MedA, MedB, Nursing, Surgery]\n"
    "using nonnegative quantities whose per-resource totals respect the "
    "stated capacity. After the allocation lines, add one short paragraph "
    "beginning with 'Justification:' explaining your reasoning."
)


def build_prompt(
    spec: AgentSpec,
    cohort: Cohort,
    history: InteractionHistory,
    retrieved: RetrievalResult | None,
    round_t: int,
    config: DebateConfig,
) -> str:
    """Deterministic prompt: profile conditioning, cohort (survival shown
    only as its label), retrieved excerpts when enabled, and the full
    history so far."""
    parts = []
    if spec.system_text:
        parts.append(spec.system_text.strip())
    cap = cohort.capacity
    cap_line = ", ".join(
        f"{name}: {_format_quantity(supply)}"
        for name, supply in zip(RESOURCE_NAMES, cap.supply)
    )
    parts.append(
        f"You are Agent {spec.label} in round {round_t} of {config.rounds} of a "
        f"structured negotiation over scarce hospital resources. Propose a "
        f"complete allocation for all {cohort.n} patients."
    )
    parts.append(f"Available capacity ({cap.variant}): {cap_line}")
    parts.append("Patients:\n" + "\n".join(_render_patient(p) for p in cohort.patients))
    if retrieved is not None:
        excerpts = "\n\n".join(
            f"[{i + 1}] (doc: {chunk.doc_id}, page {chunk.page_hint}) {chunk.text}"
            for i, (chunk, _score) in enumerate(retrieved.chunks)
        )
        parts.append("Reference excerpts:\n" + excerpts)
    if history.proposals:
        blocks = [
            f"Round {prop.round}, Agent {prop.agent} proposed:\n"
            + render_reply(prop.allocation, prop.justification)
            for prop in history.proposals
        ]
        parts.append("Debate so far:\n" + "\n\n".join(blocks))
    parts.append(_FORMAT_INSTRUCTION)
    return "\n\n".join(parts)


def render_reply(alloc: Allocation, justification: str) -> str:
    """A reply in the format the prompt asks for: the rendered allocation,
    then a Justification line when there is one to give."""
    text = render_allocation(alloc)
    return f"{text}\nJustification: {justification}" if justification else text


_JUSTIFICATION_RE = re.compile(r"justification\s*:\s*(.*)", re.IGNORECASE | re.DOTALL)


def _extract_justification(text: str) -> str:
    match = _JUSTIFICATION_RE.search(text)
    return match.group(1).strip() if match else ""


def run_debate(
    cohort: Cohort,
    agent_a: AgentSpec,
    agent_b: AgentSpec,
    config: DebateConfig,
    retriever=None,
) -> DebateTranscript:
    """Run a full debate and return its transcript.

    retriever, when given, is called as retriever(framework, round) and
    must return a RetrievalResult; it is only consulted for profiles with
    retrieval enabled. A speaks first in every round. Parse failures are
    retried with a format reminder up to MAX_PARSE_RETRIES times, then
    recorded as a failed transcript with the raw text preserved. A reply
    text seen before in the debate reuses its parse and feasibility
    verdict.
    """
    history = InteractionHistory()
    failed = None
    order = (agent_a, agent_b)
    # reply text -> (allocation, parse warnings, feasibility): a text the
    # agents repeat is parsed and checked once; one that fails to parse
    # is never stored, so it is retried every time
    parsed: dict[str, tuple[Allocation, tuple[str, ...], FeasibilityResult]] = {}
    for round_t in range(1, config.rounds + 1):
        for spec in order:
            retrieved = None
            if spec.profile.retrieval_enabled and retriever is not None:
                framework = (
                    spec.profile.framework.value if spec.profile.framework else ""
                )
                retrieved = retriever(framework, round_t)
                history = history.with_retrieval(
                    {"agent": spec.label, "round": round_t, **retrieved.to_json()}
                )
            prompt = ""
            if getattr(spec.backend, "reads_prompt", True):
                prompt = build_prompt(spec, cohort, history, retrieved, round_t, config)
            text = spec.backend.generate(prompt, cohort)
            checked = None
            for attempt in range(MAX_PARSE_RETRIES + 1):
                checked = parsed.get(text)
                if checked is not None:
                    break
                try:
                    alloc, warnings = parse_allocation(text, cohort.n)
                except ParseError:
                    if attempt < MAX_PARSE_RETRIES:
                        reminder = (
                            prompt
                            + "\n\nYour previous reply could not be parsed. "
                            + _FORMAT_INSTRUCTION
                        )
                        text = spec.backend.generate(reminder, cohort)
                    continue
                checked = parsed[text] = (
                    alloc,
                    tuple(warnings),
                    validate_allocation(alloc, cohort.capacity),
                )
                break
            if checked is None:
                failed = {"agent": spec.label, "round": round_t, "raw_text": text}
                break
            alloc, warnings, feasibility = checked
            proposal = Proposal(
                agent=spec.label,
                round=round_t,
                allocation=alloc,
                justification=_extract_justification(text),
                parse_warnings=warnings,
                feasibility=feasibility,
                raw_text=text,
            )
            history = history.with_proposal(proposal)
        if failed:
            break

    final_allocations: dict = {}
    final_reports: dict = {}
    if failed is None:
        for spec in order:
            final = next(
                p
                for p in reversed(history.proposals)
                if p.agent == spec.label and p.round == config.rounds
            )
            final_allocations[spec.label] = final.allocation
        reports = metric_reports(cohort, final_allocations.values())
        final_reports = dict(zip(final_allocations, reports))
    deterministic = bool(
        getattr(agent_a.backend, "deterministic", False)
        and getattr(agent_b.backend, "deterministic", False)
    )
    timestamps = None
    if not deterministic:
        import datetime

        timestamps = {"completed_at": datetime.datetime.now(datetime.timezone.utc).isoformat()}
    return DebateTranscript(
        cohort=cohort,
        config=config,
        history=history,
        final_allocations=final_allocations,
        final_reports=final_reports,
        backend_ids={
            agent_a.label: getattr(agent_a.backend, "name", "unknown"),
            agent_b.label: getattr(agent_b.backend, "name", "unknown"),
        },
        deterministic=deterministic,
        timestamps=timestamps,
        failed=failed,
    )


def default_joint_allocation(
    a: Allocation, b: Allocation, capacity: ResourceCapacity
) -> tuple[Allocation, str]:
    """The harness's joint-outcome construction, an interpretation choice.

    If the two finals agree within 1e-9 the joint is that allocation.
    Otherwise it is the elementwise mean, rescaled per resource where the
    mean overshoots capacity. The note describing which rule applied is
    recorded in every report that uses the joint.
    """
    if a.n != b.n or a.k != b.k:
        raise ValueError("final allocations have mismatched shapes")
    diff = max(
        abs(x - y) for row_a, row_b in zip(a.rows, b.rows) for x, y in zip(row_a, row_b)
    )
    if diff <= 1e-9:
        return a, "joint = shared final allocation (agents converged)"
    mean_rows = [
        [(x + y) / 2 for x, y in zip(row_a, row_b)] for row_a, row_b in zip(a.rows, b.rows)
    ]
    totals = [sum(row[j] for row in mean_rows) for j in range(a.k)]
    rescaled = []
    for j, (total, supply) in enumerate(zip(totals, capacity.supply)):
        if total > supply + 1e-9:
            factor = supply / total
            for row in mean_rows:
                row[j] *= factor
            rescaled.append(RESOURCE_NAMES[j])
    note = "joint = elementwise mean of the two finals"
    if rescaled:
        note += f", rescaled to capacity on {', '.join(rescaled)}"
    return Allocation(tuple(tuple(row) for row in mean_rows)), note


@dataclass(frozen=True)
class EmergenceDelta:
    metric: str
    value: float
    joint_feasible: bool
    note: str = ""


def emergence_deltas(
    transcript: DebateTranscript, joint: Allocation
) -> dict[str, EmergenceDelta]:
    """Joint-minus-mean gap for every metric, sign-adjusted by direction.

    Positive values always mean the joint allocation improves on the
    average of the two individual finals. An infeasible joint is still
    scored, but flagged. Three metric reports serve all six metrics.
    """
    if len(transcript.final_allocations) != 2:
        raise ValueError("transcript does not carry two final allocations")
    cohort = transcript.cohort
    joint_report, *final_reports = metric_reports(
        cohort, [joint, *transcript.final_allocations.values()]
    )
    note = "" if joint_report.feasible else "joint allocation is infeasible"
    deltas = {}
    for metric, direction in METRIC_DIRECTIONS.items():
        finals = [report.value(metric) for report in final_reports]
        raw = joint_report.value(metric) - sum(finals) / len(finals)
        deltas[metric] = EmergenceDelta(
            metric=metric,
            value=raw if direction == "higher" else -raw,
            joint_feasible=joint_report.feasible,
            note=note,
        )
    return deltas


def emergence_delta(
    metric: str, transcript: DebateTranscript, joint: Allocation
) -> EmergenceDelta:
    """The emergence delta of a single metric; see emergence_deltas."""
    if metric not in METRIC_DIRECTIONS:
        raise ValueError(f"unknown metric {metric!r}")
    return emergence_deltas(transcript, joint)[metric]


def transcript_to_json(transcript: DebateTranscript) -> dict:
    return {
        "schema_version": 1,
        "kind": "transcript",
        "cohort": transcript.cohort.to_json(),
        "config": transcript.config.to_json(),
        "proposals": [p.to_json() for p in transcript.history.proposals],
        "retrieval_logs": list(transcript.history.retrieval_logs),
        "final_allocations": {
            label: alloc.to_json()
            for label, alloc in transcript.final_allocations.items()
        },
        "final_reports": {
            label: report.to_json()
            for label, report in transcript.final_reports.items()
        },
        "backend_ids": dict(transcript.backend_ids),
        "deterministic": transcript.deterministic,
        "timestamps": transcript.timestamps,
        "failed": transcript.failed,
    }


def transcript_from_json(obj: dict) -> DebateTranscript:
    """Rebuild a transcript; ValueError if its config records a speaking
    order or parse-retry count other than the fixed protocol's."""
    cohort = Cohort.from_json(obj["cohort"])
    stored = obj["config"]
    protocol = (stored["speaking_order"], stored["max_parse_retries"])
    if protocol != (list(SPEAKING_ORDER), MAX_PARSE_RETRIES):
        raise ValueError(
            f"speaking order and parse retries {protocol!r} are not the fixed "
            f"protocol {(list(SPEAKING_ORDER), MAX_PARSE_RETRIES)!r}"
        )
    config = DebateConfig(
        rounds=stored["rounds"],
        framework=stored["framework"],
        opponent_kind=stored["opponent_kind"],
    )
    proposals = tuple(
        Proposal(
            agent=p["agent"],
            round=p["round"],
            allocation=Allocation.from_json(p["allocation"]),
            justification=p["justification"],
            parse_warnings=tuple(p["parse_warnings"]),
            feasibility=None
            if p["feasibility"] is None
            else FeasibilityResult(
                feasible=p["feasibility"]["feasible"],
                totals=tuple(p["feasibility"]["totals"]),
                violations=tuple(
                    (name, amt) for name, amt in p["feasibility"]["violations"]
                ),
            ),
            raw_text=p.get("raw_text", ""),
        )
        for p in obj["proposals"]
    )
    return DebateTranscript(
        cohort=cohort,
        config=config,
        history=InteractionHistory(
            proposals=proposals, retrieval_logs=tuple(obj.get("retrieval_logs", []))
        ),
        final_allocations={
            label: Allocation.from_json(rows)
            for label, rows in obj["final_allocations"].items()
        },
        final_reports={
            label: MetricReport.from_json(rep) for label, rep in obj["final_reports"].items()
        },
        backend_ids=dict(obj["backend_ids"]),
        deterministic=obj["deterministic"],
        timestamps=obj.get("timestamps"),
        failed=obj.get("failed"),
    )
