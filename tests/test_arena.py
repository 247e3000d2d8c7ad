from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import triage_arena
from triage_arena import arena as arena_mod
from triage_arena.agents import ReplayBackend, ScriptedBackend
from triage_arena.arena import (
    AgentSpec,
    DebateConfig,
    InteractionHistory,
    ParseError,
    build_prompt,
    default_joint_allocation,
    emergence_delta,
    emergence_deltas,
    _extract_justification,
    parse_allocation,
    render_allocation,
    render_reply,
    run_debate,
    transcript_from_json,
    transcript_to_json,
)
from triage_arena.cohortgen import generate_cohort
from triage_arena.metrics import METRIC_NAMES, metric_report
from triage_arena.model import (
    Allocation,
    Framework,
    ProfileKind,
    RESOURCE_NAMES,
    canonical_json,
    capacity_for_variant,
)
from triage_arena.agents import build_profile

from conftest import random_allocation


def scripted_pair(framework=Framework.RAWLSIAN, opponent="baseline"):
    profile_a, system_a = build_profile(ProfileKind.ALIGNED, framework)
    agent_a = AgentSpec(
        label="A",
        backend=ScriptedBackend("rawlsian" if framework is Framework.RAWLSIAN else "utilitarian"),
        profile=profile_a,
        system_text=system_a,
    )
    if opponent == "biased":
        from importlib import resources

        path = resources.files("triage_arena").joinpath("data/adversarial/biased_prompt.txt")
        profile_b, system_b = build_profile(ProfileKind.BIASED, adversarial_path=str(path))
        backend = ScriptedBackend("biased")
        label = "C"
    else:
        profile_b, system_b = build_profile(ProfileKind.BASELINE)
        backend = ScriptedBackend("utilitarian")
        label = "B"
    agent_b = AgentSpec(label=label, backend=backend, profile=profile_b, system_text=system_b)
    return agent_a, agent_b


# The row-by-row parser as it stood before it moved to findall and map,
# with a word boundary before the row label and non-finite rows ignored.
_REF_ROW_RE = re.compile(r"\b(?:patient|p)\s*(\d+)\s*[:\-]?\s*\[([^\]\n]*)\]", re.IGNORECASE)
_REF_NUM_RE = re.compile(r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def reference_parse_allocation(text, n, k=6):
    warnings = []
    rows = {}
    for match in _REF_ROW_RE.finditer(text):
        pid = int(match.group(1))
        values = [float(m.group(0)) for m in _REF_NUM_RE.finditer(match.group(2))]
        if len(values) != k:
            warnings.append(
                f"patient {pid}: expected {k} quantities, found {len(values)}; line ignored"
            )
            continue
        infinite = [j for j, v in enumerate(values) if not math.isfinite(v)]
        if infinite:
            j = infinite[0]
            warnings.append(
                f"patient {pid}: quantity {values[j]} for {RESOURCE_NAMES[j]} "
                f"is not finite; line ignored"
            )
            continue
        if pid < 1 or pid > n:
            warnings.append(f"patient id {pid} outside 1..{n}; line ignored")
            continue
        clamped = []
        for j, v in enumerate(values):
            if v < 0:
                warnings.append(
                    f"patient {pid}: negative quantity {v} for {RESOURCE_NAMES[j]} clamped to 0"
                )
                v = 0.0
            clamped.append(v)
        if pid in rows:
            warnings.append(f"duplicate line for patient {pid}; keeping the last one")
        rows[pid] = tuple(clamped)
    if not rows:
        raise ParseError("no recognizable patient allocation lines", text)
    for pid in range(1, n + 1):
        if pid not in rows:
            warnings.append(f"patient {pid} missing; defaulted to a zero row")
            rows[pid] = tuple(0.0 for _ in range(k))
    return Allocation(tuple(rows[pid] for pid in range(1, n + 1))), warnings


_QUANTITY = st.one_of(
    st.integers(min_value=-20, max_value=20).map(str),
    st.builds(lambda a, b: f"{a}.{b}", st.integers(-9, 9), st.integers(0, 999)),
    st.builds(
        lambda m, e: f"{m}e{e}",
        st.sampled_from(["1", "-1", "2.5", "+3", "-0"]),
        st.sampled_from(["0", "2", "-3", "+1", "400", "-400", "308", "309"]),
    ),
    st.sampled_from(["0", "-0", "+0", "0.0", "-0.0", "2e400", "-2e400", "9" * 400]),
)
_ROW_LINE = st.builds(
    lambda label, gap, pid, sep, values, comma: (
        f"{label}{gap}{pid}{sep}[{comma.join(values)}]"
    ),
    st.sampled_from(["Patient", "patient", "PATIENT", "pAtIeNt", "P", "p"]),
    st.sampled_from(["", " ", "  "]),
    st.integers(min_value=0, max_value=6),
    st.sampled_from([":", ": ", " - ", "-", "", " "]),
    st.one_of(
        st.lists(_QUANTITY, min_size=6, max_size=6),
        st.lists(_QUANTITY, min_size=0, max_size=8),
    ),
    st.sampled_from([", ", ",", " ", "; "]),
)
_JUNK_LINE = st.one_of(
    st.sampled_from([
        "Summary by group 2: [0, 1, 2, 3, 4, 5]",
        "Step 1: [9, 9, 9, 9, 9, 9]",
        "Total: [3, 2, 60, 50, 80, 3]",
        "Justification: patients first, p1 and P2 [noted].",
        "xP3: [1, 1, 1, 1, 1, 1]",
        "",
    ]),
    st.text(alphabet="Pp:[] ,.-+eE0123456789atienx", max_size=40),
)


class TestParser:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.one_of(_ROW_LINE, _ROW_LINE, _JUNK_LINE), max_size=10),
        st.integers(min_value=1, max_value=5),
    )
    def test_matches_the_row_by_row_reference(self, lines, n):
        text = "\n".join(lines)
        try:
            expected = reference_parse_allocation(text, n)
        except ParseError:
            with pytest.raises(ParseError):
                parse_allocation(text, n)
            return
        alloc, warnings = parse_allocation(text, n)
        assert repr(alloc.rows) == repr(expected[0].rows)  # -0.0 kept apart from 0.0
        assert warnings == expected[1]

    @pytest.mark.parametrize(
        "line", ["Summary by group 2: [0, 1, 2, 3, 4, 5]", "Step 1: [9, 9, 9, 9, 9, 9]"]
    )
    def test_label_inside_a_word_is_not_a_patient_row(self, line):
        text = "Patient 1: [0, 0, 1, 0, 1, 0]\nPatient 2: [1, 0, 0, 0, 1, 0]\n" + line
        alloc, warnings = parse_allocation(text, n=2)
        assert alloc.rows == ((0, 0, 1, 0, 1, 0), (1, 0, 0, 0, 1, 0))
        assert warnings == []
        with pytest.raises(ParseError):
            parse_allocation(line, n=2)

    def test_row_with_an_overflowing_quantity_ignored(self):
        text = "Patient 1: [0, 2e400, 0, 0, 0, 0]\nPatient 2: [1, 0, 0, 0, 0, 0]"
        alloc, warnings = parse_allocation(text, n=2)
        assert alloc.rows == ((0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))
        assert warnings == [
            "patient 1: quantity inf for Vent is not finite; line ignored",
            "patient 1 missing; defaulted to a zero row",
        ]
        assert all(map(math.isfinite, (v for row in alloc.rows for v in row)))
        with pytest.raises(ParseError):
            parse_allocation("Patient 1: [-1e999, 0, 0, 0, 0, 0]", n=1)

    def test_specific_row_extracted(self):
        text = (
            "Patient 1: [1, 0, 10, 0, 8, 1]\n"
            "Patient 3: [0,1,0,10,12,0]\n"
            "Patient 2: [0, 0, 5, 0, 4, 1]\n"
        )
        alloc, warnings = parse_allocation(text, n=3)
        assert alloc.rows[2] == (0, 1, 0, 10, 12, 0)

    def test_all_zero_rows_no_warnings(self):
        text = "\n".join(f"Patient {i}: [0, 0, 0, 0, 0, 0]" for i in range(1, 9))
        alloc, warnings = parse_allocation(text, n=8)
        assert alloc == Allocation.zeros(8)
        assert warnings == []

    def test_missing_patient_defaults_to_zero_with_warning(self):
        text = "Patient 1: [1, 0, 0, 0, 0, 0]\nPatient 3: [0, 0, 0, 0, 1, 0]"
        alloc, warnings = parse_allocation(text, n=3)
        assert alloc.rows[1] == (0, 0, 0, 0, 0, 0)
        assert any("patient 2 missing" in w for w in warnings)

    def test_duplicate_patient_last_wins_with_warning(self):
        text = "Patient 1: [1, 0, 0, 0, 0, 0]\nPatient 1: [0, 0, 0, 0, 0, 2]"
        alloc, warnings = parse_allocation(text, n=1)
        assert alloc.rows[0] == (0, 0, 0, 0, 0, 2)
        assert any("duplicate" in w for w in warnings)

    def test_negative_entries_clamped(self):
        alloc, warnings = parse_allocation("Patient 1: [-1, 0, 0, 0, 0, 3]", n=1)
        assert alloc.rows[0] == (0, 0, 0, 0, 0, 3)
        assert any("clamped" in w for w in warnings)

    def test_unparseable_text_raises(self):
        with pytest.raises(ParseError):
            parse_allocation("I allocate everything to everyone fairly.", n=8)

    def test_p_prefix_and_decimals_accepted(self):
        alloc, _ = parse_allocation("P2: [0.5, 0, 1.25, 0, 0, 0]", n=2)
        assert alloc.rows[1] == (0.5, 0, 1.25, 0, 0, 0)

    def test_out_of_range_patient_id_ignored(self):
        text = "Patient 1: [1,0,0,0,0,0]\nPatient 9: [1,1,1,1,1,1]"
        alloc, warnings = parse_allocation(text, n=2)
        assert any("outside" in w for w in warnings)

    def test_id_beyond_the_integer_string_limit_ignored(self):
        # int() refuses strings of more than 4,300 digits; such a row is out
        # of range, and only ParseError may leave the parser
        long_id = "Patient " + "1" * 5000 + ": [0, 0, 0, 0, 0, 0]"
        alloc, warnings = parse_allocation(long_id + "\nPatient 2: [0, 0, 0, 0, 0, 1]", n=2)
        assert alloc.rows == ((0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1))
        assert warnings == [
            "patient id 11111111... (5000 digits) outside 1..2; line ignored",
            "patient 1 missing; defaulted to a zero row",
        ]
        with pytest.raises(ParseError):
            parse_allocation(long_id, n=2)
        # leading zeros do not count towards the limit
        alloc, warnings = parse_allocation("P" + "0" * 5000 + "2: [0, 0, 0, 0, 0, 1]", n=2)
        assert alloc.rows[1] == (0, 0, 0, 0, 0, 1)
        assert warnings == ["patient 1 missing; defaulted to a zero row"]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_render_parse_round_trip(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(1, 12))
        alloc = random_allocation(rng, n=n, max_units=25)
        parsed, warnings = parse_allocation(render_allocation(alloc), n=n)
        assert parsed == alloc
        assert warnings == []

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda n: st.lists(
                st.tuples(*[st.floats(0, 1e6, allow_nan=False, allow_infinity=False)] * 6),
                min_size=n,
                max_size=n,
            )
        ),
        st.text(alphabet=st.characters(blacklist_characters="["), max_size=60),
    )
    def test_reply_render_parse_identity(self, rows, justification):
        """What render_reply writes, the parser and the justification
        extractor read back: the same allocation and the stripped text."""
        alloc = Allocation(tuple(rows))
        reply = render_reply(alloc, justification)
        assert ("\nJustification: " in reply) == bool(justification)
        assert parse_allocation(reply, n=alloc.n) == (alloc, [])
        assert _extract_justification(reply) == justification.strip()

    def test_totals_line_matches_column_totals(self):
        from triage_arena.model import column_totals

        rng = np.random.Generator(np.random.Philox(8)); alloc = random_allocation(rng)
        rendered = render_allocation(alloc)
        totals_line = rendered.splitlines()[-1]
        expected = "Total: [" + ", ".join(
            str(int(v)) if float(v).is_integer() else repr(float(v))
            for v in column_totals(alloc)
        ) + "]"
        assert totals_line == expected


def test_importing_arena_leaves_retrieval_unloaded():
    """The arena only annotates with the retrieval types, so importing it
    does not load the retrieval module."""
    script = (
        "import sys, triage_arena.arena\n"
        "print('retrieval loaded', 'triage_arena.retrieval' in sys.modules)\n"
    )
    src = str(Path(triage_arena.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["retrieval loaded False"]


class TestPrompts:
    def test_baseline_has_no_framework_preamble_and_no_excerpts(self, cohort):
        _, agent_b = scripted_pair()
        config = DebateConfig(framework="Rawlsian")
        prompt = build_prompt(agent_b, cohort, InteractionHistory(), None, 1, config)
        for fw in Framework:
            assert fw.value not in prompt
        assert "Reference excerpts" not in prompt

    def test_aligned_prompt_contains_k_retrieved_chunks(self, cohort):
        from triage_arena.retrieval import DocumentChunk, HashingEmbedder, index_corpus, retrieve

        agent_a, _ = scripted_pair()
        chunks = [
            DocumentChunk(doc_id=f"d{i}", page_hint=i, text=f"text number {i}", ordinal=0)
            for i in range(10)
        ]
        embedder = HashingEmbedder()
        index = index_corpus(chunks, embedder)
        result = retrieve(index, "text number", embedder)
        config = DebateConfig()
        prompt = build_prompt(agent_a, cohort, InteractionHistory(), result, 1, config)
        assert prompt.count("(doc: d") == 5

    def test_survival_rendered_as_label_only(self, sampler_config):
        # no raw survival numerals anywhere in 100 rendered prompts
        agent_a, agent_b = scripted_pair()
        config = DebateConfig()
        numeral = re.compile(r"\d+\.\d+|\d+%")
        for seed in range(100):
            cohort = generate_cohort(seed, sampler_config)
            for spec in (agent_a, agent_b):
                prompt = build_prompt(spec, cohort, InteractionHistory(), None, 1, config)
                assert not numeral.search(prompt), prompt
                for p in cohort.patients:
                    assert f"survival outlook: {p.survival_label}" in prompt


class TestRunDebate:
    def test_single_round_two_proposals(self, cohort):
        agent_a, agent_b = scripted_pair()
        transcript = run_debate(cohort, agent_a, agent_b, DebateConfig(rounds=1))
        assert len(transcript.history.proposals) == 2
        assert transcript.completed

    def test_three_rounds_six_proposals_finals_from_last_round(self, cohort):
        agent_a, agent_b = scripted_pair()
        transcript = run_debate(cohort, agent_a, agent_b, DebateConfig(rounds=3))
        assert len(transcript.history.proposals) == 2 * 3
        last_a = [p for p in transcript.history.proposals if p.agent == "A"][-1]
        assert transcript.final_allocations["A"] == last_a.allocation

    def test_transcripts_byte_identical_across_runs(self, cohort):
        agent_a, agent_b = scripted_pair()
        config = DebateConfig(rounds=3)
        t1 = run_debate(cohort, agent_a, agent_b, config)
        t2 = run_debate(cohort, agent_a, agent_b, config)
        assert canonical_json(transcript_to_json(t1)) == canonical_json(transcript_to_json(t2))
        assert t1.deterministic
        assert t1.timestamps is None

    def test_every_proposal_carries_feasibility(self, cohort):
        agent_a, agent_b = scripted_pair()
        transcript = run_debate(cohort, agent_a, agent_b, DebateConfig(rounds=2))
        for prop in transcript.history.proposals:
            assert prop.feasibility is not None

    def test_parse_failure_after_retries_marks_transcript(self, cohort):
        class Gibberish:
            name = "gibberish"
            deterministic = True

            def generate(self, prompt, cohort):
                return "no allocations here at all"

        agent_a, agent_b = scripted_pair()
        bad = AgentSpec(label="A", backend=Gibberish(), profile=agent_a.profile)
        transcript = run_debate(cohort, bad, agent_b, DebateConfig(rounds=2))
        assert not transcript.completed
        assert transcript.failed["agent"] == "A"
        assert transcript.failed["round"] == 1
        assert "no allocations" in transcript.failed["raw_text"]
        assert transcript.final_allocations == {}

    def test_parse_retry_recovers_once(self, cohort):
        class SecondTimeLucky:
            name = "flaky"
            deterministic = True

            def __init__(self):
                self.calls = 0

            def generate(self, prompt, cohort):
                self.calls += 1
                if self.calls % 2 == 1:
                    return "hmm let me think"
                return "\n".join(
                    f"Patient {i}: [0, 0, 1, 0, 1, 0]" for i in range(1, cohort.n + 1)
                )

        agent_a, agent_b = scripted_pair()
        flaky = AgentSpec(label="A", backend=SecondTimeLucky(), profile=agent_a.profile)
        transcript = run_debate(cohort, flaky, agent_b, DebateConfig(rounds=1))
        assert transcript.completed

    def test_repeated_reply_parsed_and_checked_once(self, cohort, monkeypatch):
        parsed, checked = [], []
        parse, validate = arena_mod.parse_allocation, arena_mod.validate_allocation
        monkeypatch.setattr(
            arena_mod, "parse_allocation", lambda text, n: parsed.append(text) or parse(text, n)
        )
        monkeypatch.setattr(
            arena_mod,
            "validate_allocation",
            lambda alloc, cap: checked.append(alloc) or validate(alloc, cap),
        )
        agent_a, agent_b = scripted_pair(opponent="biased")
        transcript = run_debate(cohort, agent_a, agent_b, DebateConfig(rounds=3))
        texts = [p.raw_text for p in transcript.history.proposals]
        assert len(texts) == 6 and len(set(texts)) == 2
        assert sorted(parsed) == sorted(set(texts))
        assert len(checked) == 2

    def test_unparseable_reply_is_retried_in_every_round(self, cohort):
        class OddCallsFail:
            name = "odd-calls-fail"
            deterministic = True

            def __init__(self):
                self.calls = 0

            def generate(self, prompt, cohort):
                self.calls += 1
                if self.calls % 2 == 1:
                    return "hmm let me think"
                return "\n".join(
                    f"Patient {i}: [0, 0, 1, 0, 1, 0]" for i in range(1, cohort.n + 1)
                )

        agent_a, agent_b = scripted_pair()
        backend = OddCallsFail()
        flaky = AgentSpec(label="A", backend=backend, profile=agent_a.profile)
        transcript = run_debate(cohort, flaky, agent_b, DebateConfig(rounds=3))
        assert transcript.completed
        assert backend.calls == 6
        a_props = [p for p in transcript.history.proposals if p.agent == "A"]
        assert len({p.raw_text for p in a_props}) == 1

    def test_infeasible_proposals_recorded_not_repaired(self, cohort):
        too_much = "\n".join(
            f"Patient {i}: [5, 5, 50, 50, 50, 5]" for i in range(1, cohort.n + 1)
        )
        backend = ReplayBackend([too_much], name="replay:over")
        agent_a, agent_b = scripted_pair()
        over = AgentSpec(label="A", backend=backend, profile=agent_a.profile)
        transcript = run_debate(cohort, over, agent_b, DebateConfig(rounds=1))
        prop = transcript.history.proposals[0]
        assert not prop.feasibility.feasible
        assert prop.allocation.rows[0][0] == 5  # stored as proposed

    def test_round_t_proposal_visible_to_opponent_same_round(self, cohort):
        seen_prompts = []

        class Recorder:
            name = "recorder"
            deterministic = True

            def generate(self, prompt, cohort):
                seen_prompts.append(prompt)
                return "\n".join(
                    f"Patient {i}: [0, 0, 0, 0, 1, 0]" for i in range(1, cohort.n + 1)
                )

        agent_a, agent_b = scripted_pair()
        recorder = AgentSpec(label=agent_b.label, backend=Recorder(), profile=agent_b.profile)
        run_debate(cohort, agent_a, recorder, DebateConfig(rounds=1))
        assert "Round 1, Agent A proposed" in seen_prompts[0]

    def test_a_speaks_first_in_every_round(self, cohort):
        agent_a, agent_b = scripted_pair()
        transcript = run_debate(cohort, agent_a, agent_b, DebateConfig(rounds=2))
        assert [(p.round, p.agent) for p in transcript.history.proposals] == [
            (1, "A"), (1, "B"), (2, "A"), (2, "B")
        ]
        assert transcript_to_json(transcript)["config"]["speaking_order"] == ["A", "opponent"]

    def test_retrieval_logs_recorded_per_call(self, cohort, monkeypatch):
        from triage_arena import retrieval
        from triage_arena.retrieval import (
            DocumentChunk,
            HashingEmbedder,
            index_corpus,
            retrieve,
        )

        monkeypatch.setattr(retrieval, "TOP_K", 4)

        chunks = [
            DocumentChunk(doc_id=f"d{i}", page_hint=i * 3, text=f"fair allocation {i}", ordinal=i)
            for i in range(8)
        ]
        embedder = HashingEmbedder()
        index = index_corpus(chunks, embedder)

        def retriever(framework, round_t):
            return retrieve(index, f"{framework} round {round_t}", embedder)

        for opponent in ("baseline", "biased"):
            agent_a, agent_b = scripted_pair(opponent=opponent)
            transcript = run_debate(
                cohort, agent_a, agent_b, DebateConfig(rounds=2), retriever=retriever
            )
            logs = transcript.history.retrieval_logs
            # one per round for the aligned agent; an opponent names no framework
            assert [(log["agent"], log["round"]) for log in logs] == [("A", 1), ("A", 2)]
            for log in logs:
                assert log["k"] == 4
                assert len(log["pages"]) == 4
                assert "Rawlsian" in log["query"]

    def test_transcript_json_round_trip(self, cohort):
        agent_a, agent_b = scripted_pair()
        transcript = run_debate(cohort, agent_a, agent_b, DebateConfig(rounds=2))
        obj = transcript_to_json(transcript)
        restored = transcript_from_json(obj)
        assert canonical_json(transcript_to_json(restored)) == canonical_json(obj)


class TestPromptSkip:
    # sha256 of the six prompts a prompt-reading backend receives in a
    # Rawlsian vs biased debate over the conftest cohort, in speaking order
    PROMPT_SHA256 = (
        "132aa11c0365e6030fb3b4a3c3d340b880b23a2286ecf17640eb93772288127c",
        "7d362672cc6a0eefe9138c8b3d7a4a029bf41d95dc3b2e3eb6897dde5fbd171a",
        "2f9a899ae490ac07fdf6199e3923310825dfe4478006dca84d1aba639a7fbf49",
        "2e8afa91261d849a9e67dce991def8609cd5c53a9fad3b0f05c9b374d49f3363",
        "744a537cb61cef0d96e3bc492eaa7d9029dcb6e17c9f9c339fd9025d843abf40",
        "34c872d26b944c79084ad44e5fa3c4ed75376d64bbf5c9a959ff60896d994f18",
    )

    @staticmethod
    def _forbid_prompts(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build_prompt called for a backend that ignores prompts")

        monkeypatch.setattr(arena_mod, "build_prompt", refuse)

    def test_scripted_debate_renders_no_prompt(self, cohort, monkeypatch):
        agent_a, agent_b = scripted_pair(opponent="biased")
        config = DebateConfig(rounds=3)
        expected = canonical_json(transcript_to_json(run_debate(cohort, agent_a, agent_b, config)))
        self._forbid_prompts(monkeypatch)
        transcript = run_debate(cohort, agent_a, agent_b, config)
        assert transcript.completed and len(transcript.history.proposals) == 6
        assert canonical_json(transcript_to_json(transcript)) == expected

    def test_replay_run_renders_no_prompt(self, tmp_path, monkeypatch):
        from triage_arena.cli import main

        self._forbid_prompts(monkeypatch)
        out = tmp_path / "replay"
        assert main(["run", "--backend", "replay", "--framework", "Utilitarian", "--out", str(out)]) == 0
        (path,) = out.glob("transcript_*.json")
        transcript = transcript_from_json(json.loads(path.read_text()))
        assert transcript.completed and len(transcript.history.proposals) == 6

    def test_prompt_reading_backend_gets_the_full_prompts(self, cohort):
        seen = []

        class Recording:
            """Scripted text, but no reads_prompt attribute: the default applies."""

            deterministic = True

            def __init__(self, strategy):
                self.inner = ScriptedBackend(strategy)
                self.name = self.inner.name

            def generate(self, prompt, cohort):
                seen.append(prompt)
                return self.inner.generate(prompt, cohort)

        agent_a, agent_b = scripted_pair(opponent="biased")
        agent_a = replace(agent_a, backend=Recording("rawlsian"))
        agent_b = replace(agent_b, backend=Recording("biased"))
        config = DebateConfig(rounds=3, framework="Rawlsian", opponent_kind="Biased")
        run_debate(cohort, agent_a, agent_b, config)
        digests = tuple(hashlib.sha256(p.encode("utf-8")).hexdigest() for p in seen)
        assert digests == self.PROMPT_SHA256

    def test_scripted_and_replay_backends_declare_they_ignore_prompts(self):
        from triage_arena.agents import ChatBackend, ReplayBackend

        assert ScriptedBackend.reads_prompt is False
        assert ReplayBackend.reads_prompt is False
        assert getattr(ChatBackend, "reads_prompt", True) is True


def reference_build_prompt(spec, cohort, history, retrieved, round_t, config):
    """build_prompt as it was when each prompt rendered the cohort and
    every earlier proposal again."""

    def quantity(v):
        return str(int(v)) if v.is_integer() else repr(v)

    parts = [spec.system_text.strip()] if spec.system_text else []
    parts.append(
        f"You are Agent {spec.label} in round {round_t} of {config.rounds} of a "
        f"structured negotiation over scarce hospital resources. Propose a "
        f"complete allocation for all {cohort.n} patients."
    )
    cap = cohort.capacity
    cap_line = ", ".join(f"{name}: {quantity(s)}" for name, s in zip(RESOURCE_NAMES, cap.supply))
    parts.append(f"Available capacity ({cap.variant}): {cap_line}")
    patients = []
    for p in cohort.patients:
        needs = ", ".join(r.label for r in sorted(p.needs))
        patients.append(
            f"Patient {p.id}: age {p.age}; gender {p.gender}; race {p.race}; "
            f"SES {p.ses}; citizenship {p.citizenship}; condition {p.condition}; "
            f"needs {needs}; survival outlook: {p.survival_label}; "
            f"occupation {p.occupation}; family {p.family_status}"
        )
    parts.append("Patients:\n" + "\n".join(patients))
    if retrieved is not None:
        parts.append("Reference excerpts:\n" + "\n\n".join(
            f"[{i + 1}] (doc: {chunk.doc_id}, page {chunk.page_hint}) {chunk.text}"
            for i, (chunk, _score) in enumerate(retrieved.chunks)
        ))
    if history.proposals:
        parts.append("Debate so far:\n" + "\n\n".join(
            f"Round {prop.round}, Agent {prop.agent} proposed:\n"
            + render_reply(prop.allocation, prop.justification)
            for prop in history.proposals
        ))
    parts.append(arena_mod._FORMAT_INSTRUCTION)
    return "\n\n".join(parts)


class TestPromptParts:
    def test_prompts_match_the_full_rendering_of_every_part(self, cohort, monkeypatch):
        from triage_arena.retrieval import DocumentChunk, HashingEmbedder, index_corpus, retrieve

        embedder = HashingEmbedder()
        index = index_corpus(
            [DocumentChunk(doc_id=f"d{i}", page_hint=i, text=f"equal concern {i} " * (i + 1), ordinal=0) for i in range(8)],
            embedder,
        )

        def retriever(framework, round_t):
            return retrieve(index, f"{framework} round {round_t}", embedder)

        seen = []

        class Recording:
            """Scripted replies to recorded prompts; agent A's second reply
            is prose, which the arena asks again for."""

            deterministic = True
            reads_prompt = True

            def __init__(self, strategy, prose_at=None):
                self.inner, self.prose_at, self.calls = ScriptedBackend(strategy), prose_at, 0
                self.name = self.inner.name

            def generate(self, prompt, cohort):
                seen.append(prompt)
                self.calls += 1
                if self.calls == self.prose_at:
                    return "I need more time to weigh these patients."
                return self.inner.generate(prompt, cohort)

        renders = {"reply": 0, "patient": 0}

        def counted(name, fn):
            def call(*args):
                renders[name] += 1
                return fn(*args)

            return call

        monkeypatch.setattr(arena_mod, "render_reply", counted("reply", arena_mod.render_reply))
        monkeypatch.setattr(arena_mod, "_render_patient", counted("patient", arena_mod._render_patient))
        agent_a, agent_b = scripted_pair()
        agent_a = replace(agent_a, backend=Recording("rawlsian", prose_at=2))
        agent_b = replace(agent_b, backend=Recording("utilitarian"))
        config = DebateConfig(rounds=3, framework="Rawlsian")
        transcript = run_debate(cohort, agent_a, agent_b, config, retriever=retriever)
        assert transcript.completed
        proposals = transcript.history.proposals
        want = []
        for turn, spec in enumerate([agent_a, agent_b] * config.rounds):
            round_t = turn // 2 + 1
            retrieved = retriever("Rawlsian", round_t) if spec is agent_a else None
            history = InteractionHistory(proposals=proposals[:turn])
            want.append(reference_build_prompt(spec, cohort, history, retrieved, round_t, config))
            if turn == 2:  # agent A in round 2: the parse-retry prompt follows
                want.append(want[-1] + "\n\nYour previous reply could not be parsed. " + arena_mod._FORMAT_INSTRUCTION)
        assert seen == want
        # 0 + 1 + ... + 5 blocks over the six turns' prompts, and 2 in the
        # retry prompt, but each of the five shown rendered once
        assert sum(prompt.count(" proposed:\n") for prompt in seen) == 15 + 2
        assert renders == {"reply": len(proposals) - 1, "patient": cohort.n}


class TestJointAndEmergence:
    @staticmethod
    def hand_deltas(cohort, joint, finals):
        """The joint-minus-mean gap by the hand formula, over single
        metric_report calls: negated where lower is better."""
        deltas = {}
        for metric in METRIC_NAMES:
            m_joint = metric_report(cohort, joint).value(metric)
            m_finals = [metric_report(cohort, alloc).value(metric) for alloc in finals]
            expected = m_joint - sum(m_finals) / len(m_finals)
            deltas[metric] = -expected if metric in ("variance", "gini") else expected
        return deltas

    def test_equal_finals_give_zero_delta(self, cohort):
        agent_a, agent_b = scripted_pair()
        shared = "\n".join(
            f"Patient {i}: [0, 0, 2, 0, 2, 0]" for i in range(1, cohort.n + 1)
        )
        spec_a = AgentSpec(label="A", backend=ReplayBackend([shared]), profile=agent_a.profile)
        spec_b = AgentSpec(label="B", backend=ReplayBackend([shared]), profile=agent_b.profile)
        transcript = run_debate(cohort, spec_a, spec_b, DebateConfig(rounds=1))
        joint, note = default_joint_allocation(
            transcript.final_allocations["A"],
            transcript.final_allocations["B"],
            cohort.capacity,
        )
        assert "converged" in note
        deltas = emergence_deltas(
            metric_report(cohort, joint), transcript.final_reports.values()
        )
        for metric in METRIC_NAMES:
            assert deltas[metric] == pytest.approx(0.0, abs=1e-12)

    def test_mean_joint_rescaled_to_capacity(self):
        cap = capacity_for_variant("tight")
        a_rows = [[0.0] * 6 for _ in range(8)]
        b_rows = [[0.0] * 6 for _ in range(8)]
        a_rows[0][2] = 50.0   # MedA over the 45 cap
        b_rows[1][2] = 50.0
        joint, note = default_joint_allocation(
            Allocation(tuple(map(tuple, a_rows))),
            Allocation(tuple(map(tuple, b_rows))),
            cap,
        )
        from triage_arena.model import column_totals, validate_allocation

        assert validate_allocation(joint, cap).feasible
        assert "rescaled" in note
        assert column_totals(joint)[2] == pytest.approx(45.0)

    def test_hand_formula_on_random_instances(self, cohort):
        rng = np.random.Generator(np.random.Philox(10))
        agent_a, agent_b = scripted_pair()
        transcript = run_debate(cohort, agent_a, agent_b, DebateConfig(rounds=1))
        finals = list(transcript.final_allocations.values())
        for _ in range(10):
            joint = random_allocation(rng, n=cohort.n)
            deltas = emergence_deltas(
                metric_report(cohort, joint), transcript.final_reports.values()
            )
            expected = self.hand_deltas(cohort, joint, finals)
            assert list(deltas) == list(METRIC_NAMES)
            assert deltas == pytest.approx(expected, abs=1e-12)

    def test_infeasible_joint_flagged(self, cohort):
        # an infeasible joint is scored all the same; its own report says so
        agent_a, agent_b = scripted_pair()
        transcript = run_debate(cohort, agent_a, agent_b, DebateConfig(rounds=1))
        huge = Allocation(tuple(tuple(99.0 for _ in range(6)) for _ in range(cohort.n)))
        joint_report = metric_report(cohort, huge)
        assert not joint_report.feasible
        deltas = emergence_deltas(joint_report, transcript.final_reports.values())
        expected = self.hand_deltas(cohort, huge, transcript.final_allocations.values())
        assert deltas == pytest.approx(expected, abs=1e-12)

    def test_single_metric_delta_matches_the_full_set(self, cohort):
        agent_a, agent_b = scripted_pair()
        transcript = run_debate(cohort, agent_a, agent_b, DebateConfig(rounds=1))
        joint, _note = default_joint_allocation(
            transcript.final_allocations["A"],
            transcript.final_allocations["B"],
            cohort.capacity,
        )
        deltas = emergence_deltas(
            metric_report(cohort, joint), transcript.final_reports.values()
        )
        for metric in METRIC_NAMES:
            delta = emergence_delta(metric, transcript, joint)
            assert type(delta) is float
            assert delta == deltas[metric]
        with pytest.raises(ValueError, match="unknown metric"):
            emergence_delta("nope", transcript, joint)
