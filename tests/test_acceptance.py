"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line when its
assertions hold (run with -v and -s to see criterion-by-criterion
output). Expected values come from independent in-file oracles: naive
scalar loops for the metrics, a sign-pattern enumerator for the
signed-rank test, and literal brute-force scans for retrieval.

Criterion 4a certifies the verifier's refutation of cake claim (a), that
the aggregate-welfare argmax on the cake grid is exactly the
all-to-first-person corner. That claim is mathematically unattainable
for every valid parameterization of the stated utility family: the
second recipient's strictly concave share utility makes a small
transfer profitable, and the whole-cake corner for that recipient ties
the first corner exactly. So 4a checks that the verifier reports the
claim as failed, with a grid witness whose value, recomputed in-file,
beats the corner.
"""

from __future__ import annotations

import itertools
import json
import re
import time
from importlib import resources

import numpy as np
import pytest

from triage_arena import retrieval
from triage_arena.agents import ReplayBackend, ScriptedBackend, build_profile
from triage_arena.arena import (
    AgentSpec,
    DebateConfig,
    InteractionHistory,
    build_prompt,
    parse_allocation,
    render_allocation,
    run_debate,
)
from triage_arena.cohortgen import SamplerConfig, generate_cohort
from triage_arena.metrics import METRIC_NAMES, metric_report
from triage_arena.model import (
    Allocation,
    Framework,
    ProfileKind,
    canonical_json,
    capacity_for_variant,
    column_totals,
    discretize_survival,
    validate_allocation,
)
from triage_arena.oracle import CakeParams, verify_cake_claims
from triage_arena.persistence import load_reference_fixtures
from triage_arena.retrieval import (
    DocumentChunk,
    HashingEmbedder,
    chunk_document,
    index_corpus,
    retrieve,
)
from triage_arena.stats import bootstrap_ci, wilcoxon_signed_rank

from conftest import random_allocation


def _announce(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d}: {text} ... PASS")


# --------------------------------------------------------------------------
# independent oracles, deliberately written as plain scalar loops


def naive_metrics(cohort, alloc, score_config: dict) -> dict:
    rows = alloc.rows
    cnss = []
    for i, patient in enumerate(cohort.patients):
        hit = 0
        total = 0
        for need in patient.needs:
            total += 1
            if rows[i][need.value] > 0:
                hit += 1
        cnss.append(hit / total)

    esg = 0.0
    for i, patient in enumerate(cohort.patients):
        esg += patient.survival_prob * cnss[i]

    rmg = cnss[0]
    for value in cnss:
        if value < rmg:
            rmg = value

    mean = sum(cnss) / len(cnss)
    var = 0.0
    for value in cnss:
        var += (value - mean) ** 2
    var /= len(cnss)

    def attr_score(table_name, value):
        return score_config["attribute_scores"][table_name][value]

    def age_score(age):
        for upper, score in score_config["age_bands"]:
            if age <= upper:
                return score
        raise AssertionError("age uncovered")

    def weight(patient, kind):
        mix = score_config["kind_weights"][kind]
        raw = (
            mix["ses"] * attr_score("ses", patient.ses)
            + mix["citizenship"] * attr_score("citizenship", patient.citizenship)
            + mix["race"] * attr_score("race", patient.race)
            + mix["age"] * age_score(patient.age)
            + mix["gender"] * attr_score("gender", patient.gender)
        )
        return score_config["floor"] + score_config["scale"] * raw

    dw = 0.0
    vw = 0.0
    for i, patient in enumerate(cohort.patients):
        dw += weight(patient, "prioritarian") * patient.survival_prob * cnss[i]
        vw += weight(patient, "care") * cnss[i]

    total = sum(cnss)
    if total == 0 or min(cnss) == max(cnss):
        gini = 0.0
    else:
        ordered = sorted(cnss)
        acc = 0.0
        for i, value in enumerate(ordered):
            acc += (i + 1) * value
        gini = 2.0 * acc / (len(cnss) * total) - (len(cnss) + 1) / len(cnss)

    return {
        "esg": esg, "rmg": rmg, "variance": var,
        "dw_esg": dw, "vwci": vw, "gini": gini,
    }


def naive_signed_rank(diffs):
    nonzero = [d for d in diffs if d != 0]
    n = len(nonzero)
    if n == 0:
        return 0.0, 1.0
    order = sorted(range(n), key=lambda i: abs(nonzero[i]))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(nonzero[order[j + 1]]) == abs(nonzero[order[i]]):
            j += 1
        for t in range(i, j + 1):
            ranks[order[t]] = (i + j) / 2 + 1
        i = j + 1
    observed = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    le = ge = total = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        total += 1
        if w <= observed + 1e-12:
            le += 1
        if w >= observed - 1e-12:
            ge += 1
    return observed, min(1.0, 2 * min(le, ge) / total)


def _cake_utility_sum(params, x):
    """Sum of the six stated cake utilities at shares x = (x1, ..., x6)."""
    x1, x2, x3, x4, x5, x6 = x
    total = x1 ** params.alpha + x2 ** params.beta + params.gamma * x3
    total += params.delta * x4
    if x4 > params.xbar4:
        total -= params.lam * (x4 - params.xbar4) ** 2
    if x5 > 0:
        total += params.epsilon
    if x6 >= params.xmin:
        total += params.gamma * (x6 - params.xmin)
    return total


# --------------------------------------------------------------------------


def test_criterion_01_metric_oracle_equivalence():
    started = time.monotonic()
    score_config = json.loads(
        resources.files("triage_arena")
        .joinpath("data/attribute_scores.json")
        .read_text(encoding="utf-8")
    )
    config = SamplerConfig(master_seed=2024, batch_size=1)
    rng = np.random.Generator(np.random.Philox(1))
    for _ in range(1000):
        cohort = generate_cohort(int(rng.integers(2**32)), config)
        alloc = random_allocation(rng, n=cohort.n)
        report = metric_report(cohort, alloc)
        expected = naive_metrics(cohort, alloc, score_config)
        for metric in METRIC_NAMES:
            assert abs(report.value(metric) - expected[metric]) <= 1e-9, metric
    elapsed = time.monotonic() - started
    assert elapsed < 10, f"took {elapsed:.1f}s"
    _announce(1, f"six metrics match scalar-loop oracles on 1000 pairs in {elapsed:.1f}s")


def test_criterion_02_gini_closed_forms():
    from triage_arena.metrics import gini

    assert gini([0.4] * 8) == 0.0
    assert gini([7.3] * 5) == 0.0
    assert gini([0, 0, 0, 0, 0, 0, 0, 9.0]) == 0.875
    assert abs(gini([1, 3]) - 0.25) <= 1e-12
    _announce(2, "gini closed forms exact (equal -> 0, single holder -> 0.875, [1,3] -> 0.25)")


def test_criterion_03_feasibility_boundary():
    cap = capacity_for_variant("standard")
    for j, supply in enumerate(cap.supply):
        at_limit = [[0.0] * 6 for _ in range(4)]
        at_limit[0][j] = supply / 2
        at_limit[1][j] = supply / 2
        result = validate_allocation(Allocation(tuple(map(tuple, at_limit))), cap)
        assert result.feasible, f"resource {j} at exact capacity"

        over = [[0.0] * 6 for _ in range(4)]
        over[0][j] = supply + 1e-6
        result = validate_allocation(Allocation(tuple(map(tuple, over))), cap)
        assert not result.feasible, f"resource {j} over capacity"
        assert len(result.violations) == 1
        name, overshoot = result.violations[0]
        assert overshoot == pytest.approx(1e-6, rel=1e-3)
    _announce(3, "feasibility boundary exact for all six resources, overshoot reported")


class TestCriterion04Cake:
    params = CakeParams()
    step = 0.01

    def test_criterion_04a_util_argmax_is_corner(self):
        started = time.monotonic()
        report = verify_cake_claims(self.params, step=self.step)
        claim = next(c for c in report.claims if c.name == "util_argmax_is_corner")
        elapsed = time.monotonic() - started
        assert elapsed < 30
        # claim (a) is unattainable (see the module docstring); the
        # verifier must refute it with a witness that beats the corner
        assert not claim.passed, claim.detail
        assert "not maximal" in claim.detail

        corner = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        corner_value = _cake_utility_sum(self.params, corner)
        assert corner_value == 1.0
        assert _cake_utility_sum(self.params, (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)) == 1.0

        witness = claim.witness
        assert len(witness) == 6
        for share in witness:
            assert share >= 0
            assert abs(share / self.step - round(share / self.step)) < 1e-9
        assert abs(sum(witness) - 1.0) < 1e-9
        witness_value = _cake_utility_sum(self.params, witness)
        assert witness_value == pytest.approx(1.21097513, abs=1e-8)
        assert witness_value > corner_value

        assert report.recheck_agrees
        _announce(
            4,
            "cake claim (a) refuted: corner ties (0,1,0,0,0,0) at 1.0 and the "
            "grid optimum scores 1.21097513",
        )

    def test_criterion_04b_rawls_argmax_requires_x5_positive(self):
        report = verify_cake_claims(self.params, step=self.step)
        claim = next(
            c for c in report.claims if c.name == "rawls_argmax_requires_inclusion"
        )
        assert claim.passed, claim.detail
        _announce(4, "cake claim (b): every maximin optimum includes person 5")

    def test_criterion_04c_four_functional_intersection_empty(self):
        report = verify_cake_claims(self.params, step=self.step)
        claim = next(
            c for c in report.claims if c.name == "argmax_intersection_empty"
        )
        assert claim.passed, claim.detail
        _announce(4, "cake claim (c): four-functional argmax intersection empty")

    def test_criterion_04_negative_control_lambda_zero(self):
        started = time.monotonic()
        report = verify_cake_claims(
            CakeParams(lam=0.0, allow_degenerate=True), step=self.step
        )
        assert not report.all_passed
        assert time.monotonic() - started < 30
        _announce(4, "cake negative control: lambda=0 fails at least one claim")


def test_criterion_05_reference_transcript_replay():
    started = time.monotonic()
    fixtures = load_reference_fixtures()
    cohort = fixtures.cohort
    profile_a, system_a = build_profile(ProfileKind.ALIGNED, Framework.UTILITARIAN)
    profile_b, system_b = build_profile(ProfileKind.BASELINE)
    agent_a = AgentSpec("A", ReplayBackend(fixtures.round_texts["A"]), profile_a, system_a)
    agent_b = AgentSpec("B", ReplayBackend(fixtures.round_texts["B"]), profile_b, system_b)
    transcript = run_debate(cohort, agent_a, agent_b, DebateConfig(rounds=3))
    assert transcript.completed

    by_agent_round = {
        (p.agent, p.round): p for p in transcript.history.proposals
    }
    round1_a = by_agent_round[("A", 1)]
    assert column_totals(round1_a.allocation) == (2, 1, 45, 35, 60, 2)
    assert round1_a.feasibility.feasible

    round2_a = by_agent_round[("A", 2)]
    assert column_totals(round2_a.allocation)[2] == 50
    assert not round2_a.feasibility.feasible
    assert ("MedA", 5.0) in round2_a.feasibility.violations

    final_a = transcript.final_allocations["A"]
    final_b = transcript.final_allocations["B"]
    assert column_totals(final_a) == (2, 1, 50, 35, 56, 2)
    assert column_totals(final_b) == (2, 1, 53, 35, 56, 2)
    assert not transcript.final_reports["A"].feasible
    assert not transcript.final_reports["B"].feasible
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _announce(5, f"reference debate replay reproduces all totals and verdicts in {elapsed:.2f}s")


def test_criterion_06_wilcoxon_exactness():
    started = time.monotonic()
    result = wilcoxon_signed_rank([1, 2, 3])
    assert result.statistic == 6.0
    assert result.p_value == 0.25

    rng = np.random.Generator(np.random.Philox(6))
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 11))
        style = rng.integers(0, 3)
        if style == 0:
            diffs = [float(rng.normal()) for _ in range(n)]
        elif style == 1:
            diffs = [round(float(rng.normal()), 1) for _ in range(n)]  # forces ties
        else:
            diffs = [float(rng.integers(-3, 4)) for _ in range(n)]  # zeros and ties
        expected_w, expected_p = naive_signed_rank(diffs)
        got = wilcoxon_signed_rank(diffs)
        if got.degenerate:
            assert all(d == 0 for d in diffs)
            continue
        assert got.statistic == pytest.approx(expected_w, abs=1e-12)
        assert got.p_value == pytest.approx(expected_p, abs=1e-12)
        checked += 1
    assert checked >= 150
    elapsed = time.monotonic() - started
    assert elapsed < 10, f"took {elapsed:.1f}s"
    _announce(6, f"exact signed-rank equals the 2^n enumerator on {checked} vectors in {elapsed:.1f}s")


def test_criterion_07_bootstrap_determinism(tmp_path):
    rng = np.random.Generator(np.random.Philox(7))
    sample = [float(x) for x in rng.uniform(0, 1, size=37)]
    first = bootstrap_ci(sample, seed=42)
    second = bootstrap_ci(sample, seed=42)
    assert first == second

    from triage_arena.cli import main

    cohorts = tmp_path / "cohorts"
    transcripts = tmp_path / "transcripts"
    evals = tmp_path / "evals"
    assert main(["gen-cohorts", "--seed", "9", "--batch", "4", "--out", str(cohorts)]) == 0
    assert main([
        "run", "--cohorts", str(cohorts), "--framework", "Rawlsian",
        "--backend", "scripted", "--out", str(transcripts),
    ]) == 0
    assert main(["eval", "--transcripts", str(transcripts), "--out", str(evals)]) == 0
    outs = []
    for attempt in ("1", "2"):
        out = tmp_path / f"stats{attempt}"
        assert main(["stats", "--eval-dir", str(evals), "--out", str(out)]) == 0
        outs.append((out / "comparison.json").read_bytes())
    assert outs[0] == outs[1]
    _announce(7, "bootstrap intervals identical across repeated runs")


def test_criterion_08_cohort_determinism_and_validity():
    started = time.monotonic()
    config = SamplerConfig(master_seed=42, batch_size=1)
    for seed in (42, 7, 123456789):
        a = generate_cohort(seed, config)
        b = generate_cohort(seed, config)
        assert canonical_json(a.to_json()) == canonical_json(b.to_json())

    rng = np.random.Generator(np.random.Philox(8))
    for _ in range(1000):
        cohort = generate_cohort(int(rng.integers(2**32)), config)
        tuples = [
            (p.age, p.gender, p.race, p.ses, p.citizenship) for p in cohort.patients
        ]
        assert len(set(tuples)) == cohort.n, "diversity violation"
        for p in cohort.patients:
            assert p.survival_label == discretize_survival(p.survival_prob)
    elapsed = time.monotonic() - started
    assert elapsed < 30, f"took {elapsed:.1f}s"
    _announce(8, f"1000 cohorts: deterministic, diverse, labels consistent in {elapsed:.1f}s")


def test_criterion_09_parser_round_trip_and_prompt_hygiene(sampler_config):
    rng = np.random.Generator(np.random.Philox(9))
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        alloc = random_allocation(rng, n=n, max_units=40)
        parsed, warnings = parse_allocation(render_allocation(alloc), n=n)
        assert warnings == []
        assert parsed == alloc

    fixtures = load_reference_fixtures()
    for r in fixtures.rounds:
        alloc = Allocation.from_json(r["rows"])
        parsed, warnings = parse_allocation(render_allocation(alloc), n=alloc.n)
        assert warnings == []
        assert parsed == alloc

    profile_a, system_a = build_profile(ProfileKind.ALIGNED, Framework.EGALITARIAN)
    profile_b, system_b = build_profile(ProfileKind.BASELINE)
    spec_a = AgentSpec("A", ScriptedBackend("rawlsian"), profile_a, system_a)
    spec_b = AgentSpec("B", ScriptedBackend("utilitarian"), profile_b, system_b)
    numeral = re.compile(r"\d+\.\d+|\d+%")
    config = DebateConfig()
    for seed in range(50):
        cohort = generate_cohort(seed, sampler_config)
        for spec in (spec_a, spec_b):
            prompt = build_prompt(spec, cohort, InteractionHistory(), None, 1, config)
            assert not numeral.search(prompt)
    _announce(9, "render/parse identity on 1000 matrices plus fixtures; prompts leak no survival numerals")


def test_criterion_10_end_to_end_scripted_pipeline(tmp_path):
    started = time.monotonic()
    from triage_arena.cli import main

    cohorts = tmp_path / "cohorts"
    transcripts = tmp_path / "transcripts"
    evals = tmp_path / "evals"
    stats_out = tmp_path / "stats"
    assert main(["gen-cohorts", "--seed", "42", "--batch", "50", "--out", str(cohorts)]) == 0
    assert main([
        "run",
        "--cohorts", str(cohorts),
        "--framework", "Rawlsian",
        "--opponent", "biased",
        "--backend", "scripted",
        "--allow-adversarial",
        "--jobs", "4",
        "--out", str(transcripts),
    ]) == 0
    assert len(list(transcripts.glob("transcript_*.json"))) == 50
    assert main(["eval", "--transcripts", str(transcripts), "--out", str(evals)]) == 0
    assert main(["stats", "--eval-dir", str(evals), "--out", str(stats_out)]) == 0

    import csv as csv_mod

    with open(stats_out / "results.csv", newline="", encoding="utf-8") as handle:
        rows = {(r["framework"], r["metric"]): r for r in csv_mod.DictReader(handle)}
    rmg_row = rows[("Rawlsian", "rmg")]
    assert int(rmg_row["n"]) == 50
    assert rmg_row["winner"] == "A"
    assert float(rmg_row["p"]) < 0.05
    assert float(rmg_row["mean_a"]) > float(rmg_row["mean_b"])
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _announce(
        10,
        f"50-cohort maximin-vs-biased pipeline: minimum-guarantee winner A, "
        f"p={float(rmg_row['p']):.2g} in {elapsed:.1f}s",
    )


def test_criterion_11_retrieval_exactness_and_chunking(monkeypatch):
    rng = np.random.Generator(np.random.Philox(11))
    chunks = [
        DocumentChunk(
            doc_id=f"doc{i:04d}",
            page_hint=i % 40,
            text=" ".join(f"w{int(rng.integers(0, 4000))}" for _ in range(24)),
            ordinal=i,
        )
        for i in range(1000)
    ]
    embedder = HashingEmbedder()
    index = index_corpus(chunks, embedder)
    matrix = index.matrix
    norms = [float(np.linalg.norm(row)) for row in matrix]
    for _ in range(100):
        query = " ".join(f"w{int(rng.integers(0, 4000))}" for _ in range(8))
        qvec = np.asarray(embedder.embed(query))
        qnorm = float(np.linalg.norm(qvec))
        scored = []
        for idx in range(len(chunks)):
            denom = norms[idx] * qnorm
            score = round(float(np.dot(matrix[idx], qvec) / denom), 12) if denom else 0.0
            scored.append((score, index.chunks[idx].doc_id, index.chunks[idx].ordinal))
        scored.sort(key=lambda t: (-t[0], t[1], t[2]))
        got = retrieve(index, query, embedder)
        assert [(c.doc_id, c.ordinal) for c, _ in got.chunks] == [
            (d, o) for _, d, o in scored[:5]
        ]
        for (chunk, score), (expected_score, _, _) in zip(got.chunks, scored[:5]):
            assert score == pytest.approx(expected_score, abs=1e-12)

    monkeypatch.setattr(retrieval, "CHUNK_SIZE", 128)
    monkeypatch.setattr(retrieval, "OVERLAP", 32)
    for trial in range(25):
        n_tokens = int(rng.integers(1, 3000))
        tokens = [f"t{int(rng.integers(0, 999))}" for _ in range(n_tokens)]
        doc_chunks = chunk_document(" ".join(tokens))
        rebuilt = []
        for i, chunk in enumerate(doc_chunks):
            toks = chunk.text.split()
            rebuilt.extend(toks if i == 0 else toks[32:])
        assert rebuilt == tokens
    _announce(11, "top-5 retrieval equals the brute-force scan on 1000 chunks x 100 queries; chunking reconstructs")


def test_criterion_12_scale_invariance_and_monotonicity():
    config = SamplerConfig(master_seed=777, batch_size=1)
    rng = np.random.Generator(np.random.Philox(12))
    cases = 10_000
    monotone_metrics = ("esg", "rmg", "dw_esg", "vwci")
    for case in range(cases):
        cohort = generate_cohort(int(rng.integers(2**32)), config)
        alloc = random_allocation(rng, n=cohort.n, max_units=6)
        report = metric_report(cohort, alloc)

        factor = float(rng.uniform(0.25, 4.0))
        scaled_report = metric_report(cohort, alloc.scaled(factor))
        for metric in METRIC_NAMES:
            assert scaled_report.value(metric) == report.value(metric), (metric, case)

        # flip one needed zero cell to positive; the satisfaction-driven
        # metrics must not decrease
        patient_index = int(rng.integers(cohort.n))
        patient = cohort.patients[patient_index]
        zero_needs = [
            r for r in sorted(patient.needs) if alloc.rows[patient_index][r.value] == 0
        ]
        if not zero_needs:
            continue
        resource = zero_needs[int(rng.integers(len(zero_needs)))]
        rows = [list(row) for row in alloc.rows]
        rows[patient_index][resource.value] = float(rng.uniform(0.5, 5.0))
        improved = metric_report(cohort, Allocation(tuple(map(tuple, rows))))
        for metric in monotone_metrics:
            assert improved.value(metric) >= report.value(metric), (metric, case)
    _announce(12, f"scale invariance and monotonicity hold on {cases} randomized cases each")
