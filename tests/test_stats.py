from __future__ import annotations

import csv
import io
import itertools
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

try:  # a second oracle for the signed-rank p-values, where installed
    from scipy import stats as scipy_stats
except ImportError:
    scipy_stats = None

from triage_arena import stats
from triage_arena.stats import (
    CI_LEVEL,
    CSV_COLUMNS,
    DEFAULT_RESAMPLES,
    ComparisonReport,
    PairedSample,
    assign_winner,
    bootstrap_ci,
    cell_seed,
    cohens_d,
    compare_cell,
    pair_reports,
    results_to_csv,
    results_to_markdown,
    wilcoxon_signed_rank,
)


def normal_wilcoxon_p(diffs):
    """scipy.stats.wilcoxon(zero_method="wilcox", correction=True,
    method="approx"), written out: drop zeros, give tied |d| their mean
    rank, take the tie-corrected variance, move W+ 0.5 toward its mean."""
    nonzero = [d for d in diffs if d != 0]
    n = len(nonzero)
    counts = Counter(abs(d) for d in nonzero)
    rank, below = {}, 0
    for value in sorted(counts):
        rank[value] = below + (counts[value] + 1) / 2
        below += counts[value]
    w_plus = sum(rank[abs(d)] for d in nonzero if d > 0)
    ties = sum(t**3 - t for t in counts.values())
    se = math.sqrt((n * (n + 1) * (2 * n + 1) - ties / 2) / 24)
    distance = abs(w_plus - n * (n + 1) / 4)
    z = (distance - 0.5) / se if distance else 0.0
    return math.erfc(z / math.sqrt(2))


def naive_exact_wilcoxon(diffs):
    """Independent enumerator: recompute ranks and walk all sign patterns."""
    nonzero = [d for d in diffs if d != 0]
    n = len(nonzero)
    if n == 0:
        return 0.0, 1.0
    # average ranks over |d|
    pairs = sorted(range(n), key=lambda i: abs(nonzero[i]))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(nonzero[pairs[j + 1]]) == abs(nonzero[pairs[i]]):
            j += 1
        for t in range(i, j + 1):
            ranks[pairs[t]] = (i + j) / 2 + 1
        i = j + 1
    observed = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    outcomes = []
    for signs in itertools.product([0, 1], repeat=n):
        outcomes.append(sum(r for r, s in zip(ranks, signs) if s))
    le = sum(1 for w in outcomes if w <= observed + 1e-12)
    ge = sum(1 for w in outcomes if w >= observed - 1e-12)
    p = min(1.0, 2 * min(le, ge) / len(outcomes))
    return observed, p


class TestWilcoxon:
    def test_one_two_three(self):
        result = wilcoxon_signed_rank([1, 2, 3])
        assert result.statistic == 6
        assert result.p_value == 0.25
        assert result.method == "exact"

    def test_symmetric_pairs_p_one(self):
        assert wilcoxon_signed_rank([1, -1, 2.5, -2.5]).p_value == 1.0

    def test_all_zero_degenerate(self):
        result = wilcoxon_signed_rank([0.0, 0.0, 0.0])
        assert result.p_value == 1.0
        assert result.degenerate

    def test_matches_naive_enumerator(self):
        rng = np.random.Generator(np.random.Philox(73))
        for _ in range(60):
            n = int(rng.integers(1, 13))
            diffs = [round(float(rng.normal()), 2) for _ in range(n)]
            expected_w, expected_p = naive_exact_wilcoxon(diffs)
            result = wilcoxon_signed_rank(diffs)
            if result.degenerate:
                assert all(d == 0 for d in diffs)
                continue
            # the counting DP gives the enumerator's integers, so p is equal
            assert result.statistic == pytest.approx(expected_w)
            assert result.p_value == expected_p

    def test_normal_path_matches_scipy_on_tied_samples(self):
        rng = np.random.Generator(np.random.Philox(89))
        checked = 0
        for _ in range(200):
            n = int(rng.integers(13, 201))
            diffs = [round(float(x), 1) for x in rng.normal(0.1, 1.0, size=n)]
            result = wilcoxon_signed_rank(diffs)
            if result.method != "normal":  # too few nonzero differences left
                continue
            assert abs(result.p_value - normal_wilcoxon_p(diffs)) <= 1e-12
            if scipy_stats is not None:
                expected = scipy_stats.wilcoxon(
                    diffs, zero_method="wilcox", correction=True, method="approx"
                ).pvalue
                assert abs(result.p_value - expected) <= 1e-12
            checked += 1
        assert checked >= 150

    def test_exact_path_matches_scipy_without_ties(self):
        rng = np.random.Generator(np.random.Philox(97))
        for _ in range(100):
            n = int(rng.integers(1, 13))
            diffs = [float(x) for x in rng.normal(0.3, 1.0, size=n)]
            assert len({abs(d) for d in diffs}) == n and 0.0 not in diffs
            result = wilcoxon_signed_rank(diffs)
            assert result.method == "exact"
            assert abs(result.p_value - naive_exact_wilcoxon(diffs)[1]) <= 1e-12
            if scipy_stats is not None:
                expected = scipy_stats.wilcoxon(diffs, method="exact").pvalue
                assert abs(result.p_value - expected) <= 1e-12

    def test_exact_and_normal_agree_at_crossover(self):
        rng = np.random.Generator(np.random.Philox(79))
        from triage_arena import stats as stats_mod

        for _ in range(20):
            diffs = [float(rng.normal()) for _ in range(12)]
            exact = wilcoxon_signed_rank(diffs)
            assert exact.method == "exact"
            original = stats_mod.EXACT_WILCOXON_MAX_N
            try:
                stats_mod.EXACT_WILCOXON_MAX_N = 0
                approx = wilcoxon_signed_rank(diffs)
            finally:
                stats_mod.EXACT_WILCOXON_MAX_N = original
            assert approx.method == "normal"
            assert abs(exact.p_value - approx.p_value) < 0.02

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=30))
    def test_p_in_unit_interval_and_statistic_bounded(self, diffs):
        result = wilcoxon_signed_rank(diffs)
        assert 0.0 <= result.p_value <= 1.0
        n = result.n
        assert 0.0 <= result.statistic <= n * (n + 1) / 2

    def test_large_sample_uses_normal_approximation(self):
        rng = np.random.Generator(np.random.Philox(83))
        diffs = list(rng.normal(0.5, 1.0, size=50))
        result = wilcoxon_signed_rank(diffs)
        assert result.method == "normal"
        assert 0 <= result.p_value <= 1


class TestCohensD:
    def test_identical_groups_zero(self):
        assert cohens_d([1, 2, 3], [1, 2, 3]) == 0.0

    def test_unit_shift_with_pooled_sd(self):
        assert cohens_d([1, 3], [0, 2]) == pytest.approx(1 / math.sqrt(2))

    def test_sign_follows_mean_difference(self):
        rng = np.random.Generator(np.random.Philox(89))
        for _ in range(50):
            a = list(rng.normal(0, 1, size=6))
            b = list(rng.normal(0.5, 1, size=6))
            d = cohens_d(a, b)
            if not math.isnan(d) and d != 0:
                assert math.copysign(1, d) == math.copysign(
                    1, sum(a) / len(a) - sum(b) / len(b)
                )

    def test_antisymmetric(self):
        a, b = [1.0, 2.0, 4.0], [0.5, 2.5, 3.0]
        assert cohens_d(a, b) == pytest.approx(-cohens_d(b, a))

    def test_zero_pooled_sd_gives_nan(self):
        assert math.isnan(cohens_d([2, 2], [1, 1]))

    def test_requires_two_observations(self):
        with pytest.raises(ValueError):
            cohens_d([1], [1, 2])


def one_shot_bootstrap_ci(sample, seed):
    """Reference: the interval from one int64 draw of the whole
    DEFAULT_RESAMPLES x n index matrix and its float gather."""
    sample = np.asarray(list(sample), dtype=float)
    rng = np.random.Generator(np.random.Philox(seed))
    draws = rng.integers(0, sample.size, size=(DEFAULT_RESAMPLES, sample.size))
    means = sample[draws].mean(axis=1)
    lo = float(np.percentile(means, (1 - CI_LEVEL) / 2 * 100))
    hi = float(np.percentile(means, (1 + CI_LEVEL) / 2 * 100))
    return lo, hi


class TestBootstrap:
    def test_constant_sample_degenerate_interval(self):
        assert bootstrap_ci([5, 5, 5]) == (5.0, 5.0)

    def test_same_seed_identical(self):
        sample = [0.1, 0.9, 0.4, 0.6, 0.2]
        assert bootstrap_ci(sample, seed=42) == bootstrap_ci(sample, seed=42)

    def test_different_seeds_differ(self):
        sample = [0.1, 0.9, 0.4, 0.6, 0.2]
        assert bootstrap_ci(sample, seed=42) != bootstrap_ci(sample, seed=43)

    def test_contains_sample_mean_on_small_unimodal_samples(self):
        rng = np.random.Generator(np.random.Philox(97))
        for _ in range(100):
            n = int(rng.integers(5, 40))
            sample = list(rng.normal(rng.uniform(-3, 3), rng.uniform(0.1, 2), size=n))
            lo, hi = bootstrap_ci(sample, seed=42)
            mean = sum(sample) / n
            assert lo <= mean <= hi

    def test_width_shrinks_with_n(self):
        rng = np.random.Generator(np.random.Philox(101))
        widths = []
        for n in (10, 100, 1000):
            sample = list(rng.normal(0, 1, size=n))
            lo, hi = bootstrap_ci(sample, seed=42)
            widths.append(hi - lo)
        assert widths[0] > widths[1] > widths[2]

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])

    @pytest.mark.parametrize("rows", [1, 3, 7, 64, DEFAULT_RESAMPLES, DEFAULT_RESAMPLES + 1])
    def test_blocks_match_one_int64_draw_bit_for_bit(self, monkeypatch, rows):
        monkeypatch.setattr(stats, "_BOOTSTRAP_ROWS", rows)
        rng = np.random.Generator(np.random.Philox(5))
        for n in (1, 2, 7, 500, 501):
            sample = list(rng.normal(0, 1, size=n))
            for seed in (0, 42, cell_seed(42, "Rawlsian", "utility"), 2**64 - 1):
                got = np.array(bootstrap_ci(sample, seed))
                want = np.array(one_shot_bootstrap_ci(sample, seed))
                assert got.tobytes() == want.tobytes(), (n, seed)

    def test_stack_gives_each_row_its_own_interval_bit_for_bit(self):
        rng = np.random.Generator(np.random.Philox(11))
        for n in (1, 2, 7, 500):
            a, b = list(rng.normal(0, 1, size=n)), list(rng.uniform(0, 1, size=n))
            for seed in (0, 42, 2**64 - 1):
                got = bootstrap_ci((a, b), seed)
                assert got == [bootstrap_ci(a, seed), bootstrap_ci(b, seed)], (n, seed)

    @pytest.mark.parametrize("sample", [[[1.0, 2.0], [3.0]], [[[1.0]]], [[]]], ids=["ragged", "3-d", "empty-row"])
    def test_stack_must_be_two_dimensional_and_nonempty(self, sample):
        with pytest.raises(ValueError):
            bootstrap_ci(sample)

    def test_compare_cell_draws_the_indices_once(self, monkeypatch):
        calls = []
        real = stats.bootstrap_ci

        def counted(sample, seed):
            calls.append(seed)
            return real(sample, seed)

        monkeypatch.setattr(stats, "bootstrap_ci", counted)
        sample = PairedSample((1, 2, 3), (0.1, 0.5, 0.9), (0.2, 0.2, 0.7))
        report = compare_cell(sample, "Rawlsian", "esg", bootstrap_seed=9)
        assert calls == [9]
        assert (report.ci_a, report.ci_b) == (
            real(sample.a_values, 9), real(sample.b_values, 9)
        )

    def test_n500_peaks_below_4mb(self):
        # the one-shot int64 draw peaks at about 15 MB here
        sample = list(np.random.Generator(np.random.Philox(9)).normal(0, 1, size=500))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            bootstrap_ci(sample, seed=42)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 4 * 2**20


class TestWinner:
    def test_not_significant_is_tie(self):
        assert assign_winner(0.2, 10.0, 0.0, "higher") == "tie"

    def test_gini_lower_better(self):
        assert assign_winner(0.01, 0.1, 0.3, "lower") == "A"

    def test_esg_higher_better_b_wins(self):
        assert assign_winner(0.01, 0.2, 0.5, "higher") == "B"

    def test_equal_means_tie_even_when_significant(self):
        assert assign_winner(0.001, 0.5, 0.5, "higher") == "tie"


# every CNSS is k/m for a patient with m of the six resources needed, so
# rmg takes these values, and paired samples of them tie often
_RMG_LATTICE = sorted({k / m for m in range(1, 7) for k in range(m + 1)})
# cohens_d squares deviations in Python floats, which overflow above about 1e154
_FLOATS = st.floats(-1e100, 1e100)
_SWAPPED_WINNER = {"A": "B", "B": "A", "tie": "tie"}


def _bits(values) -> tuple[str, ...]:
    return tuple(float(x).hex() for x in values)


class TestSwapRelation:
    """Metamorphic relation MR2: comparing B against A is comparing A
    against B with the roles exchanged, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), metric=st.sampled_from(stats.METRIC_NAMES), seed=st.integers(0, 2**64 - 1))
    def test_swapping_the_samples_swaps_the_report(self, data, metric, seed):
        n = data.draw(st.integers(5, 500), label="n")
        values = data.draw(st.sampled_from([st.sampled_from(_RMG_LATTICE), _FLOATS]), label="values")
        a, b = (tuple(data.draw(st.lists(values, min_size=n, max_size=n))) for _ in "ab")
        shift = data.draw(st.sampled_from([0.0, 0.5]), label="shift")  # so that A or B can win
        b = tuple(x + shift for x in b)
        ids = tuple(range(n))
        one = compare_cell(PairedSample(ids, a, b), "Rawlsian", metric, bootstrap_seed=seed)
        two = compare_cell(PairedSample(ids, b, a), "Rawlsian", metric, bootstrap_seed=seed)
        assert _bits([two.mean_a, *two.ci_a]) == _bits([one.mean_b, *one.ci_b])
        assert _bits([two.mean_b, *two.ci_b]) == _bits([one.mean_a, *one.ci_a])
        assert _bits([two.p_value]) == _bits([one.p_value])
        assert two.effect_size == -one.effect_size or math.isnan(one.effect_size) and math.isnan(two.effect_size)
        assert two.winner == _SWAPPED_WINNER[one.winner]
        assert (two.n, two.significant, two.degenerate) == (one.n, one.significant, one.degenerate)


class TestCellRange:
    """compare_cell refuses a cell once 4 n sum(x^2) over its two samples
    overflows, and the cells below that bound compare in finite floats."""

    @staticmethod
    def cell(n, magnitude):
        a = tuple(magnitude * (-1) ** i for i in range(n))
        b = tuple(x / 2 for x in a)
        return PairedSample(tuple(range(n)), a, b)

    @pytest.mark.parametrize("n", [2, 5, 500])
    def test_largest_values_compare_in_finite_floats(self, n):
        # 2n values of magnitude m: 4 n sum(x^2) is 4 n (n m^2 + n m^2 / 4)
        limit = math.sqrt(np.finfo(float).max / (5 * n * n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compare_cell(self.cell(n, limit * 0.99), "Rawlsian", "esg")
        numbers = [report.mean_a, report.mean_b, *report.ci_a, *report.ci_b, report.effect_size]
        assert all(map(math.isfinite, numbers))
        with pytest.raises(ValueError, match="^Rawlsian esg: the values are too large to compare in floats"):
            compare_cell(self.cell(n, limit * 1.01), "Rawlsian", "esg")

    @pytest.mark.parametrize("value", [1e200, 1e308, math.inf, -math.inf, math.nan])
    def test_one_value_out_of_range_refuses_the_cell(self, value):
        a = [0.5] * 6
        a[3] = value
        sample = PairedSample(tuple(range(6)), tuple(a), (0.25,) * 6)
        with pytest.raises(ValueError, match="^Utilitarian gini: the values are too large"):
            compare_cell(sample, "Utilitarian", "gini")


class TestPairedSample:
    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            PairedSample((1, 2), (0.5,), (0.4, 0.2))

    def test_ids_unique(self):
        with pytest.raises(ValueError):
            PairedSample((1, 1), (0.5, 0.6), (0.4, 0.2))

    def test_diffs(self):
        sample = PairedSample((0, 1), (0.6, 0.8), (0.5, 0.9))
        assert sample.diffs == pytest.approx((0.1, -0.1))


class TestPairAndFilter:
    def _fake_entries(self, feasible_pairs):
        """(cohort_id, final reports) of one-round scripted debates, the
        opponent over capacity in the cohorts marked infeasible."""
        from triage_arena.agents import ScriptedBackend, build_profile
        from triage_arena.arena import AgentSpec, DebateConfig, run_debate
        from triage_arena.cohortgen import SamplerConfig, generate_cohort
        from triage_arena.model import Framework, ProfileKind

        config = SamplerConfig(master_seed=3, batch_size=1)
        profile_a, sys_a = build_profile(ProfileKind.ALIGNED, Framework.RAWLSIAN)
        profile_b, sys_b = build_profile(ProfileKind.BASELINE)
        entries = []
        for cohort_id, make_infeasible in feasible_pairs:
            cohort = generate_cohort(1000 + cohort_id, config, cohort_id=cohort_id)
            agent_a = AgentSpec("A", ScriptedBackend("rawlsian"), profile_a, sys_a)
            if make_infeasible:
                from triage_arena.agents import ReplayBackend

                over = "\n".join(
                    f"Patient {i}: [9, 9, 99, 99, 99, 9]" for i in range(1, cohort.n + 1)
                )
                agent_b = AgentSpec("B", ReplayBackend([over] * 3), profile_b, sys_b)
            else:
                agent_b = AgentSpec("B", ScriptedBackend("utilitarian"), profile_b, sys_b)
            transcript = run_debate(cohort, agent_a, agent_b, DebateConfig(rounds=1))
            entries.append((cohort_id, transcript.final_reports))
        return entries

    def test_all_feasible_keeps_everything(self):
        entries = self._fake_entries([(0, False), (1, False), (2, False)])
        sample = pair_reports(entries, "rmg")
        assert sample.n == 3
        assert sample.cohort_ids == (0, 1, 2)

    def test_one_infeasible_excludes_that_cohort_entirely(self):
        entries = self._fake_entries([(0, False), (32, True), (40, False)])
        sample = pair_reports(entries, "rmg")
        assert sample.cohort_ids == (0, 40)

    def test_empty_input_gives_empty_sample(self):
        sample = pair_reports([], "esg")
        assert sample.n == 0
        report = compare_cell(sample, "Rawlsian", "esg")
        assert report.n == 0
        assert report.winner == "tie"
        assert report.degenerate


class TestAggregation:
    def _report(self, framework="Rawlsian", metric="rmg", **overrides):
        base = dict(
            framework=framework, metric=metric, n=10,
            mean_a=0.6, mean_b=0.2, ci_a=(0.5, 0.7), ci_b=(0.1, 0.3),
            p_value=0.001, effect_size=1.2, significant=True, winner="A",
        )
        base.update(overrides)
        return ComparisonReport(**base)

    def test_single_report_single_row(self):
        csv_text = results_to_csv([self._report()])
        rows = list(csv.reader(io.StringIO(csv_text)))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 2

    def test_missing_cells_stay_absent(self):
        reports = [self._report(metric="rmg"), self._report(metric="gini")]
        csv_text = results_to_csv(reports)
        assert "esg" not in csv_text

    def test_csv_round_trip_preserves_numerics(self):
        reports = [
            self._report(mean_a=0.123456789012345, p_value=0.25, effect_size=-0.7071067811865476)
        ]
        csv_text = results_to_csv(reports)
        row = list(csv.DictReader(io.StringIO(csv_text)))[0]
        assert float(row["mean_a"]) == 0.123456789012345
        assert float(row["p"]) == 0.25
        assert float(row["d"]) == -0.7071067811865476

    def test_markdown_has_directions(self):
        md = results_to_markdown([self._report(metric="gini", winner="A")])
        assert "| lower |" in md

    def test_identical_columns_all_ties_p_one(self):
        sample = PairedSample((0, 1, 2), (0.4, 0.5, 0.6), (0.4, 0.5, 0.6))
        report = compare_cell(sample, "Rawlsian", "rmg")
        assert report.p_value == 1.0
        assert report.winner == "tie"
        assert report.degenerate

    def test_cell_seed_stable_and_distinct(self):
        assert cell_seed(42, "Rawlsian", "rmg") == cell_seed(42, "Rawlsian", "rmg")
        assert cell_seed(42, "Rawlsian", "rmg") != cell_seed(42, "Rawlsian", "gini")
        assert cell_seed(42, "Rawlsian", "rmg") != cell_seed(43, "Rawlsian", "rmg")
