"""Paired statistical comparison pipeline.

For each (framework, metric) cell: pair final-allocation metric values by
cohort, drop cohorts where either agent was infeasible, run the Wilcoxon
signed-rank test on the paired differences, compute the pooled-SD effect
size, attach percentile-bootstrap confidence intervals for both means,
and assign a winner from significance plus the metric's direction.

The signed-rank test is exact for n <= 12 (after dropping zero
differences, with average ranks for ties): a dynamic program over the
doubled ranks counts the sign assignments at each W+. Above that it uses
the normal approximation with continuity and tie corrections. The
p-value is always the signed-rank p-value; there is no parametric
alternative. Effect size follows the two-group pooled formula

    d = (mean_a - mean_b) / s_p,
    s_p = sqrt(((n_a - 1) s_a^2 + (n_b - 1) s_b^2) / (n_a + n_b - 2)),

with sample variances, even for paired data.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .cohortgen import splitmix64
from .metrics import METRIC_DIRECTIONS, METRIC_NAMES

__all__ = [
    "EXACT_WILCOXON_MAX_N",
    "DEFAULT_ALPHA",
    "PairedSample",
    "WilcoxonResult",
    "ComparisonReport",
    "pair_reports",
    "wilcoxon_signed_rank",
    "cohens_d",
    "bootstrap_ci",
    "assign_winner",
    "compare_cell",
    "aggregate_results",
    "results_to_csv",
    "results_to_markdown",
    "cell_seed",
]

EXACT_WILCOXON_MAX_N = 12
DEFAULT_ALPHA = 0.05
DEFAULT_RESAMPLES = 2000
DEFAULT_BOOTSTRAP_SEED = 42


@dataclass(frozen=True)
class PairedSample:
    """Per-cohort metric values for the two agents after feasibility filtering."""

    cohort_ids: tuple[int, ...]
    a_values: tuple[float, ...]
    b_values: tuple[float, ...]

    def __post_init__(self):
        if len(self.cohort_ids) != len(self.a_values) or len(self.a_values) != len(self.b_values):
            raise ValueError("cohort_ids, a_values, b_values must have equal lengths")
        if len(set(self.cohort_ids)) != len(self.cohort_ids):
            raise ValueError("cohort ids must be unique")

    @property
    def n(self) -> int:
        return len(self.cohort_ids)

    @property
    def diffs(self) -> tuple[float, ...]:
        return tuple(a - b for a, b in zip(self.a_values, self.b_values))


def pair_reports(entries, metric: str) -> PairedSample:
    """One paired observation per cohort from (cohort_id, {label:
    MetricReport}) entries, keeping only cohorts where both agents'
    final reports are feasible.

    Agent A is paired with the first other label in sorted order.
    """
    if metric not in METRIC_NAMES:
        raise ValueError(f"unknown metric {metric!r}")
    ids, a_vals, b_vals = [], [], []
    for cohort_id, reports in sorted(entries, key=lambda e: e[0]):
        report_a = reports["A"]
        report_b = reports[next(l for l in sorted(reports) if l != "A")]
        if not (report_a.feasible and report_b.feasible):
            continue
        ids.append(cohort_id)
        a_vals.append(report_a.value(metric))
        b_vals.append(report_b.value(metric))
    return PairedSample(tuple(ids), tuple(a_vals), tuple(b_vals))


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float  # W+, the sum of ranks of positive differences
    p_value: float
    n: int  # sample size after dropping zero differences
    method: str  # "exact" or "normal"
    degenerate: bool = False


def _signed_ranks(diffs) -> tuple[list[float], list[float]]:
    """Average ranks of |d| for nonzero d, paired with the signs."""
    nonzero = [d for d in diffs if d != 0]
    order = sorted(range(len(nonzero)), key=lambda i: abs(nonzero[i]))
    ranks = [0.0] * len(nonzero)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and abs(nonzero[order[j + 1]]) == abs(nonzero[order[i]]):
            j += 1
        avg = (i + j) / 2 + 1  # ranks are 1-based
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    signs = [1.0 if d > 0 else -1.0 for d in nonzero]
    return ranks, signs


def wilcoxon_signed_rank(diffs) -> WilcoxonResult:
    """Two-sided signed-rank test on paired differences.

    Zero differences are dropped before ranking. If everything is zero
    the result is degenerate with p = 1. Up to n = 12 the p-value is
    exact: average ranks are multiples of 1/2, so the doubled ranks are
    integers, and counts[w] is the number of the 2^n sign assignments
    whose doubled W+ is w. Beyond that the normal approximation applies,
    with a continuity correction and the usual tie correction on the
    variance.
    """
    diffs = [float(d) for d in diffs]
    ranks, signs = _signed_ranks(diffs)
    n = len(ranks)
    if n == 0:
        return WilcoxonResult(statistic=0.0, p_value=1.0, n=0, method="degenerate", degenerate=True)
    w_plus = sum(r for r, s in zip(ranks, signs) if s > 0)
    if n <= EXACT_WILCOXON_MAX_N:
        doubled = [round(2 * r) for r in ranks]
        observed = sum(d for d, s in zip(doubled, signs) if s > 0)
        counts = [1] + [0] * sum(doubled)
        for d in doubled:
            for w in range(len(counts) - 1, d - 1, -1):
                counts[w] += counts[w - d]
        le = sum(counts[: observed + 1])  # assignments with W+ <= observed
        ge = sum(counts[observed:])  # assignments with W+ >= observed
        p = min(1.0, 2.0 * min(le, ge) / (1 << n))
        return WilcoxonResult(statistic=w_plus, p_value=p, n=n, method="exact")
    mean = n * (n + 1) / 4
    tie_counts = {}
    for r in ranks:
        tie_counts[r] = tie_counts.get(r, 0) + 1
    tie_term = sum(t**3 - t for t in tie_counts.values())
    var = (n * (n + 1) * (2 * n + 1) - tie_term / 2) / 24
    if var <= 0:
        return WilcoxonResult(statistic=w_plus, p_value=1.0, n=n, method="normal", degenerate=True)
    # continuity correction toward the mean
    z = (w_plus - mean - 0.5 * math.copysign(1.0, w_plus - mean)) / math.sqrt(var)
    if w_plus == mean:
        z = 0.0
    p = min(1.0, math.erfc(abs(z) / math.sqrt(2)))
    return WilcoxonResult(statistic=w_plus, p_value=p, n=n, method="normal")


def cohens_d(a, b) -> float:
    """Pooled-SD effect size; NaN when the pooled deviation is zero."""
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    if len(a) < 2 or len(b) < 2:
        raise ValueError("cohens_d requires at least two observations per group")
    na, nb = len(a), len(b)
    mean_a, mean_b = sum(a) / na, sum(b) / nb
    var_a = sum((x - mean_a) ** 2 for x in a) / (na - 1)
    var_b = sum((x - mean_b) ** 2 for x in b) / (nb - 1)
    pooled = math.sqrt(((na - 1) * var_a + (nb - 1) * var_b) / (na + nb - 2))
    if pooled == 0:
        return float("nan")
    return (mean_a - mean_b) / pooled


def bootstrap_ci(
    sample,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = DEFAULT_BOOTSTRAP_SEED,
    level: float = 0.95,
) -> tuple[float, float]:
    """Percentile interval of resampled means, deterministic given seed."""
    sample = np.asarray(list(sample), dtype=float)
    if sample.size == 0:
        raise ValueError("bootstrap_ci requires a nonempty sample")
    rng = np.random.Generator(np.random.Philox(seed))
    draws = rng.integers(0, sample.size, size=(resamples, sample.size))
    means = sample[draws].mean(axis=1)
    lo = float(np.percentile(means, (1 - level) / 2 * 100))
    hi = float(np.percentile(means, (1 + level) / 2 * 100))
    return lo, hi


def assign_winner(
    p_value: float,
    mean_a: float,
    mean_b: float,
    direction: str,
    alpha: float = DEFAULT_ALPHA,
) -> str:
    """A or B when significant and better under the metric direction, else tie."""
    if p_value >= alpha or mean_a == mean_b:
        return "tie"
    a_better = mean_a > mean_b if direction == "higher" else mean_a < mean_b
    return "A" if a_better else "B"


@dataclass(frozen=True)
class ComparisonReport:
    framework: str
    metric: str
    n: int
    mean_a: float
    mean_b: float
    ci_a: tuple[float, float]
    ci_b: tuple[float, float]
    p_value: float
    effect_size: float
    significant: bool
    winner: str
    degenerate: bool = False

    def to_json(self) -> dict:
        return {
            "framework": self.framework,
            "metric": self.metric,
            "n": self.n,
            "mean_a": self.mean_a,
            "mean_b": self.mean_b,
            "ci_a": list(self.ci_a),
            "ci_b": list(self.ci_b),
            "p_value": self.p_value,
            "effect_size": self.effect_size,
            "significant": self.significant,
            "winner": self.winner,
            "degenerate": self.degenerate,
        }


def cell_seed(master_seed: int, framework: str, metric: str) -> int:
    """Stable per-cell bootstrap seed, independent of execution order."""
    mixed = master_seed
    for token in (framework, metric):
        for byte in token.encode("utf-8"):
            mixed = splitmix64(mixed ^ byte)
    return mixed


def compare_cell(
    sample: PairedSample,
    framework: str,
    metric: str,
    alpha: float = DEFAULT_ALPHA,
    resamples: int = DEFAULT_RESAMPLES,
    bootstrap_seed: int = DEFAULT_BOOTSTRAP_SEED,
) -> ComparisonReport:
    """Full comparison for one (framework, metric) cell; the p-value is
    the signed-rank test's."""
    if sample.n == 0:
        return ComparisonReport(
            framework=framework, metric=metric, n=0,
            mean_a=float("nan"), mean_b=float("nan"),
            ci_a=(float("nan"), float("nan")), ci_b=(float("nan"), float("nan")),
            p_value=1.0, effect_size=float("nan"),
            significant=False, winner="tie", degenerate=True,
        )
    mean_a = sum(sample.a_values) / sample.n
    mean_b = sum(sample.b_values) / sample.n
    wilcoxon = wilcoxon_signed_rank(sample.diffs)
    p = wilcoxon.p_value
    d = cohens_d(sample.a_values, sample.b_values) if sample.n >= 2 else float("nan")
    ci_a = bootstrap_ci(sample.a_values, resamples, bootstrap_seed)
    ci_b = bootstrap_ci(sample.b_values, resamples, bootstrap_seed)
    winner = assign_winner(p, mean_a, mean_b, METRIC_DIRECTIONS[metric], alpha)
    return ComparisonReport(
        framework=framework, metric=metric, n=sample.n,
        mean_a=mean_a, mean_b=mean_b, ci_a=ci_a, ci_b=ci_b,
        p_value=p, effect_size=d,
        significant=p < alpha, winner=winner,
        degenerate=wilcoxon.degenerate,
    )


CSV_COLUMNS = (
    "framework", "metric", "n", "mean_a", "mean_b",
    "ci_a_lo", "ci_a_hi", "ci_b_lo", "ci_b_hi", "p", "d", "winner",
)


def aggregate_results(reports) -> list[ComparisonReport]:
    """Order reports into the framework-by-metric grid used for rendering.

    Missing cells simply stay absent; nothing is fabricated for them.
    """
    def key(r: ComparisonReport):
        metric_rank = METRIC_NAMES.index(r.metric)
        return (r.framework, metric_rank)

    return sorted(reports, key=key)


def results_to_csv(reports) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in aggregate_results(reports):
        writer.writerow(
            [
                r.framework, r.metric, r.n,
                repr(r.mean_a), repr(r.mean_b),
                repr(r.ci_a[0]), repr(r.ci_a[1]),
                repr(r.ci_b[0]), repr(r.ci_b[1]),
                repr(r.p_value), repr(r.effect_size), r.winner,
            ]
        )
    return buffer.getvalue()


def results_to_markdown(reports) -> str:
    lines = [
        "| framework | metric | direction | n | mean A | mean opp. | p | d | winner |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for r in aggregate_results(reports):
        arrow = "higher" if METRIC_DIRECTIONS[r.metric] == "higher" else "lower"
        lines.append(
            f"| {r.framework} | {r.metric} | {arrow} | {r.n} "
            f"| {r.mean_a:.4f} | {r.mean_b:.4f} "
            f"| {r.p_value:.4g} | {r.effect_size:.3f} | {r.winner} |"
        )
    return "\n".join(lines) + "\n"
