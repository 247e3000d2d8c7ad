"""Fairness metrics over allocations.

Every metric is a function of the per-patient need-satisfaction scores
(CNSS). CNSS_i is the fraction of patient i's needed resources that
received a strictly positive quantity, so all metrics are invariant to
the magnitude of positive entries.

The six metrics and their optimization directions:

  esg       sum_i p_i * CNSS_i                      higher is better
  rmg       min_i CNSS_i                            higher is better
  variance  population variance of CNSS             lower is better
  dw_esg    sum_i w_i(prioritarian) * p_i * CNSS_i  higher is better
  vwci      sum_i w_i(care) * CNSS_i                higher is better
  gini      concentration index of CNSS             lower is better
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from importlib import resources as _resources

from .model import Allocation, Cohort, Patient, validate_allocation

__all__ = [
    "CnssVector",
    "WeightKind",
    "WeightScheme",
    "MetricConfig",
    "MetricReport",
    "METRIC_NAMES",
    "METRIC_DIRECTIONS",
    "FRAMEWORK_METRIC",
    "cnss",
    "cnss_vector",
    "esg",
    "rmg",
    "variance",
    "dw_esg",
    "vwci",
    "gini",
    "compute_weights",
    "metric_report",
    "metric_reports",
]

METRIC_NAMES = ("esg", "rmg", "variance", "dw_esg", "vwci", "gini")

# Direction metadata consumed by the stats pipeline when assigning winners.
METRIC_DIRECTIONS = {
    "esg": "higher",
    "rmg": "higher",
    "variance": "lower",
    "dw_esg": "higher",
    "vwci": "higher",
    "gini": "lower",
}

# Which metric is the primary lens for each framework.
FRAMEWORK_METRIC = {
    "Utilitarian": "esg",
    "Rawlsian": "rmg",
    "Libertarian": "variance",
    "Prioritarian": "dw_esg",
    "CareEthics": "vwci",
    "Egalitarian": "gini",
}


@dataclass(frozen=True)
class CnssVector:
    """Per-patient need-satisfaction scores, each in [0, 1]."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise ValueError("CNSS vector must be nonempty")
        if any(v < 0 or v > 1 for v in self.values):
            raise ValueError("CNSS entries must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.values)


class WeightKind(enum.Enum):
    PRIORITARIAN = "prioritarian"
    CARE = "care"


@dataclass(frozen=True)
class WeightScheme:
    """Per-patient disadvantage weights, deterministic in cohort and config."""

    kind: WeightKind
    weights: tuple[float, ...]

    def __post_init__(self):
        if any(w <= 0 or w > 1 for w in self.weights):
            raise ValueError("weights must lie in (0, 1]")


@dataclass(frozen=True)
class MetricConfig:
    """Declarative scoring tables behind the weighted metrics.

    attribute_scores maps each categorical attribute value to a
    disadvantage score in [0, 1] (higher means historically more
    disadvantaged). age_bands is a list of (upper_age, score) pairs
    checked in order. kind_weights gives the per-attribute mixing
    weights for each weight kind. The final per-patient weight is
    floor + scale * (weighted mean of attribute scores), keeping
    weights strictly positive.
    """

    attribute_scores: dict
    age_bands: tuple[tuple[int, float], ...]
    kind_weights: dict
    floor: float = 0.1
    scale: float = 0.9

    @classmethod
    def from_json(cls, obj: dict) -> "MetricConfig":
        return cls(
            attribute_scores=obj["attribute_scores"],
            age_bands=tuple((int(a), float(s)) for a, s in obj["age_bands"]),
            kind_weights=obj["kind_weights"],
            floor=obj.get("floor", 0.1),
            scale=obj.get("scale", 0.9),
        )

    @classmethod
    def default(cls) -> "MetricConfig":
        global _DEFAULT_CONFIG
        if _DEFAULT_CONFIG is None:
            text = (
                _resources.files("triage_arena")
                .joinpath("data/attribute_scores.json")
                .read_text(encoding="utf-8")
            )
            _DEFAULT_CONFIG = cls.from_json(json.loads(text))
        return _DEFAULT_CONFIG


_DEFAULT_CONFIG: "MetricConfig | None" = None


def cnss(patient: Patient, row) -> float:
    """Fraction of the patient's needed resources with a positive quantity."""
    if not patient.needs:
        raise ValueError(f"patient {patient.id} has an empty needs set")
    hits = sum(1 for r in patient.needs if row[r] > 0)
    return hits / len(patient.needs)


def cnss_vector(cohort: Cohort, alloc: Allocation) -> CnssVector:
    if alloc.n != cohort.n:
        raise ValueError(
            f"allocation has {alloc.n} rows for a cohort of {cohort.n} patients"
        )
    return CnssVector(
        tuple(cnss(p, alloc.rows[i]) for i, p in enumerate(cohort.patients))
    )


def esg(cohort: Cohort, alloc: Allocation) -> float:
    """Expected survival gain: survival-weighted sum of CNSS."""
    return _esg_of(cohort, cnss_vector(cohort, alloc))


def _esg_of(cohort: Cohort, vec: CnssVector) -> float:
    return sum(p.survival_prob * c for p, c in zip(cohort.patients, vec.values))


def rmg(vec: CnssVector) -> float:
    """Minimum guarantee: the worst-served patient's CNSS."""
    return min(vec.values)


def variance(vec: CnssVector) -> float:
    """Population variance (1/N normalization) of the CNSS scores."""
    n = len(vec)
    mean = sum(vec.values) / n
    return sum((v - mean) ** 2 for v in vec.values) / n


def dw_esg(cohort: Cohort, vec: CnssVector, weights: WeightScheme) -> float:
    """Disadvantage-weighted ESG under prioritarian weights."""
    if weights.kind is not WeightKind.PRIORITARIAN:
        raise ValueError(f"dw_esg requires prioritarian weights, got {weights.kind}")
    if len(weights.weights) != cohort.n or len(vec) != cohort.n:
        raise ValueError("weight and CNSS lengths must match the cohort size")
    return sum(
        w * p.survival_prob * c
        for w, p, c in zip(weights.weights, cohort.patients, vec.values)
    )


def vwci(vec: CnssVector, weights: WeightScheme) -> float:
    """Vulnerability-weighted care intensity under care weights."""
    if weights.kind is not WeightKind.CARE:
        raise ValueError(f"vwci requires care weights, got {weights.kind}")
    if len(weights.weights) != len(vec):
        raise ValueError("weight and CNSS lengths must match")
    return sum(w * c for w, c in zip(weights.weights, vec.values))


def gini(h) -> float:
    """Concentration index of a nonnegative vector.

    G = 2 * sum_i i * h_(i) / (N * sum_i h_(i)) - (N + 1) / N with h sorted
    nondecreasing and i counted from 1. Zero for perfectly equal vectors,
    (N - 1) / N when one holder has everything. An all-zero vector is
    defined as 0 (callers can flag this degenerate case).
    """
    values = [float(v) for v in h]
    if not values:
        raise ValueError("gini requires a nonempty vector")
    if any(v < 0 for v in values):
        raise ValueError("gini requires nonnegative entries")
    total = sum(values)
    if total == 0:
        return 0.0
    n = len(values)
    ordered = sorted(values)
    if ordered[0] == ordered[-1]:
        return 0.0  # equal vectors are exactly 0, without float residue
    weighted = sum((i + 1) * v for i, v in enumerate(ordered))
    return 2.0 * weighted / (n * total) - (n + 1) / n


def _score_for(attribute: str, value, config: MetricConfig) -> float:
    if attribute == "age":
        for upper, score in config.age_bands:
            if value <= upper:
                return score
        raise ValueError(f"age {value} not covered by any age band")
    table = config.attribute_scores.get(attribute)
    if table is None:
        raise ValueError(f"no score table for attribute {attribute!r}")
    if value not in table:
        raise ValueError(
            f"attribute value {value!r} missing from the {attribute} score table"
        )
    return float(table[value])


def compute_weights(cohort: Cohort, kind: WeightKind, config: MetricConfig) -> WeightScheme:
    """Derive per-patient weights from demographic disadvantage scores.

    Each attribute value maps to a score in [0, 1]; the raw patient score
    is the kind-specific weighted mean of those scores, and the final
    weight is floor + scale * raw. Prioritarian mixing emphasizes SES,
    care mixing emphasizes age and gender.
    """
    mix = config.kind_weights[kind.value]
    weights = []
    for p in cohort.patients:
        raw = (
            mix["ses"] * _score_for("ses", p.ses, config)
            + mix["citizenship"] * _score_for("citizenship", p.citizenship, config)
            + mix["race"] * _score_for("race", p.race, config)
            + mix["age"] * _score_for("age", p.age, config)
            + mix["gender"] * _score_for("gender", p.gender, config)
        )
        weights.append(config.floor + config.scale * raw)
    return WeightScheme(kind=kind, weights=tuple(weights))


@dataclass(frozen=True)
class MetricReport:
    """All six metrics plus feasibility for one allocation."""

    esg: float
    rmg: float
    variance: float
    dw_esg: float
    vwci: float
    gini: float
    feasible: bool
    cnss: CnssVector
    gini_degenerate: bool = False

    def value(self, metric: str) -> float:
        if metric not in METRIC_NAMES:
            raise ValueError(f"unknown metric {metric!r}")
        return getattr(self, metric)

    def to_json(self) -> dict:
        return {
            "esg": self.esg,
            "rmg": self.rmg,
            "variance": self.variance,
            "dw_esg": self.dw_esg,
            "vwci": self.vwci,
            "gini": self.gini,
            "feasible": self.feasible,
            "cnss": list(self.cnss.values),
            "gini_degenerate": self.gini_degenerate,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MetricReport":
        return cls(
            esg=obj["esg"],
            rmg=obj["rmg"],
            variance=obj["variance"],
            dw_esg=obj["dw_esg"],
            vwci=obj["vwci"],
            gini=obj["gini"],
            feasible=obj["feasible"],
            cnss=CnssVector(tuple(obj["cnss"])),
            gini_degenerate=obj.get("gini_degenerate", False),
        )


def metric_report(cohort: Cohort, alloc: Allocation, config: MetricConfig | None = None) -> MetricReport:
    """Compute CNSS once, then all six metrics plus feasibility."""
    return metric_reports(cohort, [alloc], config)[0]


def metric_reports(cohort: Cohort, allocs, config: MetricConfig | None = None) -> list[MetricReport]:
    """One MetricReport per allocation of the cohort, in order.

    The weights depend only on the cohort and the config, so both
    schemes are computed once for all the allocations. Equal allocations
    share one report, computed once.
    """
    if config is None:
        config = MetricConfig.default()
    w_prior = compute_weights(cohort, WeightKind.PRIORITARIAN, config)
    w_care = compute_weights(cohort, WeightKind.CARE, config)
    by_alloc: dict[Allocation, MetricReport] = {}
    reports = []
    for alloc in allocs:
        report = by_alloc.get(alloc)
        if report is None:
            vec = cnss_vector(cohort, alloc)
            report = by_alloc[alloc] = MetricReport(
                esg=_esg_of(cohort, vec),
                rmg=rmg(vec),
                variance=variance(vec),
                dw_esg=dw_esg(cohort, vec, w_prior),
                vwci=vwci(vec, w_care),
                gini=gini(vec.values),
                feasible=validate_allocation(alloc, cohort.capacity).feasible,
                cnss=vec,
                gini_degenerate=sum(vec.values) == 0,
            )
        reports.append(report)
    return reports
