"""Core domain types for the constrained triage allocation problem.

An allocation assigns nonnegative quantities of K resources to N patients.
It is feasible when every per-resource column total stays within the
available supply. All types here are immutable value objects: they can be
shared freely between threads and serialized to JSON without loss.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from importlib import resources
from itertools import chain
from json.encoder import encode_basestring as _encode_str

__all__ = [
    "RESOURCE_NAMES",
    "Resource",
    "Framework",
    "ProfileKind",
    "AgentProfile",
    "ResourceCapacity",
    "CAPACITY_VARIANTS",
    "capacity_for_variant",
    "SURVIVAL_BINS",
    "discretize_survival",
    "Patient",
    "Cohort",
    "Allocation",
    "FeasibilityResult",
    "validate_allocation",
    "column_totals",
    "FEASIBILITY_TOL",
    "canonical_json",
    "TransportError",
]

# Canonical resource ordering. Serialized matrices always use this column order.
RESOURCE_NAMES = ("ICU", "Vent", "MedA", "MedB", "Nursing", "Surgery")

# The packaged data directory: preambles, schemas, fixtures and tables.
DATA = resources.files(__package__) / "data"

# Absolute tolerance on column sums when checking feasibility. Quantities in
# real transcripts are small integers, so this cannot flip a verdict on them.
FEASIBILITY_TOL = 1e-9

# `_IS_NEGATIVE(v)` is `v < 0` as a builtin, for map() over many entries
_IS_NEGATIVE = (0.0).__gt__


class TransportError(RuntimeError):
    """A chat or embedding endpoint could not be reached or answered in
    error; the base of `ChatTransportError` and `RemoteEmbedderError`."""


class Resource(enum.IntEnum):
    """The six resource kinds, in canonical column order."""

    ICU = 0
    VENT = 1
    MED_A = 2
    MED_B = 3
    NURSING = 4
    SURGERY = 5

    @property
    def label(self) -> str:
        return RESOURCE_NAMES[self.value]

    @classmethod
    def from_label(cls, label: str) -> "Resource":
        try:
            return cls(RESOURCE_NAMES.index(label))
        except ValueError:
            raise ValueError(f"unknown resource label: {label!r}") from None


class Framework(enum.Enum):
    """Ethical frameworks an aligned agent can be conditioned on."""

    UTILITARIAN = "Utilitarian"
    RAWLSIAN = "Rawlsian"
    EGALITARIAN = "Egalitarian"
    LIBERTARIAN = "Libertarian"
    PRIORITARIAN = "Prioritarian"
    CARE_ETHICS = "CareEthics"


class ProfileKind(enum.Enum):
    ALIGNED = "Aligned"
    BASELINE = "Baseline"
    BIASED = "Biased"


@dataclass(frozen=True)
class AgentProfile:
    """How an agent is conditioned: aligned, plain baseline, or biased
    through an adversarial prompt.

    Aligned profiles require a framework; baseline and biased profiles
    must not carry one.
    """

    kind: ProfileKind
    framework: Framework | None = None
    retrieval_enabled: bool = False

    def __post_init__(self):
        if self.kind is ProfileKind.ALIGNED:
            if self.framework is None:
                raise ValueError("aligned profile requires a framework")
        elif self.framework is not None:
            raise ValueError(
                f"{self.kind.value.lower()} profile must not carry a framework"
            )


# Named capacity variants, selected by name (`gen-cohorts --variant`).
# "abundant" is a uniform scale-up of "standard" that preserves integral
# supplies.
CAPACITY_VARIANTS: dict[str, tuple[float, ...]] = {
    "standard": (3.0, 2.0, 60.0, 50.0, 80.0, 3.0),
    "tight": (2.0, 1.0, 45.0, 35.0, 60.0, 2.0),
    "abundant": (4.0, 3.0, 80.0, 70.0, 100.0, 4.0),
}


@dataclass(frozen=True)
class ResourceCapacity:
    """Available supply of each of the six resources, in the canonical
    order of RESOURCE_NAMES. Every entry must be strictly positive."""

    supply: tuple[float, ...]
    variant: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "supply", tuple(float(s) for s in self.supply))
        if len(self.supply) != len(RESOURCE_NAMES):
            raise ValueError(f"supply lists {len(self.supply)} entries, not {len(RESOURCE_NAMES)}")
        if any(s <= 0 for s in self.supply):
            raise ValueError("every supply entry must be strictly positive")

    def to_json(self) -> dict:
        return {"variant": self.variant, "supply": list(self.supply)}

    @classmethod
    def from_json(cls, obj: dict) -> "ResourceCapacity":
        return cls(supply=tuple(obj["supply"]), variant=obj["variant"])


def capacity_for_variant(variant: str) -> ResourceCapacity:
    """Return the fixed supply vector for a named scarcity variant."""
    try:
        supply = CAPACITY_VARIANTS[variant]
    except KeyError:
        raise ValueError(
            f"unknown capacity variant {variant!r}; expected one of "
            f"{sorted(CAPACITY_VARIANTS)}"
        ) from None
    return ResourceCapacity(supply=supply, variant=variant)


# Survival-probability bins, half-open with the last bin closed at 1.0.
SURVIVAL_BINS = (
    (0.0, 0.2, "Acute"),
    (0.2, 0.5, "Low"),
    (0.5, 0.7, "Mid"),
    (0.7, 1.0, "High"),
)


def discretize_survival(p: float) -> str:
    """Map a survival probability to its categorical label.

    Bins are [0, 0.2) Acute, [0.2, 0.5) Low, [0.5, 0.7) Mid, [0.7, 1.0] High.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"survival probability {p} outside [0, 1]")
    for lo, hi, label in SURVIVAL_BINS:
        if lo <= p < hi:
            return label
    return SURVIVAL_BINS[-1][2]  # p == 1.0


@dataclass(frozen=True)
class Patient:
    """One patient: demographics, clinical condition, and resource needs."""

    id: int
    age: int
    gender: str
    race: str
    ses: str
    citizenship: str
    condition: str
    needs: frozenset[Resource]
    survival_prob: float
    survival_label: str
    occupation: str
    family_status: str
    slot_id: str

    def __post_init__(self):
        object.__setattr__(self, "needs", frozenset(Resource(r) for r in self.needs))
        if not self.needs:
            raise ValueError(f"patient {self.id}: needs set must be nonempty")
        if not 0.0 <= self.survival_prob <= 1.0:
            raise ValueError(f"patient {self.id}: survival_prob outside [0, 1]")
        expected = discretize_survival(self.survival_prob)
        if self.survival_label != expected:
            raise ValueError(
                f"patient {self.id}: survival_label {self.survival_label!r} "
                f"inconsistent with probability {self.survival_prob} "
                f"(expected {expected!r})"
            )

    @property
    def demographic_tuple(self) -> tuple:
        return (self.age, self.gender, self.race, self.ses, self.citizenship)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "age": self.age,
            "gender": self.gender,
            "race": self.race,
            "ses": self.ses,
            "citizenship": self.citizenship,
            "condition": self.condition,
            "needs": [r.label for r in sorted(self.needs)],
            "survival_prob": self.survival_prob,
            "survival_label": self.survival_label,
            "occupation": self.occupation,
            "family_status": self.family_status,
            "slot_id": self.slot_id,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Patient":
        return cls(
            id=obj["id"],
            age=obj["age"],
            gender=obj["gender"],
            race=obj["race"],
            ses=obj["ses"],
            citizenship=obj["citizenship"],
            condition=obj["condition"],
            needs=frozenset(Resource.from_label(s) for s in obj["needs"]),
            survival_prob=obj["survival_prob"],
            survival_label=obj["survival_label"],
            occupation=obj["occupation"],
            family_status=obj["family_status"],
            slot_id=obj["slot_id"],
        )


@dataclass(frozen=True)
class Cohort:
    """An ordered batch of patients plus the capacity they compete for."""

    cohort_id: int
    seed: int
    patients: tuple[Patient, ...]
    capacity: ResourceCapacity

    def __post_init__(self):
        object.__setattr__(self, "patients", tuple(self.patients))
        ids = [p.id for p in self.patients]
        if ids != list(range(1, len(ids) + 1)):
            raise ValueError(f"patient ids must be 1..N with no gaps, got {ids}")
        seen = set()
        for p in self.patients:
            key = p.demographic_tuple
            if key in seen:
                raise ValueError(
                    f"cohort {self.cohort_id}: duplicate demographic tuple {key}"
                )
            seen.add(key)

    @property
    def n(self) -> int:
        return len(self.patients)

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "cohort",
            "cohort_id": self.cohort_id,
            "seed": self.seed,
            "capacity": self.capacity.to_json(),
            "patients": [p.to_json() for p in self.patients],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Cohort":
        return cls(
            cohort_id=obj["cohort_id"],
            seed=obj["seed"],
            patients=tuple(Patient.from_json(p) for p in obj["patients"]),
            capacity=ResourceCapacity.from_json(obj["capacity"]),
        )


@dataclass(frozen=True)
class Allocation:
    """An N x K matrix of nonnegative resource quantities, row per patient."""

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(map(float, row)) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ValueError("allocation must have at least one row")
        k = len(rows[0])
        if any(len(r) != k for r in rows):
            raise ValueError("allocation rows must all have the same length")
        # NaN and -0.0 compare false, so they pass, as a per-entry `v < 0` did
        if any(map(_IS_NEGATIVE, chain.from_iterable(rows))):
            i, j, v = next(
                (i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v < 0
            )
            raise ValueError(f"allocation entry [{i}][{j}] = {v} is negative")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> int:
        return len(self.rows[0])

    def to_json(self) -> list[list[float]]:
        return [list(row) for row in self.rows]

    @classmethod
    def from_json(cls, rows: list[list[float]]) -> "Allocation":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def zeros(cls, n: int, k: int = 6) -> "Allocation":
        return cls(tuple(tuple(0.0 for _ in range(k)) for _ in range(n)))


def column_totals(alloc: Allocation) -> tuple[float, ...]:
    """Per-resource totals over all patients."""
    return tuple(map(sum, zip(*alloc.rows)))


@dataclass(frozen=True)
class FeasibilityResult:
    """Feasibility verdict plus the per-resource overshoots when violated."""

    feasible: bool
    totals: tuple[float, ...]
    violations: tuple[tuple[str, float], ...] = ()

    def to_json(self) -> dict:
        return {
            "feasible": self.feasible,
            "totals": list(self.totals),
            "violations": [[name, amt] for name, amt in self.violations],
        }


def validate_allocation(alloc: Allocation, capacity: ResourceCapacity) -> FeasibilityResult:
    """Check column totals against supply with an absolute tolerance.

    Feasible iff every column total is at most the supply plus
    FEASIBILITY_TOL. Violations report (resource name, overshoot).
    """
    if alloc.k != len(RESOURCE_NAMES):
        raise ValueError(
            f"allocation has {alloc.k} resource columns, capacity has {len(RESOURCE_NAMES)}"
        )
    totals = column_totals(alloc)
    violations = []
    for name, total, supply in zip(RESOURCE_NAMES, totals, capacity.supply):
        overshoot = total - supply
        if overshoot > FEASIBILITY_TOL:
            violations.append((name, overshoot))
    return FeasibilityResult(
        feasible=not violations, totals=totals, violations=tuple(violations)
    )


class _Unhandled(Exception):
    """Input the fast encoder leaves to json.dumps."""


_INF = float("inf")


def _float_str(value: float) -> str:
    # json writes the non-finite floats as JavaScript names
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


# Exact types only: a subclass (str Enum, IntEnum, numpy scalar) is left to json.
_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    float: _float_str,
    bool: ("false", "true").__getitem__,
    type(None): lambda _: "null",
}
_NUMBERS = frozenset((int, float))
_STRS = frozenset((str,))
# (closing newline, newline before an item, separator between items) per
# nesting depth; deeper input raises IndexError and is left to json.
_INDENTS = tuple(
    ("\n" + "  " * depth, "\n" + "  " * (depth + 1), ",\n" + "  " * (depth + 1))
    for depth in range(64)
)


def _write(obj, append, depth: int) -> None:
    """Append the chunks of obj's indented JSON, obj being at nesting depth."""
    t = type(obj)
    if t is dict:
        if not obj:
            append("{}")
            return
        newline, inner, sep = _INDENTS[depth]
        lead = "{" + inner
        # encode_basestring raises TypeError on a non-str key
        for key, value in sorted(obj.items()):
            scalar = _SCALARS.get(type(value))
            if scalar is not None:
                append(f"{lead}{_encode_str(key)}: {scalar(value)}")
            else:
                append(f"{lead}{_encode_str(key)}: ")
                _write(value, append, depth + 1)
            lead = sep
        append(newline + "}")
    elif t is list or t is tuple:
        if not obj:
            append("[]")
            return
        newline, inner, sep = _INDENTS[depth]
        kinds = set(map(type, obj))
        if kinds <= _NUMBERS:
            text = sep.join(map(repr, obj))
            if "n" not in text:  # no nan or inf, which json spells differently
                append(f"[{inner}{text}{newline}]")
                return
        elif kinds == _STRS:
            append(f"[{inner}{sep.join(map(_encode_str, obj))}{newline}]")
            return
        lead = "[" + inner
        for item in obj:
            scalar = _SCALARS.get(type(item))
            if scalar is not None:
                append(lead + scalar(item))
            else:
                append(lead)
                _write(item, append, depth + 1)
            lead = sep
        append(newline + "]")
    else:
        scalar = _SCALARS.get(t)
        if scalar is None:
            raise _Unhandled
        append(scalar(obj))


def canonical_json(obj) -> str:
    """Stable JSON encoding used for all persisted files and hashing.

    The bytes are those of json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False) plus a newline. The shapes the harness writes go
    through a specialised encoder. Any other input (non-str keys, subclasses
    of the JSON types, unserialisable, circular or very deep objects) is
    encoded by json.dumps itself, so its output and exceptions stay the
    stdlib's.
    """
    parts: list[str] = []
    try:
        _write(obj, parts.append, 0)
    except (_Unhandled, TypeError, ValueError, IndexError, RecursionError):
        return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    parts.append("\n")
    return "".join(parts)
