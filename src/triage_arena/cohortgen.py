"""Seeded cohort generation from archetype slot definitions.

Every cohort is a pure function of (seed, config). Randomness comes from
numpy's Philox generator, a counter-based PRNG whose streams are
platform independent, so batches regenerate identically anywhere. Batch
member b uses seed ``master_seed XOR splitmix64(b)``, which makes each
cohort independent of the others and safe to generate in parallel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .model import (
    DATA,
    Cohort,
    Patient,
    Resource,
    capacity_for_variant,
    discretize_survival,
)

__all__ = [
    "ArchetypeSlot",
    "SamplerConfig",
    "CohortGenerationError",
    "splitmix64",
    "derive_seed",
    "slots_from_json",
    "default_slots",
    "generate_cohort",
    "generate_batch",
    "discretize_survival",
]

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixer; fixed constants, 64-bit wraparound."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Per-cohort seed: master XOR mixed index. Documented splitting rule."""
    return (master_seed & _MASK64) ^ splitmix64(index)


class CohortGenerationError(RuntimeError):
    pass


@dataclass(frozen=True)
class ConditionVariant:
    name: str
    needs: frozenset[Resource]

    def __post_init__(self):
        if not self.needs:
            raise ValueError(f"condition {self.name!r} has an empty needs set")


@dataclass(frozen=True)
class ArchetypeSlot:
    """A fixed cohort position encoding one ethical tension.

    Gender options are weighted; the other categorical options are drawn
    uniformly. Survival is uniform on the slot's range.
    """

    slot_id: str
    age_range: tuple[int, int]
    gender_options: tuple[tuple[str, float], ...]
    race_options: tuple[str, ...]
    ses_options: tuple[str, ...]
    citizenship_options: tuple[str, ...]
    condition_variants: tuple[ConditionVariant, ...]
    survival_range: tuple[float, float]
    occupation_options: tuple[str, ...]
    family_options: tuple[str, ...]
    tension_tag: str = ""

    def __post_init__(self):
        if self.age_range[0] > self.age_range[1]:
            raise ValueError(f"{self.slot_id}: empty age range")
        if not (0.0 <= self.survival_range[0] <= self.survival_range[1] <= 1.0):
            raise ValueError(f"{self.slot_id}: survival range outside [0, 1]")
        for opts, name in [
            (self.gender_options, "gender"),
            (self.race_options, "race"),
            (self.ses_options, "ses"),
            (self.citizenship_options, "citizenship"),
            (self.condition_variants, "condition"),
            (self.occupation_options, "occupation"),
            (self.family_options, "family"),
        ]:
            if not opts:
                raise ValueError(f"{self.slot_id}: empty {name} options")

    @classmethod
    def from_json(cls, obj: dict) -> "ArchetypeSlot":
        return cls(
            slot_id=obj["slot_id"],
            age_range=tuple(obj["age_range"]),
            gender_options=tuple(sorted(obj["gender_options"].items())),
            race_options=tuple(obj["race_options"]),
            ses_options=tuple(obj["ses_options"]),
            citizenship_options=tuple(obj["citizenship_options"]),
            condition_variants=tuple(
                ConditionVariant(
                    name=v["name"],
                    needs=frozenset(Resource.from_label(r) for r in v["needs"]),
                )
                for v in obj["condition_variants"]
            ),
            survival_range=tuple(obj["survival_range"]),
            occupation_options=tuple(obj["occupation_options"]),
            family_options=tuple(obj["family_options"]),
            tension_tag=obj.get("tension_tag", ""),
        )


def slots_from_json(obj: dict) -> tuple[ArchetypeSlot, ...]:
    """The slots of a decoded slots file ({"slots": [...]})."""
    return tuple(ArchetypeSlot.from_json(s) for s in obj["slots"])


def default_slots() -> tuple[ArchetypeSlot, ...]:
    return slots_from_json(json.loads((DATA / "slots.json").read_text(encoding="utf-8")))


@dataclass(frozen=True)
class SamplerConfig:
    master_seed: int = 42
    batch_size: int = 50
    capacity_variant: str = "standard"
    slots: tuple[ArchetypeSlot, ...] = field(default_factory=default_slots)
    max_resample_attempts: int = 100

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not self.slots:
            raise ValueError("at least one archetype slot is required")

    @property
    def cohort_size(self) -> int:
        return len(self.slots)


def _draw_patient(rng: np.random.Generator, slot: ArchetypeSlot) -> dict:
    # Draw order is fixed; changing it changes every downstream cohort.
    age = int(rng.integers(slot.age_range[0], slot.age_range[1] + 1))
    genders = [g for g, _ in slot.gender_options]
    gweights = np.array([w for _, w in slot.gender_options], dtype=float)
    gender = genders[int(rng.choice(len(genders), p=gweights / gweights.sum()))]
    race = slot.race_options[int(rng.integers(len(slot.race_options)))]
    ses = slot.ses_options[int(rng.integers(len(slot.ses_options)))]
    citizenship = slot.citizenship_options[int(rng.integers(len(slot.citizenship_options)))]
    variant = slot.condition_variants[int(rng.integers(len(slot.condition_variants)))]
    lo, hi = slot.survival_range
    survival = float(rng.uniform(lo, hi))
    occupation = slot.occupation_options[int(rng.integers(len(slot.occupation_options)))]
    family = slot.family_options[int(rng.integers(len(slot.family_options)))]
    return {
        "age": age,
        "gender": gender,
        "race": race,
        "ses": ses,
        "citizenship": citizenship,
        "condition": variant.name,
        "needs": variant.needs,
        "survival_prob": survival,
        "occupation": occupation,
        "family_status": family,
        "slot_id": slot.slot_id,
    }


def generate_cohort(seed: int, config: SamplerConfig, cohort_id: int = 0) -> Cohort:
    """Generate one cohort, one patient per slot, fully determined by seed.

    Cohorts whose patients collide on the full demographic tuple
    (age, gender, race, ses, citizenship) are rejected and resampled, up
    to max_resample_attempts.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    capacity = capacity_for_variant(config.capacity_variant)
    n = config.cohort_size
    for _ in range(config.max_resample_attempts):
        draws = [_draw_patient(rng, slot) for slot in config.slots]
        order = [int(i) for i in rng.permutation(n)]
        keys = {
            (d["age"], d["gender"], d["race"], d["ses"], d["citizenship"])
            for d in draws
        }
        if len(keys) < n:
            continue
        patients = []
        for patient_id, slot_index in enumerate(order, start=1):
            d = draws[slot_index]
            patients.append(
                Patient(
                    id=patient_id,
                    survival_label=discretize_survival(d["survival_prob"]),
                    **d,
                )
            )
        return Cohort(
            cohort_id=cohort_id, seed=seed, patients=tuple(patients), capacity=capacity
        )
    raise CohortGenerationError(
        f"diversity constraint unsatisfiable within "
        f"{config.max_resample_attempts} attempts for seed {seed}"
    )


def generate_batch(config: SamplerConfig) -> list[Cohort]:
    """Generate batch_size cohorts with independently derived seeds.

    Cohort b depends only on derive_seed(master_seed, b), never on the
    other cohorts, so results are identical under any execution order.
    """
    cohorts = []
    for b in range(config.batch_size):
        seed = derive_seed(config.master_seed, b)
        try:
            cohorts.append(generate_cohort(seed, config, cohort_id=b))
        except CohortGenerationError as exc:
            raise CohortGenerationError(f"cohort {b}: {exc}") from exc
    return cohorts
