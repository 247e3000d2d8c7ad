from __future__ import annotations

import math

import numpy as np
import pytest

from triage_arena import cohortgen
from triage_arena.cohortgen import (
    ArchetypeSlot,
    CohortGenerationError,
    ConditionVariant,
    SamplerConfig,
    default_slots,
    derive_seed,
    discretize_survival,
    generate_batch,
    generate_cohort,
    splitmix64,
)
from triage_arena.model import Resource, canonical_json


def tiny_slot(slot_id: str, gender: str, race: str) -> ArchetypeSlot:
    return ArchetypeSlot(
        slot_id=slot_id,
        age_range=(30, 40),
        gender_options=((gender, 1.0),),
        race_options=(race,),
        ses_options=("Middle",),
        citizenship_options=("Citizen",),
        condition_variants=(
            ConditionVariant(name="Condition", needs=frozenset({Resource.ICU})),
        ),
        survival_range=(0.5, 0.6),
        occupation_options=("Worker",),
        family_options=("None",),
    )


class TestSeedSplitting:
    def test_splitmix_is_fixed(self):
        # pinned values so the splitting rule can never drift silently
        assert splitmix64(0) == 16294208416658607535
        assert splitmix64(1) == 10451216379200822465

    def test_derived_seeds_distinct(self):
        seeds = {derive_seed(42, b) for b in range(1000)}
        assert len(seeds) == 1000


class TestGenerateCohort:
    def test_same_seed_same_config_byte_identical(self, sampler_config):
        a = generate_cohort(99, sampler_config)
        b = generate_cohort(99, sampler_config)
        assert canonical_json(a.to_json()) == canonical_json(b.to_json())

    def test_different_seeds_differ(self, sampler_config):
        a = generate_cohort(1, sampler_config)
        b = generate_cohort(2, sampler_config)
        assert canonical_json(a.to_json()) != canonical_json(b.to_json())

    def test_one_patient_per_slot(self, sampler_config):
        cohort = generate_cohort(7, sampler_config)
        assert sorted(p.slot_id for p in cohort.patients) == sorted(
            s.slot_id for s in sampler_config.slots
        )

    def test_disjoint_options_satisfy_diversity_immediately(self, monkeypatch):
        monkeypatch.setattr(cohortgen, "MAX_RESAMPLE_ATTEMPTS", 1)
        slots = tuple(
            tiny_slot(f"slot_{i}", gender, race)
            for i, (gender, race) in enumerate(
                [("Male", "White"), ("Female", "Black"), ("Non-binary", "Asian")]
            )
        )
        config = SamplerConfig(master_seed=0, batch_size=1, slots=slots)
        cohort = generate_cohort(5, config)
        assert cohort.n == 3

    def test_unsatisfiable_diversity_reports_seed(self, monkeypatch):
        monkeypatch.setattr(cohortgen, "MAX_RESAMPLE_ATTEMPTS", 3)
        # two slots with a single identical option tuple can never be diverse
        slots = (tiny_slot("slot_a", "Male", "White"), tiny_slot("slot_b", "Male", "White"))
        # force age collision by collapsing the range
        slots = tuple(
            ArchetypeSlot(
                slot_id=s.slot_id,
                age_range=(35, 35),
                gender_options=s.gender_options,
                race_options=s.race_options,
                ses_options=s.ses_options,
                citizenship_options=s.citizenship_options,
                condition_variants=s.condition_variants,
                survival_range=s.survival_range,
                occupation_options=s.occupation_options,
                family_options=s.family_options,
            )
            for s in slots
        )
        config = SamplerConfig(master_seed=0, batch_size=1, slots=slots)
        with pytest.raises(CohortGenerationError, match="3 attempts for seed 5"):
            generate_cohort(5, config)

    def test_labels_consistent_with_probabilities(self, sampler_config):
        rng = np.random.Generator(np.random.Philox(41))
        for _ in range(100):
            cohort = generate_cohort(int(rng.integers(2**32)), sampler_config)
            for p in cohort.patients:
                assert p.survival_label == discretize_survival(p.survival_prob)

    def test_ages_within_slot_ranges(self, sampler_config):
        slots = {s.slot_id: s for s in sampler_config.slots}
        for seed in range(40):
            cohort = generate_cohort(seed, sampler_config)
            for p in cohort.patients:
                slot = slots[p.slot_id]
                assert slot.age_range[0] <= p.age <= slot.age_range[1]
                assert slot.survival_range[0] <= p.survival_prob <= slot.survival_range[1]


class TestGenerateBatch:
    def test_single_batch_is_composition(self, sampler_config):
        config = SamplerConfig(master_seed=42, batch_size=1)
        batch = generate_batch(config)
        direct = generate_cohort(derive_seed(42, 0), config, cohort_id=0)
        assert canonical_json(batch[0].to_json()) == canonical_json(direct.to_json())

    def test_batch_ids_run_from_zero(self):
        config = SamplerConfig(master_seed=42, batch_size=50)
        batch = generate_batch(config)
        assert [c.cohort_id for c in batch] == list(range(50))

    def test_isolated_regeneration_matches_batch_member(self):
        config = SamplerConfig(master_seed=42, batch_size=10)
        batch = generate_batch(config)
        b = 7
        lone = generate_cohort(derive_seed(42, b), config, cohort_id=b)
        assert canonical_json(lone.to_json()) == canonical_json(batch[b].to_json())

    def test_generation_error_names_the_failing_index(self, monkeypatch):
        monkeypatch.setattr(cohortgen, "MAX_RESAMPLE_ATTEMPTS", 2)
        colliding = ArchetypeSlot(
            slot_id="s",
            age_range=(35, 35),
            gender_options=(("Male", 1.0),),
            race_options=("White",),
            ses_options=("Middle",),
            citizenship_options=("Citizen",),
            condition_variants=(
                ConditionVariant(name="C", needs=frozenset({Resource.ICU})),
            ),
            survival_range=(0.5, 0.5),
            occupation_options=("W",),
            family_options=("F",),
        )
        twin = ArchetypeSlot(**{**colliding.__dict__, "slot_id": "t"})
        config = SamplerConfig(master_seed=9, batch_size=4, slots=(colliding, twin))
        with pytest.raises(CohortGenerationError, match="cohort 0"):
            generate_batch(config)


class TestMarginals:
    def test_gender_marginals_converge(self):
        # one slot, 10k draws: each option within 3 standard errors of its weight
        slot = ArchetypeSlot(
            slot_id="slot_m",
            age_range=(20, 30),
            gender_options=(("Male", 0.5), ("Female", 0.3), ("Non-binary", 0.2)),
            race_options=("White",),
            ses_options=("Middle",),
            citizenship_options=("Citizen",),
            condition_variants=(
                ConditionVariant(name="C", needs=frozenset({Resource.NURSING})),
            ),
            survival_range=(0.8, 0.9),
            occupation_options=("W",),
            family_options=("F",),
        )
        config = SamplerConfig(master_seed=0, batch_size=1, slots=(slot,))
        counts = {"Male": 0, "Female": 0, "Non-binary": 0}
        draws = 10_000
        for seed in range(draws):
            cohort = generate_cohort(seed, config)
            counts[cohort.patients[0].gender] += 1
        for option, weight in slot.gender_options:
            se = math.sqrt(weight * (1 - weight) / draws)
            assert abs(counts[option] / draws - weight) < 3 * se


class TestDefaultSlots:
    def test_eight_slots_with_known_needs(self):
        slots = default_slots()
        assert len(slots) == 8
        by_id = {s.slot_id: s for s in slots}
        trauma = by_id["slot_1_life_years"].condition_variants[0]
        assert trauma.needs == frozenset(
            {Resource.ICU, Resource.VENT, Resource.NURSING}
        )
        cancer = by_id["slot_3_family_resource"].condition_variants[0]
        assert cancer.needs == frozenset(
            {Resource.SURGERY, Resource.MED_A, Resource.NURSING, Resource.ICU}
        )
        pediatric = by_id["slot_4_citizenship_pediatric"]
        assert all(c != "Citizen" for c in pediatric.citizenship_options)

    def test_every_variant_needs_nonempty(self):
        for slot in default_slots():
            for variant in slot.condition_variants:
                assert variant.needs
