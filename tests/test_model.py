from __future__ import annotations

import enum
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from triage_arena.model import (
    Allocation,
    AgentProfile,
    Cohort,
    Framework,
    ProfileKind,
    RESOURCE_NAMES,
    Resource,
    ResourceCapacity,
    canonical_json,
    capacity_for_variant,
    column_totals,
    discretize_survival,
    validate_allocation,
)

from conftest import make_cohort, make_patient


class TestResource:
    def test_exactly_six_members_in_canonical_order(self):
        assert len(Resource) == 6
        assert [r.label for r in sorted(Resource)] == list(RESOURCE_NAMES)

    def test_label_round_trip(self):
        for r in Resource:
            assert Resource.from_label(r.label) is r

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            Resource.from_label("Beds")

    def test_exactly_six_frameworks(self):
        assert len(Framework) == 6
        assert {f.value for f in Framework} == {
            "Utilitarian", "Rawlsian", "Egalitarian",
            "Libertarian", "Prioritarian", "CareEthics",
        }


class TestCapacity:
    def test_standard_variant(self):
        assert capacity_for_variant("standard").supply == (3, 2, 60, 50, 80, 3)

    def test_tight_variant(self):
        assert capacity_for_variant("tight").supply == (2, 1, 45, 35, 60, 2)

    def test_abundant_variant_dominates_standard(self):
        abundant = capacity_for_variant("abundant").supply
        assert abundant == (4, 3, 80, 70, 100, 4)
        standard = capacity_for_variant("standard").supply
        assert all(a >= s for a, s in zip(abundant, standard))

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown capacity variant"):
            capacity_for_variant("loose")

    def test_positive_supply_required(self):
        with pytest.raises(ValueError, match="strictly positive"):
            ResourceCapacity(supply=(1.0, 1.0, 1.0, 0.0, 1.0, 1.0))

    @pytest.mark.parametrize("length", [0, 1, 5, 7])
    def test_one_supply_per_resource_required(self, length):
        with pytest.raises(ValueError, match=f"supply lists {length} entries"):
            ResourceCapacity(supply=(1.0,) * length)


class TestDiscretizeSurvival:
    @pytest.mark.parametrize(
        "p,label",
        [
            (0.0, "Acute"),
            (0.1, "Acute"),
            (0.2, "Low"),
            (0.49, "Low"),
            (0.5, "Mid"),
            (0.69, "Mid"),
            (0.7, "High"),
            (1.0, "High"),
        ],
    )
    def test_bins(self, p, label):
        assert discretize_survival(p) == label

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_out_of_range(self, p):
        with pytest.raises(ValueError):
            discretize_survival(p)


class TestPatientAndCohort:
    def test_needs_must_be_nonempty(self):
        with pytest.raises(ValueError, match="needs"):
            make_patient(1, needs=())

    def test_label_must_match_probability(self):
        from triage_arena.model import Patient

        with pytest.raises(ValueError, match="inconsistent"):
            Patient(
                id=1, age=30, gender="Male", race="White", ses="Middle",
                citizenship="Citizen", condition="X",
                needs=frozenset({Resource.ICU}),
                survival_prob=0.9, survival_label="Low",
                occupation="", family_status="", slot_id="s",
            )

    def test_ids_must_be_contiguous(self):
        patients = [make_patient(1), make_patient(3, age=50)]
        with pytest.raises(ValueError, match="1..N"):
            make_cohort(patients)

    def test_demographic_duplicates_rejected(self):
        patients = [make_patient(1), make_patient(2)]  # identical demographics
        with pytest.raises(ValueError, match="duplicate demographic"):
            make_cohort(patients)

    def test_serialization_round_trip_is_bit_identical(self, cohort):
        encoded = canonical_json(cohort.to_json())
        decoded = Cohort.from_json(json.loads(encoded))
        assert canonical_json(decoded.to_json()) == encoded
        for original, restored in zip(cohort.patients, decoded.patients):
            assert original.survival_prob == restored.survival_prob
            assert original.needs == restored.needs


class TestAgentProfile:
    def test_aligned_requires_framework(self):
        with pytest.raises(ValueError):
            AgentProfile(kind=ProfileKind.ALIGNED)

    def test_baseline_rejects_framework(self):
        with pytest.raises(ValueError):
            AgentProfile(kind=ProfileKind.BASELINE, framework=Framework.RAWLSIAN)

    def test_biased_rejects_framework(self):
        with pytest.raises(ValueError, match="biased profile must not carry a framework"):
            AgentProfile(kind=ProfileKind.BIASED, framework=Framework.RAWLSIAN)
        assert AgentProfile(kind=ProfileKind.BIASED).framework is None


def _first_negative_message(rows):
    """The entry-by-entry check Allocation made before it scanned rows
    with map(); None when no entry is negative."""
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if float(v) < 0:
                return f"allocation entry [{i}][{j}] = {float(v)} is negative"
    return None


class TestAllocation:
    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Allocation(((0.0, -1.0, 0.0, 0.0, 0.0, 0.0),))

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda k: st.lists(
                st.lists(
                    st.one_of(
                        st.floats(allow_nan=True, allow_infinity=True),
                        st.sampled_from([0.0, -0.0, -1.0, float("nan"), -1e-300]),
                        st.integers(min_value=-3, max_value=3),
                    ),
                    min_size=k,
                    max_size=k,
                ),
                min_size=1,
                max_size=4,
            )
        )
    )
    def test_first_negative_entry_named_as_before(self, rows):
        expected = _first_negative_message(rows)
        if expected is None:
            alloc = Allocation(rows)
            assert repr(alloc.rows) == repr(tuple(tuple(float(v) for v in r) for r in rows))
        else:
            with pytest.raises(ValueError) as info:
                Allocation(rows)
            assert str(info.value) == expected

    def test_nan_and_negative_zero_accepted(self):
        alloc = Allocation(((float("nan"), -0.0, 1.0),))
        assert math.isnan(alloc.rows[0][0])
        assert math.copysign(1.0, alloc.rows[0][1]) == -1.0
        with pytest.raises(ValueError, match=r"^allocation entry \[1\]\[2\] = -0.5 is negative$"):
            Allocation(((0.0, 0.0, 0.0), (-0.0, float("nan"), -0.5)))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            Allocation(((1.0, 2.0), (1.0,)))

    def test_column_totals_identity_matrix(self):
        rows = tuple(
            tuple(1.0 if i == j else 0.0 for j in range(6)) for i in range(6)
        )
        assert column_totals(Allocation(rows)) == (1, 1, 1, 1, 1, 1)

    def test_column_totals_zero(self):
        assert column_totals(Allocation.zeros(8)) == (0, 0, 0, 0, 0, 0)

    def test_round1_reference_totals(self):
        # round-1 agent A table from the reference debate
        rows = (
            (1, 0, 10, 0, 8, 1),
            (0, 0, 5, 0, 4, 1),
            (1, 0, 0, 10, 12, 0),
            (0, 0, 5, 5, 6, 0),
            (0, 1, 15, 0, 10, 0),
            (0, 0, 0, 10, 8, 0),
            (0, 0, 5, 0, 4, 0),
            (0, 0, 5, 10, 8, 0),
        )
        assert column_totals(Allocation(rows)) == (2, 1, 45, 35, 60, 2)


class TestValidateAllocation:
    def test_boundary_is_feasible(self):
        cap = capacity_for_variant("standard")
        rows = [[0.0] * 6 for _ in range(3)]
        for i in range(3):
            rows[i][0] = 1.0  # ICU column sums to exactly 3
        result = validate_allocation(Allocation(tuple(map(tuple, rows))), cap)
        assert result.feasible

    def test_zero_matrix_feasible_under_any_capacity(self):
        for variant in ("standard", "tight", "abundant"):
            cap = capacity_for_variant(variant)
            assert validate_allocation(Allocation.zeros(8), cap).feasible

    def test_reference_final_infeasible_meda(self):
        cap = capacity_for_variant("tight")
        rows = [[0.0] * 6 for _ in range(8)]
        rows[0][2] = 50.0  # MedA column total 50 against capacity 45
        result = validate_allocation(Allocation(tuple(map(tuple, rows))), cap)
        assert not result.feasible
        assert result.violations == (("MedA", 5.0),)

    def test_dimension_mismatch(self):
        cap = capacity_for_variant("standard")
        with pytest.raises(ValueError, match="columns"):
            validate_allocation(Allocation(((1.0,),)), cap)

    def test_feasible_iff_max_overshoot_nonpositive(self):
        cap = ResourceCapacity(supply=(5.0,) * 6)
        alloc = Allocation(((2.0, 5.0, 0.0, 1.0, 4.0, 6.0), (3.0, 0.0, 5.0, 4.0, 1.0, 0.0)))
        result = validate_allocation(alloc, cap)
        totals = column_totals(alloc)
        assert result.feasible == (max(t - s for t, s in zip(totals, cap.supply)) <= 1e-9)

    @given(
        st.lists(
            st.lists(st.floats(min_value=0, max_value=10), min_size=6, max_size=6),
            min_size=3,
            max_size=3,
        ),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=18, max_size=18),
    )
    def test_feasibility_is_monotone(self, rows, shrink):
        # shrinking any feasible allocation componentwise keeps it feasible
        cap = ResourceCapacity(supply=(15.0,) * 6)
        alloc = Allocation(tuple(tuple(row) for row in rows))
        factors = iter(shrink)
        smaller = Allocation(
            tuple(tuple(v * next(factors) for v in row) for row in alloc.rows)
        )
        if validate_allocation(alloc, cap).feasible:
            assert validate_allocation(smaller, cap).feasible


def stdlib_json(obj) -> str:
    """The encoding canonical_json must reproduce byte for byte."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# Strings with quotes, backslashes, control and non-ASCII characters.
_json_text = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é€😀'))
)
_json_floats = st.one_of(
    st.floats(),  # includes nan, ±inf, -0.0 and subnormals
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e308, 1e-7, 1e16]),
)
_json_ints = st.one_of(st.integers(), st.integers(min_value=-(2**200), max_value=2**200))
_json_scalars = st.one_of(st.none(), st.booleans(), _json_ints, _json_floats, _json_text)
_json_trees = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_json_text, children, max_size=5),
        # the homogeneous lists that are encoded in one join
        st.lists(_json_floats, max_size=6),
        st.lists(st.one_of(st.booleans(), _json_ints, _json_floats), max_size=6),
        st.lists(_json_text, max_size=6),
    ),
    max_leaves=40,
)


class _Colour(str, enum.Enum):
    RED = "red"


def _circular_list():
    items = []
    items.append(items)
    return items


def _nested(depth):
    tree = [1.0, "leaf", {}]
    for level in range(depth):
        tree = [level, {"k": tree}] if level % 2 else [tree]
    return tree


class TestCanonicalJson:
    @given(_json_trees)
    def test_matches_stdlib_indented_json(self, tree):
        assert canonical_json(tree) == stdlib_json(tree)

    @pytest.mark.parametrize(
        "obj",
        [
            {},
            [],
            (),
            [[], {}, ()],
            {"b": [1.0, float("nan")], "a": (float("inf"), -float("inf"), -0.0)},
            [1, 2.5, 10**40, -(10**40)],
            [True, False, None],
            [1, True, 0.5],
            "tab\t \"quote\" \\ é",
            _Colour.RED,
            [_Colour.RED, "red"],
            {"k": _Colour.RED},
            {_Colour.RED: 1},
            Resource.ICU,
            [Resource.VENT, 1],
            {"r": Resource.SURGERY},
            np.float64(0.1),
            [np.float64(0.1), 0.2],
            {"x": np.float64(-0.0)},
            {2: "b", 1: "a"},
            {None: 1},
            {1.5: "x", 0.5: "y"},
            {True: 1},
            _nested(100),
        ],
        ids=lambda obj: repr(obj)[:40],
    )
    def test_subclasses_and_non_str_keys_match_stdlib(self, obj):
        assert canonical_json(obj) == stdlib_json(obj)

    @pytest.mark.parametrize(
        "obj, error",
        [
            (object(), TypeError),
            ({"a": [1, {2, 3}]}, TypeError),
            ({1: "a", "b": 2}, TypeError),
            (np.int64(3), TypeError),
            (_circular_list(), ValueError),
        ],
        ids=["object", "set", "mixed-keys", "numpy-int", "circular-list"],
    )
    def test_errors_are_stdlib_errors(self, obj, error):
        with pytest.raises(error) as want:
            stdlib_json(obj)
        with pytest.raises(error) as got:
            canonical_json(obj)
        assert str(got.value) == str(want.value)
