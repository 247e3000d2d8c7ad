from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from triage_arena.cohortgen import generate_cohort
from triage_arena.metrics import (
    CnssVector,
    FRAMEWORK_METRIC,
    METRIC_DIRECTIONS,
    METRIC_NAMES,
    WeightKind,
    WeightScheme,
    cnss,
    cnss_vector,
    compute_weights,
    dw_esg,
    esg,
    gini,
    metric_report,
    rmg,
    variance,
    vwci,
)
from triage_arena.model import Allocation, Resource

from conftest import make_cohort, make_patient, random_allocation, scaled


class TestCnss:
    def test_all_needs_met(self):
        p = make_patient(1, needs=(Resource.ICU, Resource.VENT, Resource.NURSING))
        assert cnss(p, [1, 1, 0, 0, 8, 0]) == 1.0

    def test_nothing_met(self):
        p = make_patient(1, needs=(Resource.SURGERY, Resource.MED_A, Resource.NURSING))
        assert cnss(p, [0, 0, 0, 0, 0, 0]) == 0.0

    def test_partial(self):
        p = make_patient(1, needs=(Resource.ICU, Resource.MED_B, Resource.NURSING))
        assert cnss(p, [0, 0, 0, 10, 12, 0]) == pytest.approx(2 / 3)

    def test_non_needed_resources_ignored(self):
        p = make_patient(1, needs=(Resource.ICU,))
        assert cnss(p, [0, 5, 5, 5, 5, 5]) == 0.0


class TestEsg:
    def test_two_patient_example(self):
        patients = [
            make_patient(1, survival=0.5, needs=(Resource.ICU,)),
            make_patient(2, age=50, survival=1.0, needs=(Resource.ICU, Resource.VENT)),
        ]
        cohort = make_cohort(patients)
        # CNSS = [1.0, 0.5]: patient 1 gets ICU, patient 2 gets ICU only
        alloc = Allocation(((1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)))
        assert esg(cohort, alloc) == pytest.approx(1.0)

    def test_zero_when_nothing_allocated(self, cohort):
        assert esg(cohort, Allocation.zeros(cohort.n)) == 0.0

    def test_sum_of_probs_when_fully_served(self, cohort):
        alloc = Allocation(tuple(tuple(1.0 for _ in range(6)) for _ in range(cohort.n)))
        assert esg(cohort, alloc) == pytest.approx(
            sum(p.survival_prob for p in cohort.patients)
        )


class TestRmgVariance:
    def test_rmg_min(self):
        assert rmg(CnssVector((1.0, 0.25, 0.5))) == 0.25

    def test_rmg_all_equal(self):
        assert rmg(CnssVector((0.7, 0.7, 0.7))) == 0.7

    def test_rmg_zero(self):
        assert rmg(CnssVector((0.4, 0.0, 1.0))) == 0.0

    def test_variance_equal_vector_is_zero(self):
        assert variance(CnssVector((0.3, 0.3, 0.3, 0.3))) == 0.0

    def test_variance_half_split(self):
        assert variance(CnssVector((1.0, 0.0))) == 0.25

    def test_variance_bounded(self):
        rng = np.random.Generator(np.random.Philox(7))
        for _ in range(200):
            values = tuple(rng.uniform(0, 1, size=8))
            assert 0.0 <= variance(CnssVector(values)) <= 0.25


class TestGini:
    @pytest.mark.parametrize("n", [2, 3, 8, 17])
    def test_equal_vector_is_exactly_zero(self, n):
        assert gini([3.7] * n) == 0.0

    def test_single_holder_n8(self):
        assert gini([0, 0, 0, 0, 0, 0, 0, 5.0]) == 0.875

    def test_two_element_example(self):
        assert gini([1, 3]) == pytest.approx(0.25, abs=1e-12)

    def test_all_zero_defined_as_zero(self):
        assert gini([0.0, 0.0, 0.0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini([1.0, -0.5])

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=12))
    def test_permutation_invariant_and_bounded(self, values):
        base = gini(values)
        assert gini(list(reversed(values))) == pytest.approx(base, abs=1e-12)
        n = len(values)
        assert -1e-12 <= base <= (n - 1) / n + 1e-12


class TestWeights:
    def test_identical_demographics_equal_weights(self):
        patients = [
            make_patient(i + 1, age=30 + i, needs=(Resource.ICU,)) for i in range(4)
        ]
        # ages differ (diversity) but fall in the same scoring band
        cohort = make_cohort(patients)
        for kind in WeightKind:
            scheme = compute_weights(cohort, kind)
            assert len(set(scheme.weights)) == 1

    def test_lower_ses_strictly_higher_prioritarian_weight(self):
        low = make_patient(1, ses="Low")
        high = make_patient(2, age=41, ses="High")
        cohort = make_cohort([low, high])
        scheme = compute_weights(cohort, WeightKind.PRIORITARIAN)
        assert scheme.weights[0] > scheme.weights[1]

    def test_refugee_child_outweighs_upper_ses_adult(self):
        # calibration ordering: the disadvantaged child must far outweigh
        # the well-off adult under prioritarian weighting
        adult = make_patient(1, age=56, gender="Non-binary", race="White", ses="Upper")
        child = make_patient(
            2, age=6, gender="Female", race="Middle Eastern",
            ses="Refugee", citizenship="Refugee",
        )
        cohort = make_cohort([adult, child])
        scheme = compute_weights(cohort, WeightKind.PRIORITARIAN)
        assert scheme.weights[1] > scheme.weights[0] + 0.3

    def test_weights_strictly_positive_and_at_most_one(self, sampler_config):
        rng = np.random.Generator(np.random.Philox(11))
        for _ in range(50):
            cohort = generate_cohort(int(rng.integers(2**32)), sampler_config)
            for kind in WeightKind:
                scheme = compute_weights(cohort, kind)
                assert all(0 < w <= 1 for w in scheme.weights)

    def test_missing_attribute_value_errors(self):
        stranger = make_patient(1, race="Martian")
        cohort = make_cohort([stranger, make_patient(2, age=50)])
        with pytest.raises(ValueError, match="missing from the race"):
            compute_weights(cohort, WeightKind.PRIORITARIAN)

    def test_kind_mismatch_rejected(self, cohort):
        care = compute_weights(cohort, WeightKind.CARE)
        vec = CnssVector(tuple(0.5 for _ in range(cohort.n)))
        with pytest.raises(ValueError, match="prioritarian"):
            dw_esg(cohort, vec, care)
        prior = compute_weights(cohort, WeightKind.PRIORITARIAN)
        with pytest.raises(ValueError, match="care"):
            vwci(vec, prior)


class TestWeightedMetrics:
    def test_dw_esg_with_uniform_weights_matches_esg(self, cohort):
        uniform = WeightScheme(
            kind=WeightKind.PRIORITARIAN, weights=tuple(1.0 for _ in range(cohort.n))
        )
        rng = np.random.Generator(np.random.Philox(3))
        alloc = random_allocation(rng, n=cohort.n)
        vec = cnss_vector(cohort, alloc)
        assert dw_esg(cohort, vec, uniform) == pytest.approx(
            esg(cohort, alloc), abs=1e-12
        )

    def test_dw_esg_zero_for_zero_cnss(self, cohort):
        weights = compute_weights(cohort, WeightKind.PRIORITARIAN)
        vec = CnssVector(tuple(0.0 for _ in range(cohort.n)))
        assert dw_esg(cohort, vec, weights) == 0.0

    def test_vwci_uniform_weights_full_satisfaction(self, cohort):
        uniform = WeightScheme(
            kind=WeightKind.CARE, weights=tuple(1.0 for _ in range(cohort.n))
        )
        vec = CnssVector(tuple(1.0 for _ in range(cohort.n)))
        assert vwci(vec, uniform) == cohort.n

    def test_scalar_loop_oracles(self, sampler_config):
        # independent elementwise recomputation of both weighted metrics
        rng = np.random.Generator(np.random.Philox(17))
        for _ in range(25):
            cohort = generate_cohort(int(rng.integers(2**32)), sampler_config)
            alloc = random_allocation(rng, n=cohort.n)
            vec = cnss_vector(cohort, alloc)
            wp = compute_weights(cohort, WeightKind.PRIORITARIAN)
            wc = compute_weights(cohort, WeightKind.CARE)
            expected_dw = 0.0
            expected_vw = 0.0
            for i, patient in enumerate(cohort.patients):
                expected_dw += wp.weights[i] * patient.survival_prob * vec.values[i]
                expected_vw += wc.weights[i] * vec.values[i]
            assert dw_esg(cohort, vec, wp) == pytest.approx(expected_dw, abs=1e-12)
            assert vwci(vec, wc) == pytest.approx(expected_vw, abs=1e-12)


class TestMetricReport:
    def test_zero_allocation(self, cohort):
        report = metric_report(cohort, Allocation.zeros(cohort.n))
        assert report.esg == 0
        assert report.rmg == 0
        assert report.variance == 0
        assert report.dw_esg == 0
        assert report.vwci == 0
        assert report.gini == 0
        assert report.gini_degenerate
        assert report.feasible

    def test_fully_satisfying_allocation(self, cohort):
        rows = []
        for p in cohort.patients:
            row = [0.0] * 6
            for r in p.needs:
                row[r.value] = 0.25
            rows.append(tuple(row))
        report = metric_report(cohort, Allocation(tuple(rows)))
        assert report.rmg == 1.0
        assert report.variance == 0.0
        assert not report.gini_degenerate

    def test_composition_matches_individual_calls(self, cohort):
        rng = np.random.Generator(np.random.Philox(23))
        alloc = random_allocation(rng, n=cohort.n)
        report = metric_report(cohort, alloc)
        vec = cnss_vector(cohort, alloc)
        assert report.esg == esg(cohort, alloc)
        assert report.rmg == rmg(vec)
        assert report.variance == variance(vec)
        wp = compute_weights(cohort, WeightKind.PRIORITARIAN)
        wc = compute_weights(cohort, WeightKind.CARE)
        assert report.dw_esg == dw_esg(cohort, vec, wp)
        assert report.vwci == vwci(vec, wc)
        assert report.gini == gini(list(vec.values))

    def test_batch_computes_weights_once_and_matches_single_reports(
        self, cohort, monkeypatch
    ):
        from triage_arena import metrics

        rng = np.random.Generator(np.random.Philox(31))
        allocs = [random_allocation(rng, n=cohort.n) for _ in range(5)]
        expected = [metric_report(cohort, a) for a in allocs]
        calls = []
        original = metrics.compute_weights
        monkeypatch.setattr(
            metrics, "compute_weights", lambda *args: calls.append(args[1]) or original(*args)
        )
        assert metrics.metric_reports(cohort, allocs) == expected
        assert calls == [WeightKind.PRIORITARIAN, WeightKind.CARE]

    @given(
        st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=3),
        st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=10),
    )
    def test_repeated_allocations_share_one_report_in_input_order(
        self, cohort, seeds, picks
    ):
        from triage_arena import metrics

        pool = [
            random_allocation(np.random.Generator(np.random.Philox(s)), n=cohort.n, max_units=1)
            for s in seeds
        ]
        # equal rows, distinct objects, as eval reads them back from JSON
        allocs = [Allocation(pool[i % len(pool)].rows) for i in picks]
        reports = metrics.metric_reports(cohort, allocs)
        assert reports == [metrics.metric_reports(cohort, [a])[0] for a in allocs]
        for a, ra in zip(allocs, reports):
            for b, rb in zip(allocs, reports):
                assert (ra is rb) == (a == b)

    def test_json_round_trip(self, cohort):
        from triage_arena.metrics import MetricReport

        rng = np.random.Generator(np.random.Philox(29))
        alloc = random_allocation(rng, n=cohort.n)
        report = metric_report(cohort, alloc)
        restored = MetricReport.from_json(report.to_json())
        assert restored == report


class TestInvariants:
    def test_directions_table(self):
        assert METRIC_DIRECTIONS == {
            "esg": "higher",
            "rmg": "higher",
            "variance": "lower",
            "dw_esg": "higher",
            "vwci": "higher",
            "gini": "lower",
        }
        assert set(FRAMEWORK_METRIC.values()) == set(METRIC_NAMES)

    def test_permutation_equivariance(self):
        patients = [
            make_patient(1, age=30, ses="Low", needs=(Resource.ICU, Resource.MED_A)),
            make_patient(2, age=40, ses="High", needs=(Resource.VENT,)),
            make_patient(3, age=50, ses="Middle", needs=(Resource.NURSING, Resource.SURGERY)),
        ]
        cohort = make_cohort(patients)
        rng = np.random.Generator(np.random.Philox(31))
        alloc = random_allocation(rng, n=3)
        report = metric_report(cohort, alloc)

        order = [2, 0, 1]
        permuted_patients = []
        for new_id, old_index in enumerate(order, start=1):
            p = patients[old_index]
            permuted_patients.append(
                make_patient(
                    new_id, age=p.age, ses=p.ses, needs=tuple(p.needs),
                    survival=p.survival_prob,
                )
            )
        permuted_cohort = make_cohort(permuted_patients)
        permuted_alloc = Allocation(tuple(alloc.rows[i] for i in order))
        permuted_report = metric_report(permuted_cohort, permuted_alloc)
        for metric in METRIC_NAMES:
            assert permuted_report.value(metric) == pytest.approx(
                report.value(metric), abs=1e-12
            )

    def test_metric_bounds_on_random_inputs(self, sampler_config):
        rng = np.random.Generator(np.random.Philox(47))
        for _ in range(200):
            cohort = generate_cohort(int(rng.integers(2**32)), sampler_config)
            alloc = random_allocation(rng, n=cohort.n)
            report = metric_report(cohort, alloc)
            n = cohort.n
            p_sum = sum(p.survival_prob for p in cohort.patients)
            wp = compute_weights(cohort, WeightKind.PRIORITARIAN)
            wc = compute_weights(cohort, WeightKind.CARE)
            assert 0 <= report.esg <= p_sum + 1e-12
            assert 0 <= report.rmg <= 1
            assert 0 <= report.variance <= 0.25
            assert 0 <= report.gini <= (n - 1) / n + 1e-12
            dw_cap = sum(w * p.survival_prob for w, p in zip(wp.weights, cohort.patients))
            assert 0 <= report.dw_esg <= dw_cap + 1e-12
            assert 0 <= report.vwci <= sum(wc.weights) + 1e-12

    def test_scale_invariance_spot(self, cohort):
        rng = np.random.Generator(np.random.Philox(37))
        alloc = random_allocation(rng, n=cohort.n)
        doubled = scaled(alloc, 2.0)
        r1 = metric_report(cohort, alloc)
        r2 = metric_report(cohort, doubled)
        for metric in METRIC_NAMES:
            assert r1.value(metric) == r2.value(metric)

    def test_monotone_in_need_satisfaction_spot(self, cohort):
        alloc = Allocation.zeros(cohort.n)
        patient = cohort.patients[0]
        resource = sorted(patient.needs)[0]
        rows = [list(row) for row in alloc.rows]
        rows[0][resource.value] = 2.0
        improved = Allocation(tuple(map(tuple, rows)))
        before = metric_report(cohort, alloc)
        after = metric_report(cohort, improved)
        for metric in ("esg", "rmg", "dw_esg", "vwci"):
            assert after.value(metric) >= before.value(metric)
