from __future__ import annotations

import hashlib
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triage_arena import oracle
from triage_arena.metrics import gini
from triage_arena.model import Allocation, ResourceCapacity, canonical_json, validate_allocation
from triage_arena.oracle import (
    CakeParams,
    DiscretizedSpace,
    EnumerationBoundExceeded,
    UtilityAggregate,
    argmax_set,
    cake_functionals,
    cake_space,
    cake_utilities,
    candidate_count,
    check_nondegeneracy,
    enumerate_allocations,
    functionals_from_utilities,
    verify_cake_claims,
)
from triage_arena.oracle import (
    _best_util_at_rawls_optimum,
    _composition_array,
    _grid_array,
    _grid_argmax_indices,
    _smallest,
    _rawls_grid_max,
    _suffix_best,
    _tabulate,
    _util_grid_analysis,
)


def small_space(step=0.5, supply=(1.0,), n=2, bound=5_000_000) -> DiscretizedSpace:
    return DiscretizedSpace(
        step=step,
        capacity=ResourceCapacity(supply=supply),
        n=n,
        enumeration_bound=bound,
    )


class TestEnumeration:
    def test_two_people_half_steps(self):
        points = [
            tuple(row[0] for row in a.rows) for a in enumerate_allocations(small_space())
        ]
        assert points == [
            (0.0, 0.0), (0.0, 0.5), (0.0, 1.0),
            (0.5, 0.0), (0.5, 0.5), (1.0, 0.0),
        ]

    def test_coarsest_grid_is_corners_plus_zero(self):
        points = {
            tuple(row[0] for row in a.rows)
            for a in enumerate_allocations(small_space(step=1.0, n=3))
        }
        assert points == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_order_is_product_of_lexicographic_column_compositions(self):
        space = small_space(step=0.25, supply=(1.0, 0.5), n=3)
        columns = [
            [c for c in itertools.product(range(b + 1), repeat=space.n) if sum(c) <= b]
            for b in space.units
        ]
        expected = [
            tuple(tuple(combo[j][i] * space.step for j in range(space.k)) for i in range(space.n))
            for combo in itertools.product(*columns)
        ]
        assert [a.rows for a in enumerate_allocations(space)] == expected

    def test_stars_and_bars_count(self):
        space = small_space(step=0.05, n=6)
        assert candidate_count(space) == math.comb(26, 6)

    def test_no_duplicates_and_all_feasible(self):
        space = small_space(step=0.25, supply=(1.0, 0.5), n=2)
        seen = set()
        for alloc in enumerate_allocations(space):
            assert alloc.rows not in seen
            seen.add(alloc.rows)
            assert validate_allocation(alloc, space.capacity).feasible
        assert len(seen) == candidate_count(space)

    def test_bound_exceeded_reports_count(self):
        space = small_space(step=0.01, n=6, bound=1000)
        with pytest.raises(EnumerationBoundExceeded) as excinfo:
            next(iter(enumerate_allocations(space)))
        assert excinfo.value.count == math.comb(106, 6)

    def test_step_must_divide_supply(self):
        with pytest.raises(ValueError, match="divide"):
            small_space(step=0.3)

    @pytest.mark.parametrize("step", [0.0, -0.5, math.inf, -math.inf, math.nan])
    def test_step_must_be_finite_and_positive(self, step):
        # an infinite step makes the divisibility residue 0 * inf - 1.0
        # NaN, which no comparison with the tolerance may let through
        with pytest.raises(ValueError, match="step must be finite and positive"):
            small_space(step=step)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 12), st.integers(1, 6))
    def test_composition_array_matches_stars_and_bars(self, total, parts):
        expected = _stars_and_bars(total, parts)
        actual = _composition_array(total, parts)
        assert actual.dtype == expected.dtype
        assert actual.tolist() == expected.tolist()


def _stars_and_bars(total, parts):
    """Every composition by bar positions: the sorted positions of `parts`
    bars among total + parts slots give the part sizes as the gaps before
    each bar, in itertools.combinations order."""
    count = math.comb(total + parts, parts)
    bars = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations(range(total + parts), parts)
        ),
        dtype=np.min_scalar_type(total + parts),
        count=count * parts,
    ).reshape(count, parts)
    sizes = np.empty_like(bars)
    sizes[:, 0] = bars[:, 0]
    np.subtract(bars[:, 1:], bars[:, :-1], out=sizes[:, 1:])
    sizes[:, 1:] -= 1
    return sizes


class TestArgmaxSet:
    def test_constant_functional_returns_entire_space(self):
        space = small_space()
        constant = lambda a: 1.0
        assert len(argmax_set(constant, space)) == candidate_count(space)

    def test_matches_naive_full_scan(self):
        # independent oracle: materialize the grid, evaluate, filter
        space = small_space(step=0.25, n=3)
        w = lambda a: a.rows[0][0] - a.rows[2][0] ** 2
        everything = list(enumerate_allocations(space))
        values = [w(a) for a in everything]
        best = max(values)
        naive = sorted(
            a.rows for a, v in zip(everything, values) if v >= best - 1e-9
        )
        assert [a.rows for a in argmax_set(w, space)] == naive

    def test_tol_zero_exact_maximizers(self):
        space = small_space(step=0.5, n=2)
        w = lambda a: a.rows[0][0] + a.rows[1][0]
        maximizers = argmax_set(w, space, tol=0.0)
        assert {tuple(r[0] for r in a.rows) for a in maximizers} == {(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)}

    @pytest.mark.parametrize("tol", [-1.0, -1e-12, math.nan])
    def test_negative_or_nan_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            argmax_set(lambda a: 0.0, small_space(), tol=tol)


class TestCakeUtilities:
    def test_inclusion_utility_discontinuous_at_zero(self):
        u = cake_utilities(CakeParams())
        assert u[4](0.0) == 0.0
        assert u[4](0.001) == pytest.approx(0.1)

    def test_capped_utility_peaks_near_cap(self):
        params = CakeParams()
        u4 = cake_utilities(params)[3]
        xs = [i * 1e-4 for i in range(10_001)]
        best_x = max(xs, key=u4)
        assert abs(best_x - params.xbar4) < 2e-3
        assert u4(params.xbar4) > u4(2 * params.xbar4)

    def test_floor_utility_zero_below_threshold(self):
        params = CakeParams()
        u6 = cake_utilities(params)[5]
        assert u6(params.xmin) == 0.0
        assert u6(params.xmin / 2) == 0.0
        assert u6(params.xmin + 0.1) == pytest.approx(params.gamma * 0.1)

    def test_ordering_invariants_enforced(self):
        with pytest.raises(ValueError, match="gamma < beta"):
            CakeParams(gamma=0.7, beta=0.5)
        with pytest.raises(ValueError, match="lam"):
            CakeParams(lam=1.0)
        # the magnitude guard is relaxable, the ordering is not
        CakeParams(lam=0.0, allow_degenerate=True)
        with pytest.raises(ValueError):
            CakeParams(gamma=0.7, beta=0.5, allow_degenerate=True)


class TestCheckNondegeneracy:
    def test_identical_functionals_degenerate(self):
        space = small_space(step=0.5, n=2)
        # with unit weights prior is util, so the two share every maximizer
        utilities = (lambda row: row[0], lambda row: 0.0)
        w1 = UtilityAggregate("util", utilities)
        w2 = UtilityAggregate("prior", utilities, (1.0, 1.0))
        report = check_nondegeneracy([w1, w2], space)
        assert report.degenerate
        assert report.witness is not None
        assert report.witness.rows[0][0] == 1.0

    def test_requires_two_functionals(self):
        with pytest.raises(ValueError):
            check_nondegeneracy([UtilityAggregate("util", (lambda row: 0.0,) * 2)], small_space())

    def test_rejects_functionals_that_are_not_aggregates(self):
        utilities = (lambda row: row[0],) * 2
        bare = lambda alloc: alloc.rows[0][0]
        with pytest.raises(ValueError, match="not a UtilityAggregate"):
            check_nondegeneracy([UtilityAggregate("util", utilities), bare], small_space())

    def test_cake_problem_non_degenerate_on_coarse_grid(self):
        params = CakeParams(xbar4=0.2, xmin=0.2)
        functionals = cake_functionals(params, prior_weights=[1.0] * 6)
        space = cake_space(0.1)
        report = check_nondegeneracy(functionals, space)
        assert not report.degenerate
        assert "grid-certified at step 0.1" in report.label
        util_vs_rawls = next(
            p for p in report.pairs if {p.first, p.second} == {"util", "rawls"}
        )
        assert not util_vs_rawls.intersects
        assert util_vs_rawls.only_first is not None

    def test_strictly_ordered_linear_utilities_collapse_to_sorting(self):
        # single resource, three people, strictly ordered linear utility
        # slopes: the aggregate and the order-preserving weighted objective
        # pick the same corner, a degenerate instance
        slopes = (3.0, 2.0, 1.0)
        utilities = [lambda row, c=c: c * row[0] for c in slopes]
        weights = (1.0, 0.9, 0.8)  # preserves the slope ordering
        functionals = functionals_from_utilities(
            utilities, prior_weights=weights, include=("util", "prior")
        )
        space = DiscretizedSpace(
            step=0.25, capacity=ResourceCapacity(supply=(1.0,)), n=3
        )
        report = check_nondegeneracy(functionals, space)
        assert report.degenerate
        assert tuple(r[0] for r in report.witness.rows) == (1.0, 0.0, 0.0)

    def test_repeated_identifiers_rejected(self):
        functionals = cake_functionals(CakeParams(), include=("util", "util"))
        with pytest.raises(ValueError, match="repeated functional identifiers: util"):
            check_nondegeneracy(functionals, cake_space(0.2))

    def test_utility_count_must_match_persons(self):
        utilities = [lambda row: row[0]] * 2
        functionals = functionals_from_utilities(utilities, include=("util", "rawls"))
        with pytest.raises(ValueError, match="2 utilities for a grid of 3 persons"):
            check_nondegeneracy(functionals, small_space(step=0.5, n=3))

    @pytest.mark.parametrize("tol", [-1.0, -1e-12, math.nan])
    def test_negative_or_nan_tol_rejected(self, tol):
        # such a tol keeps no candidate, so every argmax set would be
        # empty and the report would read non-degenerate
        functionals = cake_functionals(CakeParams(), prior_weights=[1.0] * 6)
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            check_nondegeneracy(functionals, cake_space(0.2), tol=tol)

    def test_bound_checked_before_any_grid_work(self):
        # at step 1e-4 the grid has ~1.4e21 points: only a bound check made
        # before building anything can return, let alone return at once
        space = cake_space(0.0001, enumeration_bound=1000)
        functionals = cake_functionals(CakeParams(), prior_weights=[1.0] * 6)
        start = time.perf_counter()
        with pytest.raises(EnumerationBoundExceeded) as excinfo:
            check_nondegeneracy(functionals, space)
        assert time.perf_counter() - start < 1.0
        assert excinfo.value.count == math.comb(10_006, 6)
        assert excinfo.value.bound == 1000


class TestPriorWeights:
    def test_wrong_length_rejected_naming_both_lengths(self):
        utilities = [lambda row: row[0]] * 6
        with pytest.raises(ValueError, match="2 entries but there are 6 utilities"):
            functionals_from_utilities(utilities, prior_weights=[1.0, 2.0])
        with pytest.raises(ValueError, match="7 entries but there are 6 utilities"):
            cake_functionals(CakeParams(), prior_weights=[1.0] * 7)

    def test_weights_ignored_without_prior(self):
        functionals = cake_functionals(
            CakeParams(), prior_weights=[1.0, 2.0], include=("util", "rawls")
        )
        assert [W.kind for W in functionals] == ["util", "rawls"]


def _scan_report(functionals, space, tol=1e-9):
    """Reference report: one argmax_set scan per functional, intersected
    as sets of allocation rows, witnesses the smallest sorted rows."""
    sets = {W.kind: {a.rows for a in argmax_set(W, space, tol)} for W in functionals}
    names = [W.kind for W in functionals]
    common = set.intersection(*sets.values())
    pairs = []
    for a, b in itertools.combinations(names, 2):
        only_a = sorted(sets[a] - sets[b])
        only_b = sorted(sets[b] - sets[a])
        pairs.append(
            {
                "first": a,
                "second": b,
                "intersects": bool(sets[a] & sets[b]),
                "only_first": Allocation(only_a[0]).to_json() if only_a else None,
                "only_second": Allocation(only_b[0]).to_json() if only_b else None,
            }
        )
    return sets, {
        "degenerate": bool(common),
        "witness": Allocation(sorted(common)[0]).to_json() if common else None,
        "argmax_sizes": {name: len(s) for name, s in sets.items()},
        "pairs": pairs,
    }


def _argmax_rows(functionals, space, tol):
    """The array pass's argmax sets, each mapped from grid indices to the
    set of allocation rows enumerate_allocations gives those members."""
    grid = _grid_array(space)
    indices = _grid_argmax_indices(functionals, space, grid, tol)
    rows = {}
    for kind, members in indices.items():
        assert members.tolist() == sorted(set(members.tolist()))
        rows[kind] = {
            tuple(tuple(v * space.step for v in row) for row in member)
            for member in grid[members].tolist()
        }
    return rows


def _assert_matches_scan(functionals, space, tol=1e-9):
    ref_sets, ref = _scan_report(functionals, space, tol)
    assert _argmax_rows(functionals, space, tol) == ref_sets
    obj = check_nondegeneracy(functionals, space, tol).to_json()
    assert {key: obj[key] for key in ref} == ref


_KINDS = ("util", "egal", "rawls", "prior")
_include = st.permutations(_KINDS).flatmap(
    lambda order: st.integers(2, 4).map(lambda size: tuple(order[:size]))
)
_weight = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 5.0))


@st.composite
def _cake_params(draw):
    gamma = draw(st.floats(0.05, 0.4))
    beta = draw(st.floats(gamma + 0.05, 0.95))
    threshold = st.one_of(st.sampled_from([0.1, 0.2, 0.4]), st.floats(0.01, 0.5))
    return CakeParams(
        alpha=draw(st.floats(1.05, 3.0)),
        beta=beta,
        gamma=gamma,
        lam=draw(st.one_of(st.just(0.0), st.floats(0.0, 200.0))),
        xbar4=draw(threshold),
        xmin=draw(threshold),
        epsilon=draw(st.floats(0.01, 0.5)),
        delta=draw(st.floats(0.05, 1.0)),
        allow_degenerate=True,
    )


def _two_resource_utilities(coefficients):
    # utilities read both columns of a row; the threshold term makes ties
    return [
        lambda row, a=a, b=b, t=t: a * row[0] ** 2 + b * row[1] + (row[1] >= t)
        for a, b, t in coefficients
    ]


_TWO_RESOURCE_SPACE = DiscretizedSpace(
    step=0.25, capacity=ResourceCapacity(supply=(1.0, 0.5)), n=3
)
_COEFFICIENTS = st.lists(
    st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.sampled_from([0.0, 0.25, 0.5])),
    min_size=3,
    max_size=3,
)
_TOL = st.sampled_from([1e-9, 0.0, 1e-3])


class TestArrayPassParity:
    """check_nondegeneracy's array pass against argmax_set scans."""

    @pytest.mark.parametrize(
        "params",
        [
            CakeParams(),
            CakeParams(xbar4=0.2, xmin=0.2),
            CakeParams(lam=0.0, xbar4=0.3, xmin=0.3, allow_degenerate=True),
        ],
    )
    def test_cake_step_01(self, params):
        weights = [3.0, 1.0, 2.0, 1.0, 5.0, 1.0]
        _assert_matches_scan(cake_functionals(params, weights), cake_space(0.1))

    @settings(max_examples=40, deadline=None)
    @given(
        _cake_params(),
        st.lists(_weight, min_size=6, max_size=6),
        _include,
        st.sampled_from([1e-9, 0.0, 1e-3]),
    )
    def test_cake_step_02(self, params, weights, include, tol):
        functionals = cake_functionals(params, weights, include)
        _assert_matches_scan(functionals, cake_space(0.2), tol)

    @settings(max_examples=40, deadline=None)
    @given(_COEFFICIENTS, st.lists(_weight, min_size=3, max_size=3), _include)
    def test_two_resource_space(self, coefficients, weights, include):
        functionals = functionals_from_utilities(
            _two_resource_utilities(coefficients), weights, include
        )
        _assert_matches_scan(functionals, _TWO_RESOURCE_SPACE)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_smallest_is_first_in_row_tuple_order(self, data):
        # the two-resource grid runs through one resource column after the
        # other, so its order is not the row-tuple order of its allocations
        space = _TWO_RESOURCE_SPACE
        grid = _grid_array(space)
        allocations = list(enumerate_allocations(space))
        members = sorted(data.draw(st.sets(st.integers(0, len(grid) - 1), min_size=1)))
        smallest = _smallest(grid, np.array(members), space.step)
        assert smallest.rows == min(allocations[i].rows for i in members)
        assert _smallest(grid, np.empty(0, np.intp), space.step) is None

    @pytest.mark.parametrize("kind", _KINDS)
    def test_over_grid_replicates_scalar_arithmetic(self, kind):
        # all-zero, equal, mixed-sign and all-negative rows; the equal row
        # leaves float residue in the gini formula, and the third row's sum
        # depends on its order
        matrix = np.array(
            [
                [0.0, 0.0, 0.0],
                [1.1, 1.1, 1.1],
                [0.1, 0.4, 0.2],
                [2.0, -1.0, 0.5],
                [-1.0, -2.0, -3.0],
                [0.3, 1e-17, 0.1],
            ]
        )
        weights = (0.3, 1.7, 2.9)
        scalar = {
            "util": lambda row: sum(row),
            "egal": lambda row: -gini([max(x, 0.0) for x in row]),
            "rawls": min,
            "prior": lambda row: sum(w * x for w, x in zip(weights, row)),
        }[kind]
        aggregate = UtilityAggregate(
            kind, (abs,) * 3, weights if kind == "prior" else None
        )
        assert aggregate.over_grid(matrix).tolist() == [
            scalar(row) for row in matrix.tolist()
        ]


@pytest.mark.parametrize("rows", [1, 7, 64])
class TestBlockBoundaries:
    """The blocked grid pass with blocks that split the grid's argmax runs
    anywhere, against argmax_set scans."""

    @settings(max_examples=15, deadline=None)
    @given(_cake_params(), st.lists(_weight, min_size=6, max_size=6), _include, _TOL)
    def test_cake_step_02(self, rows, params, weights, include, tol):
        functionals = cake_functionals(params, weights, include)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_BLOCK_ROWS", rows)
            _assert_matches_scan(functionals, cake_space(0.2), tol)

    @settings(max_examples=15, deadline=None)
    @given(_COEFFICIENTS, st.lists(_weight, min_size=3, max_size=3), _include, _TOL)
    def test_two_resource_space(self, rows, coefficients, weights, include, tol):
        functionals = functionals_from_utilities(
            _two_resource_utilities(coefficients), weights, include
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_BLOCK_ROWS", rows)
            _assert_matches_scan(functionals, _TWO_RESOURCE_SPACE, tol)

    def test_nan_at_one_grid_point_empties_its_sets(self, rows):
        # person 1's utility is NaN on the whole cake, which only the last
        # grid point gives, so the NaN arrives after candidates were kept;
        # as a NaN maximum over the whole grid did, it empties the sets of
        # the functionals built on it, and only those
        space = cake_space(0.2)
        assert _grid_array(space)[-1, :, 0].tolist() == [5, 0, 0, 0, 0, 0]
        clean = cake_functionals(CakeParams(), include=("util",))[0].utilities
        first = clean[0]
        poisoned = (lambda row: math.nan if row[0] == 1.0 else first(row),) + clean[1:]
        functionals = [
            UtilityAggregate("util", poisoned),
            UtilityAggregate("egal", poisoned),
            UtilityAggregate("rawls", clean),
        ]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_BLOCK_ROWS", rows)
            sets = _argmax_rows(functionals, space, 1e-9)
            report = check_nondegeneracy(functionals, space).to_json()
        rawls = {a.rows for a in argmax_set(functionals[2], space)}
        assert sets == {"util": set(), "egal": set(), "rawls": rawls}
        assert report["argmax_sizes"] == {"util": 0, "egal": 0, "rawls": len(rawls)}
        assert report["degenerate"] is False


def _traced_peak(call):
    """Bytes allocated at the peak of call() above what was held before."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestGridMemory:
    def test_float_working_memory_is_bounded(self):
        # a whole-grid pass held the (M, n) float64 utility matrix and
        # egal's sorted copy at once: about 32 MB here
        functionals = cake_functionals(CakeParams(), [1.0] * 6)
        space = cake_space(0.05)
        grid = _grid_array(space)
        assert _traced_peak(lambda: _grid_argmax_indices(functionals, space, grid, 1e-9)) < 12e6

    def test_step_004_report_memory_is_bounded(self):
        # the 736,281-point grid is 4.4 MB of uint8 and the maximin set
        # has 20,349 members, which must stay grid indices: as tuples of
        # float tuples they alone take about 12.7 MB
        functionals = cake_functionals(CakeParams(), [1.0] * 6)
        space = cake_space(0.04)
        assert _traced_peak(lambda: check_nondegeneracy(functionals, space)) < 12e6


class TestVerifyCakeClaims:
    def test_default_params_step_001(self):
        report = verify_cake_claims(CakeParams(), step=0.01)
        outcomes = {c.name: c.passed for c in report.claims}
        # the all-to-one-person corner is never the unique aggregate
        # optimum: the second recipient's strictly concave utility makes a
        # small transfer profitable, and the whole-cake-to-person-2 corner
        # ties the corner value exactly in every parameterization
        assert outcomes["util_argmax_is_corner"] is False
        assert outcomes["rawls_argmax_requires_inclusion"] is True
        assert outcomes["argmax_intersection_empty"] is True
        assert report.recheck_agrees

    def test_dp_matches_full_scan_argmax(self):
        # dual route: the budget DP must agree with the literal grid scan
        params = CakeParams(xbar4=0.1, xmin=0.1)
        step = 0.05
        functionals = cake_functionals(params, include=("util", "rawls"))
        space = cake_space(step)
        scan_util = argmax_set(functionals[0], space)
        table, budget = _tabulate(params, step)
        grid_max, corner_value, best_non_corner, witness = _util_grid_analysis(
            table, budget
        )
        scan_best = max(functionals[0](a) for a in scan_util)
        assert grid_max == pytest.approx(scan_best, abs=1e-12)
        assert len(scan_util) == 1
        assert tuple(r[0] for r in scan_util[0].rows) == pytest.approx(
            tuple(v * step for v in witness)
        )
        # rawls grid max agrees with the scan
        scan_rawls = argmax_set(functionals[1], space)
        rawls_values = {functionals[1](a) for a in scan_rawls}
        theta, _units = _rawls_grid_max(table, budget)
        assert len(rawls_values) == 1
        assert next(iter(rawls_values)) == pytest.approx(theta, abs=1e-12)
        assert all(a.rows[4][0] > 0 for a in scan_rawls)

    @pytest.mark.parametrize(
        "table, expected",
        [
            # the corner is the unique max: the runner-up excludes it
            ([[0.0, 1.0, 3.0], [0.0, 1.0, 1.0]], (3.0, 3.0, 2.0, (2, 0))),
            # one and two units tie for person 0: the witness takes fewer
            ([[0.0, 2.0, 2.0], [0.0, 0.0, 0.0]], (2.0, 2.0, 2.0, (1, 0))),
        ],
    )
    def test_util_grid_analysis_on_hand_tables(self, table, expected):
        assert _util_grid_analysis(np.array(table), 2) == expected

    @settings(max_examples=40, deadline=None)
    @given(_cake_params())
    def test_dp_matches_grid_scan(self, params):
        # every DP answer against the argmax sets of the array pass at step 0.1
        step = 0.1
        util, rawls = cake_functionals(params, include=("util", "rawls"))
        space = cake_space(step)
        util_rows = _argmax_rows([util], space, 1e-9)["util"]
        # min involves no arithmetic, so tol 0 gives the exact argmax set,
        # which is what the DP's table masked below theta describes
        rawls_rows = _argmax_rows([rawls], space, 0.0)["rawls"]

        def rows(units):
            return tuple((v * step,) for v in units)

        table, budget = _tabulate(params, step)
        grid_max, _corner, _runner_up, witness = _util_grid_analysis(table, budget)
        scan_max = max(util(Allocation(row)) for row in util_rows)
        assert grid_max == pytest.approx(scan_max, abs=1e-12)
        assert rows(witness) in util_rows

        theta, units = _rawls_grid_max(table, budget)
        assert {rawls(Allocation(row)) for row in rawls_rows} == {theta}
        assert rows(units) in rawls_rows

        best, shared = _best_util_at_rawls_optimum(table, budget, theta)
        scan_best = max(util(Allocation(row)) for row in rawls_rows)
        assert best == pytest.approx(scan_best, abs=1e-12)
        assert rows(shared) in rawls_rows

    def test_too_coarse_step_rejected(self):
        with pytest.raises(ValueError, match="too coarse"):
            verify_cake_claims(CakeParams(), step=0.5)

    @pytest.mark.parametrize("step", [0.0, -0.01, math.nan])
    def test_non_positive_step_rejected(self, step):
        with pytest.raises(ValueError, match="step must be positive"):
            verify_cake_claims(CakeParams(), step=step)

    def test_negative_control_lambda_zero_fails_a_claim(self):
        report = verify_cake_claims(
            CakeParams(lam=0.0, allow_degenerate=True), step=0.01
        )
        assert not report.all_passed
        assert hashlib.sha256(canonical_json(report.to_json()).encode()).hexdigest() == (
            "2d70ca8267e61988bbf5666d97884da7d1a0d92a896227de065bb90f107f4c7f"
        )

    def test_refining_the_grid_never_lowers_the_maximum(self):
        params = CakeParams()
        coarse_table, coarse_budget = _tabulate(params, 0.02)
        fine_table, fine_budget = _tabulate(params, 0.01)
        coarse_max = _suffix_best(coarse_table, coarse_budget)[0][coarse_budget]
        fine_max = _suffix_best(fine_table, fine_budget)[0][fine_budget]
        assert fine_max >= coarse_max - 1e-12

    def test_report_serializes(self):
        report = verify_cake_claims(CakeParams(), step=0.01)
        obj = report.to_json()
        assert obj["kind"] == "cake_verification_report"
        assert len(obj["claims"]) == 3
        assert "grid-certified" in obj["label"]
