from __future__ import annotations

import hashlib
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from triage_arena import oracle
from triage_arena.metrics import gini
from triage_arena.model import FEASIBILITY_TOL, Allocation, canonical_json
from triage_arena.oracle import (
    CakeParams,
    DiscretizedSpace,
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
    _backtrack,
    _best_util_at_rawls_optimum,
    _composition_array,
    _grid,
    _grid_argmax_indices,
    _merge_exchange,
    _optimum,
    _rawls_grid_max,
    _sort_columns,
    _suffix_best,
    _util_grid_analysis,
    _utility_table,
)


def small_space(step=0.5, n=2, bound=5_000_000) -> DiscretizedSpace:
    return DiscretizedSpace(step=step, n=n, enumeration_bound=bound)


def _cake_table(params, step):
    """The cake utility table at step and the cake's size in steps."""
    space = cake_space(step)
    return _utility_table(cake_utilities(params), space), space.units


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

    def test_stars_and_bars_count(self):
        space = small_space(step=0.05, n=6)
        assert candidate_count(space) == math.comb(26, 6)

    def test_no_duplicates_and_all_feasible(self):
        space = small_space(step=0.25, n=3)
        seen = set()
        for alloc in enumerate_allocations(space):
            assert alloc.rows not in seen
            seen.add(alloc.rows)
            assert sum(row[0] for row in alloc.rows) <= 1.0 + FEASIBILITY_TOL
        assert len(seen) == candidate_count(space)

    def test_bound_exceeded_is_a_value_error(self):
        space = small_space(step=0.5, n=2, bound=5)
        with pytest.raises(ValueError, match="^grid has 6 candidate allocations, above the enumeration bound of 5$"):
            next(iter(enumerate_allocations(space)))

    def test_bound_exceeded_reports_count(self):
        space = small_space(step=0.01, n=6, bound=1000)
        with pytest.raises(ValueError, match=f"^grid has {math.comb(106, 6)} candidate allocations"):
            next(iter(enumerate_allocations(space)))

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

    @pytest.mark.parametrize(
        "total, parts, dtype",
        [(253, 2, np.uint8), (254, 2, np.uint16), (0, 1, np.uint8), (9, 1, np.uint8),
         (0, 4, np.uint8), (0, 6, np.uint8)],
    )
    def test_composition_array_at_dtype_and_size_edges(self, total, parts, dtype):
        # (253, 2) is the largest uint8 grid (total + parts = 255), whose
        # run starts wrap the last column's steps furthest; one more unit
        # needs uint16
        actual = _composition_array(total, parts)
        assert actual.dtype == dtype
        np.testing.assert_array_equal(actual, _stars_and_bars(total, parts))

    @pytest.mark.parametrize("rows", [1, 2, 7, 64])
    def test_composition_blocks_split_anywhere(self, rows):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_COMPOSITION_ROWS", rows)
            for total, parts in [(0, 3), (5, 6), (9, 4), (30, 3)]:
                np.testing.assert_array_equal(
                    _composition_array(total, parts), _stars_and_bars(total, parts)
                )

    def test_composition_array_memory_is_bounded(self):
        # the 736,281-row grid of step 0.04 is 4.4 MB of uint8; whole-grid
        # temporaries (the narrower grid, intp repeat counts) took 1.7x
        grid = _composition_array(25, 6)
        assert grid.nbytes == 736_281 * 6
        assert _traced_peak(lambda: _composition_array(25, 6)) < 1.5 * grid.nbytes


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

    @pytest.mark.parametrize("tol", [-1.0, -1e-12, math.nan, math.inf])
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

    @pytest.mark.parametrize("flag", ["false", "true", 1, 0, None])
    def test_allow_degenerate_must_be_a_bool(self, flag):
        # a truthy string such as "false" relaxed the lam >= 50 guard
        with pytest.raises(ValueError, match=f"allow_degenerate must be a bool, not {flag!r}"):
            CakeParams(lam=1.0, allow_degenerate=flag)

    def test_ordering_invariants_enforced(self):
        with pytest.raises(ValueError, match="gamma < beta"):
            CakeParams(gamma=0.7, beta=0.5)
        with pytest.raises(ValueError, match="lam"):
            CakeParams(lam=1.0)
        # the magnitude guard is relaxable, the ordering is not
        CakeParams(lam=0.0, allow_degenerate=True)
        with pytest.raises(ValueError):
            CakeParams(gamma=0.7, beta=0.5, allow_degenerate=True)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "lam", "xbar4", "xmin", "epsilon", "delta"])
    def test_non_finite_fields_rejected(self, name, value):
        # every comparison with NaN is false, so the ordering checks alone
        # let a NaN lam through
        with pytest.raises(ValueError, match=f"cake parameters must be finite: {name}="):
            CakeParams(**{name: value}, allow_degenerate=True)


class TestCheckNondegeneracy:
    def test_identical_functionals_degenerate(self):
        space = small_space(step=0.5, n=2)
        # with unit weights prior is util, so the two share every maximizer
        utilities = (lambda x: x, lambda x: 0.0)
        w1 = UtilityAggregate("util", utilities)
        w2 = UtilityAggregate("prior", utilities, (1.0, 1.0))
        report = check_nondegeneracy([w1, w2], space)
        assert report.degenerate
        assert report.witness is not None
        assert report.witness.rows[0][0] == 1.0

    def test_requires_two_functionals(self):
        with pytest.raises(ValueError):
            check_nondegeneracy([UtilityAggregate("util", (lambda x: 0.0,) * 2)], small_space())

    def test_rejects_functionals_that_are_not_aggregates(self):
        utilities = (lambda x: x,) * 2
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
        utilities = [lambda x, c=c: c * x for c in slopes]
        weights = (1.0, 0.9, 0.8)  # preserves the slope ordering
        functionals = functionals_from_utilities(
            utilities, prior_weights=weights, include=("util", "prior")
        )
        report = check_nondegeneracy(functionals, small_space(step=0.25, n=3))
        assert report.degenerate
        assert tuple(r[0] for r in report.witness.rows) == (1.0, 0.0, 0.0)

    def test_repeated_identifiers_rejected(self):
        functionals = cake_functionals(CakeParams(), include=("util", "util"))
        with pytest.raises(ValueError, match="repeated functional identifiers: util"):
            check_nondegeneracy(functionals, cake_space(0.2))

    def test_utility_count_must_match_persons(self):
        utilities = [lambda x: x] * 2
        functionals = functionals_from_utilities(utilities, include=("util", "rawls"))
        with pytest.raises(ValueError, match="2 utilities for a grid of 3 persons"):
            check_nondegeneracy(functionals, small_space(step=0.5, n=3))

    @pytest.mark.parametrize("tol", [-1.0, -1e-12, math.nan, math.inf])
    def test_negative_or_nan_tol_rejected(self, tol):
        # a negative or NaN tol keeps no candidate, so every argmax set
        # would be empty and the report would read non-degenerate; an
        # infinite one keeps every grid point and would read degenerate
        functionals = cake_functionals(CakeParams(), prior_weights=[1.0] * 6)
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            check_nondegeneracy(functionals, cake_space(0.2), tol=tol)

    def test_bound_checked_before_any_grid_work(self):
        # at step 1e-4 the grid has ~1.4e21 points: only a bound check made
        # before building anything can return, let alone return at once
        space = cake_space(0.0001, enumeration_bound=1000)
        functionals = cake_functionals(CakeParams(), prior_weights=[1.0] * 6)
        start = time.perf_counter()
        message = f"^grid has {math.comb(10_006, 6)} candidate allocations, above the enumeration bound of 1000$"
        with pytest.raises(ValueError, match=message):
            check_nondegeneracy(functionals, space)
        assert time.perf_counter() - start < 1.0

    def test_bound_checked_before_any_table(self):
        # a table grows with the step count, so the bound comes first
        space = cake_space(0.0001, enumeration_bound=1000)
        functionals = cake_functionals(CakeParams(), prior_weights=[1.0] * 6)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_utility_table", _never_called)
            with pytest.raises(ValueError, match="above the enumeration bound of 1000"):
                check_nondegeneracy(functionals, space)


class TestPriorWeights:
    def test_wrong_length_rejected_naming_both_lengths(self):
        utilities = [lambda x: x] * 6
        with pytest.raises(ValueError, match="2 entries but there are 6 utilities"):
            functionals_from_utilities(utilities, prior_weights=[1.0, 2.0])
        with pytest.raises(ValueError, match="7 entries but there are 6 utilities"):
            cake_functionals(CakeParams(), prior_weights=[1.0] * 7)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN weight would empty the prior argmax set
        with pytest.raises(ValueError, match="prior_weights must be finite"):
            cake_functionals(CakeParams(), prior_weights=[bad] + [1.0] * 5)

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
    grid, tables = _grid(space, functionals)
    indices = _grid_argmax_indices(functionals, grid, tables, tol)
    rows = {}
    for kind, members in indices.items():
        assert members.tolist() == sorted(set(members.tolist()))
        rows[kind] = {
            tuple((v * space.step,) for v in member) for member in grid[members].tolist()
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


_TOL = st.sampled_from([1e-9, 0.0, 1e-3])


def _step_utility():
    # a share's utility with ties: a parabola plus a step at a threshold
    return st.tuples(
        st.floats(-2.0, 2.0), st.floats(0.0, 2.0), st.sampled_from([0.0, 0.25, 0.5])
    ).map(lambda c: lambda x, a=c[0], b=c[1], t=c[2]: a * x**2 + b * x + (x >= t))


_utility_value = st.one_of(
    st.sampled_from([math.nan, 0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 0.5, 2.0, 1e308]),
    st.floats(-10.0, 10.0),
)


def _values_bytes(aggregate, matrix):
    with np.errstate(invalid="ignore", over="ignore"):
        return aggregate.over_grid(matrix).tobytes()


@np.errstate(all="ignore")
def _parent_values(aggregate, utility):
    """The bytes of over_grid's rawls and egal as row-wise numpy
    reductions: the formulas the column kernels replaced."""
    if aggregate.kind == "rawls":
        return utility.min(axis=1).tobytes()
    n = utility.shape[1]
    positive = np.maximum(utility, 0.0)
    total = oracle._left_sum(positive.T)
    positive.sort(axis=1)
    weighted = oracle._left_sum((i + 1) * column for i, column in enumerate(positive.T))
    index = 2.0 * weighted / (n * total) - (n + 1) / n
    index[(total == 0) | (positive[:, 0] == positive[:, -1])] = 0.0
    return (-index).tobytes()


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
    @given(
        st.sampled_from([0.2, 0.25, 1 / 3, 0.5]),
        st.integers(2, 4),
        st.lists(_step_utility(), min_size=4, max_size=4),
        st.lists(_weight, min_size=4, max_size=4),
        _include,
        _TOL,
    )
    def test_smallest_is_first_in_row_tuple_order(self, step, n, utilities, weights, include, tol):
        # the report takes each witness and pair member as the first grid
        # index of its set; the scan reference takes the row-tuple minimum
        # of the matching argmax_set scans
        functionals = functionals_from_utilities(utilities[:n], weights[:n], include)
        _assert_matches_scan(functionals, small_space(step=step, n=n), tol)

    @pytest.mark.parametrize("kind", _KINDS)
    def test_over_grid_replicates_scalar_arithmetic(self, kind):
        # all-zero, equal, mixed-sign and all-negative rows; the equal row
        # leaves float residue in the gini formula, and the third row's sum
        # depends on its order; then ties, signed zeros and infinities,
        # whose egal is NaN (inf / inf) unless the row is all inf
        matrix = np.array(
            [
                [0.0, 0.0, 0.0],
                [1.1, 1.1, 1.1],
                [0.1, 0.4, 0.2],
                [2.0, -1.0, 0.5],
                [-1.0, -2.0, -3.0],
                [0.3, 1e-17, 0.1],
                [0.5, 0.2, 0.5],
                [0.2, 0.5, 0.2],
                [-0.0, 0.0, 0.7],
                [0.0, -0.0, -0.0],
                [math.inf, 1.0, 0.0],
                [math.inf, math.inf, math.inf],
                [-math.inf, 0.4, 0.4],
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
        with np.errstate(invalid="ignore"):
            values = aggregate.over_grid(matrix)
        np.testing.assert_array_equal(values, [scalar(row) for row in matrix.tolist()])
        if kind in ("egal", "rawls"):
            # a NaN utility has no scalar rule to follow (min and sorted read
            # it by position); the column kernels keep the row formulas' bytes
            matrix[[2, 6, 10], [0, 2, 1]] = math.nan
            assert _values_bytes(aggregate, matrix) == _parent_values(aggregate, matrix)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.lists(
                st.lists(_utility_value, min_size=n, max_size=n), min_size=1, max_size=12
            )
        ),
        st.sampled_from(["egal", "rawls"]),
    )
    def test_column_kernels_match_row_formulas(self, rows, kind):
        # the fold of np.minimum and the sorting network against the
        # min(axis=1) and np.sort formulas they replace, byte for byte
        matrix = np.array(rows)
        aggregate = UtilityAggregate(kind, (abs,) * matrix.shape[1])
        assert _values_bytes(aggregate, matrix) == _parent_values(aggregate, matrix)


def _network_sort(matrix):
    """matrix's rows as over_grid's egal orders them."""
    columns = list(matrix.T)
    _sort_columns(columns)
    return np.column_stack(columns)


class TestMergeExchange:
    def test_comparator_counts_are_batchers(self):
        # Knuth, TAOCP vol. 3, 5.2.2: 12 compare-exchanges for n = 6, where
        # odd-even transposition takes 15
        counts = [len(_merge_exchange(n)) for n in range(1, 13)]
        assert counts == [0, 1, 3, 5, 9, 12, 16, 19, 26, 31, 37, 41]
        assert all(i < j for n in range(1, 13) for i, j in _merge_exchange(n))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_sorts_every_zero_one_vector(self, n):
        # by the 0-1 principle a comparator network that sorts every 0-1
        # input sorts every input
        vectors = (np.arange(2**n)[:, None] >> np.arange(n) & 1).astype(float)
        np.testing.assert_array_equal(_network_sort(vectors), np.sort(vectors, axis=1))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_nan_in_any_column_reaches_every_column(self, n):
        # row j holds its NaN in column j; every other value is finite
        matrix = np.random.default_rng(n).uniform(-1.0, 1.0, (n + 1, n))
        matrix[np.arange(n), np.arange(n)] = math.nan
        ordered = _network_sort(matrix)
        assert np.isnan(ordered[:n]).all()
        np.testing.assert_array_equal(ordered[n], np.sort(matrix[n]))


class TestColumnMajorBlocks:
    """The grid pass gathers each block's utility matrix in column-major
    order; the over_grid kernels and the argmax sets must not see it."""

    @pytest.mark.parametrize("kind", _KINDS)
    def test_over_grid_bytes_do_not_depend_on_order(self, kind):
        rng = np.random.default_rng(26)
        matrix = rng.uniform(-1.0, 2.0, size=(97, 6))
        matrix[::7] = 0.0
        matrix[3, :] = 0.4
        matrix[[5, 11, 40], [0, 3, 5]] = math.nan
        matrix[[8, 9], [2, 4]] = math.inf
        aggregate = UtilityAggregate(kind, (abs,) * 6, (0.5, 1.0, 2.0, 0.0, 3.0, 1.5))
        fortran = np.asfortranarray(matrix)
        assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
        assert _values_bytes(aggregate, fortran) == _values_bytes(aggregate, matrix)

    @pytest.mark.parametrize("rows", [1, 7, 64, oracle._BLOCK_ROWS])
    def test_matches_the_fancy_index_gather(self, rows):
        # the 2-D fancy index the column-major gather replaced gives a
        # C-order (rows, n) matrix
        functionals = cake_functionals(CakeParams(), [3.0, 1.0, 2.0, 1.0, 5.0, 1.0])
        space = cake_space(0.1)
        grid, tables = _grid(space, functionals)
        persons = np.arange(space.n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_BLOCK_ROWS", rows)
            columns = _grid_argmax_indices(functionals, grid, tables, 1e-9)
            patch.setattr(oracle, "_gather", lambda table, block: table[persons, block])
            fancy = _grid_argmax_indices(functionals, grid, tables, 1e-9)
        assert columns.keys() == fancy.keys()
        for kind in columns:
            assert columns[kind].tobytes() == fancy[kind].tobytes()

    def test_gather_reads_the_table(self):
        table = np.arange(18.0).reshape(3, 6)
        block = np.array([[0, 5, 2], [1, 1, 0], [5, 0, 0]], dtype=np.uint8)
        matrix = oracle._gather(table, block)
        assert matrix.flags.f_contiguous
        np.testing.assert_array_equal(matrix, table[np.arange(3), block])


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

    def test_nan_at_one_grid_point_is_refused(self, rows):
        # person 1's utility is NaN on the whole cake, which only the last
        # grid point gives, so a scan would meet it after candidates were
        # kept; the table is refused before the grid is built
        space = cake_space(0.2)
        assert _composition_array(space.units, space.n)[-1].tolist() == [5, 0, 0, 0, 0, 0]
        clean = cake_utilities(CakeParams())
        first = clean[0]
        poisoned = (lambda x: math.nan if x == 1.0 else first(x),) + clean[1:]
        functionals = [
            UtilityAggregate("util", poisoned),
            UtilityAggregate("egal", poisoned),
            UtilityAggregate("rawls", clean),
        ]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_BLOCK_ROWS", rows)
            patch.setattr(oracle, "_composition_array", _never_called)
            with pytest.raises(ValueError, match="utilities must be finite on the grid, not nan"):
                check_nondegeneracy(functionals, space)


def _never_called(*args):
    raise AssertionError("called past a refusal")


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
        grid, tables = _grid(space, functionals)
        assert _traced_peak(lambda: _grid_argmax_indices(functionals, grid, tables, 1e-9)) < 12e6

    def test_step_004_report_memory_is_bounded(self):
        # the 736,281-point grid is 4.4 MB of uint8 and the maximin set
        # has 20,349 members, which must stay grid indices: as tuples of
        # float tuples they alone take about 12.7 MB
        functionals = cake_functionals(CakeParams(), [1.0] * 6)
        space = cake_space(0.04)
        assert _traced_peak(lambda: check_nondegeneracy(functionals, space)) < 12e6


def _parent_suffix_best(table, budget):
    """_suffix_best as one np.maximum per unit count v: the loop the
    blocked offers replaced."""
    n, size = len(table), budget + 1
    suffix = np.zeros((n + 1, size))
    for i in range(n - 1, -1, -1):
        best, nxt = suffix[i], suffix[i + 1]
        best.fill(-np.inf)
        for v in range(size):
            np.maximum(best[v:], table[i, v] + nxt[: size - v], out=best[v:])
    return suffix


_table_entry = st.one_of(st.floats(-5.0, 5.0), st.just(-math.inf))


class TestSuffixBest:
    """The blocked DP against the per-v loop, with offer counts that cut
    the unit counts into blocks of one row up to the whole budget."""

    @pytest.mark.parametrize("offers", [0, 1, 63, 64, 65, 66, 1000])
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.integers(0, 40).flatmap(
                lambda budget: st.lists(
                    st.lists(_table_entry, min_size=budget + 1, max_size=budget + 1),
                    min_size=n,
                    max_size=n,
                )
            )
        )
    )
    def test_matches_per_unit_loop(self, offers, rows):
        # -inf entries are what the theta mask leaves in the table
        table = np.array(rows)
        budget = table.shape[1] - 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_DP_CANDIDATES", offers)
            blocked = _suffix_best(table, budget)
        assert blocked.tobytes() == _parent_suffix_best(table, budget).tobytes()

    @pytest.mark.parametrize("masked", [False, True], ids=["util", "theta-masked"])
    def test_cake_tables_match_per_unit_loop(self, masked):
        table, budget = _cake_table(CakeParams(), 0.001)
        if masked:
            theta, _units = _rawls_grid_max(table, budget)
            table = np.where(table >= theta, table, -np.inf)
        assert _suffix_best(table, budget).tobytes() == _parent_suffix_best(table, budget).tobytes()


def _full_table_best_at_theta(table, budget, theta):
    """_best_util_at_rawls_optimum as the DP over the whole masked table:
    the pass the narrowed one replaced."""
    allowed = np.where(table >= theta, table, -np.inf)
    suffix = _suffix_best(allowed, budget)
    best = float(suffix[0, budget])
    if best == -math.inf:
        return best, None
    return best, _backtrack(allowed, suffix, budget)


# finite entries and the -inf of the theta mask, all _utility_table lets
# the DP see
_dp_entry = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([-math.inf, 0.0, 1.0]))


@st.composite
def _dp_table(draw):
    n = draw(st.integers(1, 6))
    budget = draw(st.integers(0, 30))
    rows = draw(st.lists(st.lists(_dp_entry, min_size=budget + 1, max_size=budget + 1), min_size=n, max_size=n))
    return np.array(rows), budget


class TestFirstPersonAtBudget:
    @settings(max_examples=200, deadline=None)
    @given(_dp_table())
    def test_top_is_the_full_dp_entry(self, drawn):
        table, budget = drawn
        offers, top, units = _optimum(table, budget)
        suffix = _suffix_best(table, budget)
        assert units == _backtrack(table, suffix, budget)
        assert top == suffix[0, budget]
        assert len(offers) == budget + 1

    @pytest.mark.parametrize("step", [0.01, 0.001])
    def test_cake_table_analysis_matches_the_full_dp(self, step):
        table, budget = _cake_table(CakeParams(), step)
        suffix = _suffix_best(table, budget)
        grid_max, corner, runner_up, witness = _util_grid_analysis(table, budget)
        assert np.float64(grid_max).tobytes() == suffix[0, budget].tobytes()
        assert runner_up == np.max(table[0, :budget] + suffix[1, budget:0:-1])
        assert corner == table[0, budget]
        assert witness == _backtrack(table, suffix, budget)


class TestNarrowedMaskedPass:
    """The masked DP started at each person's least unit count reaching
    theta, on the budget they leave, against the DP over the whole
    masked table."""

    @settings(max_examples=300, deadline=None)
    @given(
        _dp_table(),
        st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, 1.0, -math.inf, math.inf])),
        st.data(),
    )
    def test_matches_the_whole_masked_table(self, drawn, theta, data):
        table, budget = drawn
        # holes above a least count come from entries below theta; one row
        # may be made to hold no entry that reaches theta
        if data.draw(st.booleans()):
            empty = data.draw(st.integers(0, len(table) - 1))
            table[empty] = data.draw(st.sampled_from([-math.inf, min(theta - 1.0, 0.0)]))
        best, units = _best_util_at_rawls_optimum(table, budget, theta)
        ref_best, ref_units = _full_table_best_at_theta(table, budget, theta)
        assert best == ref_best
        assert units == ref_units

    def test_row_with_no_entry_reaching_theta_has_no_witness(self):
        table = np.array([[0.0, 2.0, 3.0], [0.5, 0.5, 0.5]])
        assert _best_util_at_rawls_optimum(table, 2, 1.0) == (-math.inf, None)
        assert _full_table_best_at_theta(table, 2, 1.0) == (-math.inf, None)

    def test_least_counts_past_the_budget_have_no_witness(self):
        table = np.array([[0.0, 2.0, 3.0], [0.0, 0.0, 4.0]])
        assert _best_util_at_rawls_optimum(table, 2, 1.0) == (-math.inf, None)
        assert _full_table_best_at_theta(table, 2, 1.0) == (-math.inf, None)

    @pytest.mark.parametrize(
        "params", [CakeParams(), CakeParams(lam=0.0, allow_degenerate=True)], ids=["default", "lam0"]
    )
    @pytest.mark.parametrize("step", [0.01, 0.001])
    def test_cake_tables_match_the_whole_masked_table(self, params, step):
        table, budget = _cake_table(params, step)
        theta, _units = _rawls_grid_max(table, budget)
        best, units = _best_util_at_rawls_optimum(table, budget, theta)
        ref_best, ref_units = _full_table_best_at_theta(table, budget, theta)
        assert np.float64(best).tobytes() == np.float64(ref_best).tobytes()
        assert units == ref_units


_HUGE_PARAMS = pytest.mark.parametrize(
    "fields, total",
    [({"delta": 1e308, "epsilon": 1e308}, "inf"), ({"epsilon": 1e308}, r"1e\+308")],
    ids=["delta-and-epsilon", "epsilon"],
)
_MAGNITUDE = st.floats(0.0, 1e6, exclude_min=True)
_BELOW_ONE = math.nextafter(1.0, 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestUtilityRange:
    """_utility_table refuses a table whose sums could leave the float
    range, for both commands, before any sum is formed."""

    @_HUGE_PARAMS
    def test_verify_cake_claims_refuses(self, fields, total):
        match = f"utilities out of range: their largest magnitudes sum to {total},"
        with pytest.raises(ValueError, match=match):
            verify_cake_claims(CakeParams(**fields), step=0.01)

    @_HUGE_PARAMS
    def test_check_nondegeneracy_refuses_before_the_grid(self, fields, total):
        functionals = cake_functionals(CakeParams(**fields), prior_weights=[1.0] * 6)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_composition_array", _never_called)
            with pytest.raises(ValueError, match=f"largest magnitudes sum to {total},"):
                check_nondegeneracy(functionals, cake_space(0.1))

    @_HUGE_PARAMS
    def test_argmax_set_refuses(self, fields, total):
        # the reference scan refuses the table the array pass refuses,
        # instead of certifying members of value inf or -0.0
        for W in cake_functionals(CakeParams(**fields), include=("util", "egal")):
            with pytest.raises(ValueError, match=f"largest magnitudes sum to {total},"):
                argmax_set(W, cake_space(0.2))

    def test_argmax_set_refuses_overflowing_prior_weights(self):
        functionals = cake_functionals(CakeParams(), prior_weights=[1e308] * 6, include=("prior",))
        with pytest.raises(ValueError, match="prior-weighted largest magnitudes"):
            argmax_set(functionals[0], cake_space(0.2))

    @pytest.mark.parametrize("weight", [1e308, -1e308, 1e300])
    def test_overflowing_prior_weights_are_refused(self, weight):
        # the cake's largest magnitude is person 3's harm penalty, about 90,
        # so 1e300 times it passes 2**1000 without overflowing
        functionals = cake_functionals(CakeParams(), prior_weights=[1.0] * 3 + [weight] + [1.0] * 2)
        with pytest.raises(ValueError, match="prior-weighted largest magnitudes"):
            check_nondegeneracy(functionals, cake_space(0.1))

    def test_prior_weights_count_only_for_prior(self):
        # the table is checked at weight 1 for util and at the prior
        # weights for prior; zero weights leave a huge utility unweighted
        utilities = (lambda x: 2.0**999,) * 2
        table = _utility_table(utilities, small_space(), [(0.0, 0.0)])
        assert table.tolist() == [[2.0**999] * 3] * 2
        with pytest.raises(ValueError, match="their largest magnitudes sum to 1.07e\\+301,"):
            _utility_table(utilities, small_space(), [(0.0, 0.0), None])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_is_refused(self, value):
        utilities = (lambda x: value if x == 0.5 else x, abs)
        with pytest.raises(ValueError, match=f"utilities must be finite on the grid, not {value}"):
            _utility_table(utilities, small_space())

    @settings(max_examples=100, deadline=None)
    @given(
        # gamma < beta: two distinct floats of (0, 1), sorted, so no draw
        # asks for a float strictly between gamma and its neighbour 1.0
        slopes=st.lists(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=2, max_size=2, unique=True
        ).map(sorted),
        alpha=st.floats(1.0, 1e6, exclude_min=True),
        lam=st.floats(0.0, 1e6),
        xbar4=_MAGNITUDE,
        xmin=_MAGNITUDE,
        epsilon=_MAGNITUDE,
        delta=_MAGNITUDE,
        weights=st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6),
    )
    # the float just below 1.0, which as gamma left beta no value
    @example(
        slopes=[math.nextafter(_BELOW_ONE, 0.0), _BELOW_ONE],
        alpha=1e6, lam=1e6, xbar4=1e6, xmin=1e6, epsilon=1e6, delta=1e6, weights=[-1e6] * 6,
    )
    def test_parameters_up_to_1e6_pass(self, slopes, weights, **fields):
        gamma, beta = slopes
        params = CakeParams(beta=beta, gamma=gamma, allow_degenerate=True, **fields)
        table = _utility_table(cake_utilities(params), cake_space(0.01), [None, weights])
        assert np.isfinite(table).all()


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
        table, budget = _cake_table(params, step)
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

        table, budget = _cake_table(params, step)
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

    @pytest.mark.parametrize("step", [0.0, -0.01, math.nan, math.inf])
    def test_non_positive_step_rejected(self, step):
        with pytest.raises(ValueError, match="step must be finite and positive"):
            verify_cake_claims(CakeParams(), step=step)

    def test_negative_control_lambda_zero_fails_a_claim(self):
        report = verify_cake_claims(
            CakeParams(lam=0.0, allow_degenerate=True), step=0.01
        )
        assert not report.all_passed
        # each claim's verdict, detail and full-precision witness
        obj = {
            "step": report.step,
            "recheck_agrees": report.recheck_agrees,
            "claims": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "detail": c.detail,
                    "witness": None if c.witness is None else list(c.witness),
                }
                for c in report.claims
            ],
        }
        assert hashlib.sha256(canonical_json(obj).encode()).hexdigest() == (
            "95e8966a1dd0adb75225db569f8e19347b4ee4de283c6e8abcc2c75a24266323"
        )

    def test_refining_the_grid_never_lowers_the_maximum(self):
        params = CakeParams()
        coarse_table, coarse_budget = _cake_table(params, 0.02)
        fine_table, fine_budget = _cake_table(params, 0.01)
        coarse_max = _suffix_best(coarse_table, coarse_budget)[0][coarse_budget]
        fine_max = _suffix_best(fine_table, fine_budget)[0][fine_budget]
        assert fine_max >= coarse_max - 1e-12
