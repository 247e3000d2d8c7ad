"""Brute-force welfare optimization over discretized allocation spaces.

This module certifies whether competing welfare functionals admit a
common maximizer on a finite grid. Every functional is a
UtilityAggregate over per-person utilities (functionals_from_utilities,
cake_functionals). argmax_set, a literal scan of every grid allocation
for any scalar objective, is the reference.
check_nondegeneracy evaluates the aggregates in one array pass instead:
it builds the grid once as an integer composition array, tabulates each
person's utility once per distinct row and reduces the utility matrix of
each fixed-size block of grid rows column by column, with the scalar
path's float arithmetic. The cake verifier additionally exploits that
its welfare functions are separable across recipients: one max-plus
budget DP over the utility table gives the same grid answers and stays
tractable at fine steps. It serves claim (a) on the table and claim (c)
on the table masked below the maximin optimum theta. All verdicts are
labelled grid-certified at their step; nothing here reasons about the
continuum.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable, Iterator, Sequence

import numpy as np

from .metrics import gini
from .model import Allocation, ResourceCapacity

__all__ = [
    "UtilityAggregate",
    "DiscretizedSpace",
    "EnumerationBoundExceeded",
    "candidate_count",
    "enumerate_allocations",
    "argmax_set",
    "NondegeneracyReport",
    "PairEvidence",
    "check_nondegeneracy",
    "CakeParams",
    "cake_utilities",
    "functionals_from_utilities",
    "cake_functionals",
    "ClaimResult",
    "CakeVerificationReport",
    "verify_cake_claims",
]

_STEP_TOL = 1e-9
# grid allocations per block of the nondegeneracy pass; a block's float
# working memory is about 140 bytes a row, and 4,096 rows ran fastest
_BLOCK_ROWS = 4096


_AGGREGATE_KINDS = ("util", "egal", "rawls", "prior")


@dataclass(frozen=True)
class UtilityAggregate:
    """A welfare functional, always maximized, that aggregates per-person
    utilities; kind names it.

    utilities[i] maps person i's allocation row to a utility. util sums
    the utilities, egal is the negated concentration index of their
    positive parts, rawls takes the minimum and prior is the sum weighted
    by weights. Calling it evaluates one allocation; over_grid evaluates
    a whole utility matrix with the same float operations in the same
    order.
    """

    kind: str
    utilities: tuple[Callable[[tuple], float], ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _AGGREGATE_KINDS:
            raise ValueError(f"unknown functional {self.kind!r}")
        if self.kind == "prior":
            if self.weights is None:
                raise ValueError("prior requires prior_weights")
            if len(self.weights) != len(self.utilities):
                raise ValueError(
                    f"prior_weights has {len(self.weights)} entries but there "
                    f"are {len(self.utilities)} utilities"
                )

    def __call__(self, alloc: Allocation) -> float:
        values = [u(row) for u, row in zip(self.utilities, alloc.rows)]
        if self.kind == "util":
            return sum(values)
        if self.kind == "egal":
            return -gini([max(x, 0.0) for x in values])
        if self.kind == "rawls":
            return min(values)
        return sum(w * x for w, x in zip(self.weights, values))

    def over_grid(self, utility: np.ndarray) -> np.ndarray:
        """Values of M allocations from their (M, n) utility matrix.

        Sums add the columns left to right from 0, as sum() does on
        CPython up to 3.11 (later versions compensate, which can move a
        scalar value in its last bits); egal replicates metrics.gini row
        by row, including its all-zero and equal-vector rules.
        """
        if self.kind == "util":
            return _left_sum(utility.T)
        if self.kind == "rawls":
            return utility.min(axis=1)
        if self.kind == "prior":
            return _left_sum(w * column for w, column in zip(self.weights, utility.T))
        n = utility.shape[1]
        positive = np.maximum(utility, 0.0)
        total = _left_sum(positive.T)
        positive.sort(axis=1)
        weighted = _left_sum((i + 1) * column for i, column in enumerate(positive.T))
        with np.errstate(divide="ignore", invalid="ignore"):
            index = 2.0 * weighted / (n * total) - (n + 1) / n
        index[(total == 0) | (positive[:, 0] == positive[:, -1])] = 0.0
        return -index


def _left_sum(columns) -> np.ndarray:
    total = 0.0
    for column in columns:
        total = total + column
    return total


class EnumerationBoundExceeded(RuntimeError):
    def __init__(self, count: int, bound: int):
        super().__init__(
            f"grid has {count} candidate allocations, above the enumeration "
            f"bound of {bound}"
        )
        self.count = count
        self.bound = bound


@dataclass(frozen=True)
class DiscretizedSpace:
    """A finite grid over the feasible allocation polytope.

    Each entry moves in multiples of step; the step must divide every
    supply to within 1e-9. enumeration_bound guards against accidental
    combinatorial blow-ups in the enumeration and grid-array routines.
    """

    step: float
    capacity: ResourceCapacity
    n: int
    enumeration_bound: int = 5_000_000

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be finite and positive, not {self.step}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        for supply in self.capacity.supply:
            units = round(supply / self.step)
            if not abs(units * self.step - supply) <= _STEP_TOL:
                raise ValueError(
                    f"step {self.step} does not divide supply {supply}"
                )

    @property
    def k(self) -> int:
        return self.capacity.k

    @property
    def units(self) -> tuple[int, ...]:
        return tuple(round(s / self.step) for s in self.capacity.supply)


def candidate_count(space: DiscretizedSpace) -> int:
    """Number of grid allocations, via stars and bars per column."""
    total = 1
    for b in space.units:
        total *= math.comb(b + space.n, space.n)
    return total


def enumerate_allocations(space: DiscretizedSpace) -> Iterator[Allocation]:
    """Yield every grid allocation exactly once, in _grid_array's order.

    Raises EnumerationBoundExceeded (with the computed count) before
    yielding anything if the grid is too large.
    """
    count = candidate_count(space)
    if count > space.enumeration_bound:
        raise EnumerationBoundExceeded(count, space.enumeration_bound)
    for member in _grid_array(space):
        yield _allocation(member, space.step)


def _allocation(member: np.ndarray, step: float) -> Allocation:
    """The allocation of a grid member: its (n, k) unit counts times step."""
    return Allocation(tuple(tuple(v * step for v in row) for row in member.tolist()))


def argmax_set(
    W: Callable[[Allocation], float], space: DiscretizedSpace, tol: float = 1e-9
) -> list[Allocation]:
    """All grid allocations within tol of the grid maximum of W, full scan.

    Returned in canonical (row-tuple sorted) order.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, not {tol}")
    best = None
    kept: list[tuple[float, Allocation]] = []
    for alloc in enumerate_allocations(space):
        value = W(alloc)
        if best is None or value > best:
            best = value
            kept = [(v, a) for v, a in kept if v >= best - tol]
        if value >= best - tol:
            kept.append((value, alloc))
    if best is None:
        raise ValueError("empty allocation space")
    result = [a for v, a in kept if v >= best - tol]
    return sorted(result, key=lambda a: a.rows)


@dataclass(frozen=True)
class PairEvidence:
    first: str
    second: str
    intersects: bool
    only_first: Allocation | None
    only_second: Allocation | None


@dataclass(frozen=True)
class NondegeneracyReport:
    degenerate: bool
    witness: Allocation | None
    argmax_sizes: dict
    pairs: tuple[PairEvidence, ...]
    step: float
    tol: float

    @property
    def label(self) -> str:
        verdict = "degenerate" if self.degenerate else "non-degenerate"
        return f"{verdict} (grid-certified at step {self.step:g})"

    def to_json(self) -> dict:
        return {
            "kind": "nondegeneracy_report",
            "schema_version": 1,
            "degenerate": self.degenerate,
            "witness": self.witness.to_json() if self.witness else None,
            "argmax_sizes": dict(self.argmax_sizes),
            "pairs": [
                {
                    "first": p.first,
                    "second": p.second,
                    "intersects": p.intersects,
                    "only_first": p.only_first.to_json() if p.only_first else None,
                    "only_second": p.only_second.to_json() if p.only_second else None,
                }
                for p in self.pairs
            ],
            "step": self.step,
            "tol": self.tol,
            "label": self.label,
        }


def _composition_array(total: int, parts: int) -> np.ndarray:
    """Every tuple of `parts` nonnegative ints summing to at most total,
    one per row, in lexicographic order, in the smallest unsigned dtype
    that holds total + parts. Built from the last part forwards: the
    tuples one part wider are each first part, in increasing order,
    prefixed to the narrower tuples that fit in the remaining budget."""
    dtype = np.min_scalar_type(total + parts)
    sizes = np.arange(total + 1, dtype=dtype)[:, None]
    for width in range(2, parts + 1):
        sums = sizes.sum(axis=1, dtype=dtype)
        wider = np.empty((math.comb(total + width, width), width), dtype)
        start = 0
        for first in range(total + 1):
            rest = sizes[sums <= total - first]
            wider[start : start + len(rest), 0] = first
            wider[start : start + len(rest), 1:] = rest
            start += len(rest)
        sizes = wider
    return sizes


def _grid_array(space: DiscretizedSpace) -> np.ndarray:
    """Every grid allocation in integer units, shape (M, n, k), in the
    smallest unsigned dtype that holds the largest unit count. Each
    column runs through its compositions in lexicographic order, the
    last column fastest."""
    dtype = np.min_scalar_type(max(space.units))
    columns = [_composition_array(b, space.n) for b in space.units]
    if space.k == 1:
        return columns[0].astype(dtype, copy=False)[:, :, None]
    counts = [len(column) for column in columns]
    grid = np.empty((math.prod(counts), space.n, space.k), dtype)
    view = grid.reshape(*counts, space.n, space.k)
    for j, column in enumerate(columns):
        shape = [1] * space.k + [space.n]
        shape[j] = counts[j]
        view[..., j] = column.reshape(shape)
    return grid


def _grid_argmax_indices(
    functionals: Sequence[UtilityAggregate],
    space: DiscretizedSpace,
    grid: np.ndarray,
    tol: float,
) -> dict[str, np.ndarray]:
    """The argmax set of each functional, by kind, as the sorted indices
    of its members in grid, which is _grid_array(space). Gives the
    members argmax_set returns.

    Each distinct utility tuple is tabulated once over the distinct unit
    rows, each utility called on the float row enumerate_allocations
    builds for it. The grid is then scanned in blocks of _BLOCK_ROWS
    allocations: each block's (rows, n) utility matrix goes through
    over_grid, whose values are row-local and so the floats a whole-grid
    pass gives. Per functional, a running maximum keeps the candidates
    within tol of it, pruned whenever it rises; a NaN value anywhere on
    the grid empties the functional's set, as a NaN grid maximum would.
    """
    dims = tuple(b + 1 for b in space.units)
    rows = [
        tuple(v * space.step for v in units)
        for units in itertools.product(*(range(d) for d in dims))
    ]
    tables: dict[tuple, np.ndarray] = {}
    for W in functionals:
        if len(W.utilities) != space.n:
            raise ValueError(
                f"{len(W.utilities)} utilities for a grid of {space.n} persons"
            )
        if W.utilities not in tables:
            tables[W.utilities] = np.array(
                [[u(row) for row in rows] for u in W.utilities], dtype=float
            )
    persons = np.arange(space.n)
    best = {W.kind: -math.inf for W in functionals}
    kept: dict[str, list] = {W.kind: [] for W in functionals}
    for start in range(0, len(grid), _BLOCK_ROWS):
        block = grid[start : start + _BLOCK_ROWS]
        flat = np.ravel_multi_index(tuple(np.moveaxis(block, 2, 0)), dims)
        indices = np.arange(start, start + len(block))
        matrices: dict[tuple, np.ndarray] = {}
        for W in functionals:
            if math.isnan(best[W.kind]):
                continue
            if W.utilities not in matrices:
                matrices[W.utilities] = tables[W.utilities][persons, flat]
            values = W.over_grid(matrices[W.utilities])
            top = values.max()
            if math.isnan(top):
                best[W.kind] = math.nan
                kept[W.kind] = []
                continue
            if top > best[W.kind]:
                best[W.kind] = top
                kept[W.kind] = [_within(v, i, top - tol) for v, i in kept[W.kind]]
            kept[W.kind].append(_within(values, indices, best[W.kind] - tol))
    return {
        W.kind: np.concatenate([np.empty(0, np.intp)] + [i for _, i in kept[W.kind]])
        for W in functionals
    }


def _within(values: np.ndarray, indices: np.ndarray, floor: float):
    near = values >= floor
    return values[near], indices[near]


def _smallest(grid: np.ndarray, indices: np.ndarray, step: float) -> Allocation | None:
    """The allocation among grid[indices] whose rows come first in row-tuple
    order, or None if there is none. v -> v * step is strictly increasing,
    so the integer rows sort as the float rows do."""
    if not len(indices):
        return None
    members = grid[indices].reshape(len(indices), -1)
    return _allocation(grid[indices[np.lexsort(members.T[::-1])[0]]], step)


def check_nondegeneracy(
    functionals: Sequence[UtilityAggregate],
    space: DiscretizedSpace,
    tol: float = 1e-9,
) -> NondegeneracyReport:
    """Intersect the argmax sets of two or more welfare functionals.

    Degenerate means some allocation maximizes every functional at once.
    No social optimum is ever selected; the report only describes how
    the optima relate. The functionals are UtilityAggregates of distinct
    kinds, evaluated together in one array pass over the grid; it gives
    the argmax sets argmax_set would.
    """
    if len(functionals) < 2:
        raise ValueError("need at least two functionals")
    for W in functionals:
        if not isinstance(W, UtilityAggregate):
            raise ValueError(f"functional {W!r} is not a UtilityAggregate")
    names = [W.kind for W in functionals]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"repeated functional identifiers: {', '.join(repeated)}")
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, not {tol}")
    count = candidate_count(space)
    if count > space.enumeration_bound:
        raise EnumerationBoundExceeded(count, space.enumeration_bound)
    grid = _grid_array(space)
    sets = _grid_argmax_indices(functionals, space, grid, tol)
    # each set is sorted and free of repeats, which the set operations assume
    intersect = functools.partial(np.intersect1d, assume_unique=True)
    minus = functools.partial(np.setdiff1d, assume_unique=True)
    common = functools.reduce(intersect, (sets[name] for name in names))
    pairs = [
        PairEvidence(
            first=a,
            second=b,
            intersects=len(intersect(sets[a], sets[b])) > 0,
            only_first=_smallest(grid, minus(sets[a], sets[b]), space.step),
            only_second=_smallest(grid, minus(sets[b], sets[a]), space.step),
        )
        for a, b in itertools.combinations(names, 2)
    ]
    return NondegeneracyReport(
        degenerate=len(common) > 0,
        witness=_smallest(grid, common, space.step),
        argmax_sizes={name: len(sets[name]) for name in names},
        pairs=tuple(pairs),
        step=space.step,
        tol=tol,
    )


@dataclass(frozen=True)
class CakeParams:
    """Parameters of the six cake utility functions.

    Roles: alpha is the convex exponent (>1), beta the concave exponent,
    gamma the linear slope, delta the pre-cap slope and lam the quadratic
    harm penalty for the capped recipient, xbar4 the safe cap, xmin the
    minimum meaningful share, epsilon the flat inclusion utility.

    The orderings 0 < gamma < beta < 1 < alpha and positivity are hard
    invariants. The magnitude guards (lam >= 50, xbar4 and xmin <= 0.2)
    can be relaxed with allow_degenerate=True for negative-control runs.
    """

    alpha: float = 2.0
    beta: float = 0.5
    gamma: float = 0.3
    lam: float = 100.0
    xbar4: float = 0.05
    xmin: float = 0.05
    epsilon: float = 0.1
    delta: float = 0.2
    allow_degenerate: bool = False

    def __post_init__(self):
        if not (0 < self.gamma < self.beta < 1 < self.alpha):
            raise ValueError("require 0 < gamma < beta < 1 < alpha")
        if self.epsilon <= 0 or self.delta <= 0:
            raise ValueError("epsilon and delta must be positive")
        if self.xbar4 <= 0 or self.xmin <= 0:
            raise ValueError("xbar4 and xmin must be positive")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if not self.allow_degenerate:
            if self.lam < 50:
                raise ValueError("lam must be at least 50 (or allow_degenerate)")
            if self.xbar4 > 0.2 or self.xmin > 0.2:
                raise ValueError("xbar4 and xmin must be at most 0.2 (or allow_degenerate)")

    @classmethod
    def from_json(cls, obj: dict) -> "CakeParams":
        """Parameters by field name; "lambda" is accepted for lam. Any
        other key is a ValueError that lists it."""
        kwargs = dict(obj)
        if "lambda" in kwargs:
            kwargs["lam"] = kwargs.pop("lambda")
        unknown = sorted(set(kwargs) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown cake parameters: {', '.join(unknown)}")
        return cls(**kwargs)


def cake_utilities(params: CakeParams) -> tuple[Callable[[float], float], ...]:
    """The six scalar utility functions on [0, 1].

    U1 = x^alpha, U2 = x^beta, U3 = gamma x,
    U4 = delta x - lam (x - xbar4)^2 for x above the cap (delta x below),
    U5 = epsilon for any positive share (0 at zero),
    U6 = gamma (x - xmin) at or above the floor (0 below).
    """
    a, b, g = params.alpha, params.beta, params.gamma
    lam, cap, floor = params.lam, params.xbar4, params.xmin
    eps, d = params.epsilon, params.delta

    def u1(x: float) -> float:
        return x ** a

    def u2(x: float) -> float:
        return x ** b

    def u3(x: float) -> float:
        return g * x

    def u4(x: float) -> float:
        penalty = lam * (x - cap) ** 2 if x > cap else 0.0
        return d * x - penalty

    def u5(x: float) -> float:
        return eps if x > 0 else 0.0

    def u6(x: float) -> float:
        return g * (x - floor) if x >= floor else 0.0

    return (u1, u2, u3, u4, u5, u6)


def functionals_from_utilities(
    utilities: Sequence[Callable[[tuple], float]],
    prior_weights: Sequence[float] | None = None,
    include: Sequence[str] = ("util", "egal", "rawls", "prior"),
) -> list[UtilityAggregate]:
    """Build the standard welfare functionals over per-person utilities.

    util sums utilities, egal is the negated concentration index of the
    utility vector, rawls takes the minimum, prior is a weighted sum with
    one weight per utility. Each utility is a function of that person's
    allocation row.
    """
    utilities = tuple(utilities)
    weights = None if prior_weights is None else tuple(float(x) for x in prior_weights)
    return [
        UtilityAggregate(name, utilities, weights if name == "prior" else None)
        for name in include
    ]


def cake_functionals(
    params: CakeParams,
    prior_weights: Sequence[float] | None = None,
    include: Sequence[str] = ("util", "egal", "rawls", "prior"),
) -> list[UtilityAggregate]:
    scalar = cake_utilities(params)
    row_utils = [lambda row, u=u: u(row[0]) for u in scalar]
    return functionals_from_utilities(row_utils, prior_weights, include)


def cake_space(step: float, enumeration_bound: int = 5_000_000) -> DiscretizedSpace:
    return DiscretizedSpace(
        step=step,
        capacity=ResourceCapacity(supply=(1.0,), variant="cake"),
        n=6,
        enumeration_bound=enumeration_bound,
    )


# ---------------------------------------------------------------------------
# Exact grid computations for the cake claims. The cake welfare functions
# are separable across the six recipients, so one max-plus budget DP gives
# exactly the values a full scan of the unit grid would, at any step. It
# serves claim (a) on the utility table and claim (c) on the table masked
# to -inf below the maximin optimum theta. Each suffix entry is the max of
# single IEEE additions, so it is the same float a scalar loop would give.
# Equality with the literal scan is property-tested at coarse steps.


def _tabulate(params: CakeParams, step: float) -> tuple[np.ndarray, int]:
    """The (n, budget + 1) utility table: entry [i, v] is person i's
    utility of v units of size step."""
    budget = round(1.0 / step)
    if not abs(budget * step - 1.0) <= _STEP_TOL:
        raise ValueError(f"step {step} does not divide the unit cake")
    scalar = cake_utilities(params)
    table = np.array([[u(v * step) for v in range(budget + 1)] for u in scalar])
    return table, budget


def _suffix_best(table: np.ndarray, budget: int) -> np.ndarray:
    """suffix[i, b]: best total utility from persons i.. with at most b units."""
    n, size = len(table), budget + 1
    suffix = np.zeros((n + 1, size))
    for i in range(n - 1, -1, -1):
        best, nxt = suffix[i], suffix[i + 1]
        best.fill(-np.inf)
        for v in range(size):
            np.maximum(best[v:], table[i, v] + nxt[: size - v], out=best[v:])
    return suffix


def _backtrack(table: np.ndarray, suffix: np.ndarray, budget: int) -> tuple[int, ...]:
    """Units per person of the optimum suffix[0, budget], each person
    taking the fewest units that still attain it."""
    units = []
    b = budget
    for i in range(len(table)):
        attains = table[i, : b + 1] + suffix[i + 1, b::-1] == suffix[i, b]
        v = int(np.argmax(attains))
        units.append(v)
        b -= v
    return tuple(units)


def _util_grid_analysis(table: np.ndarray, budget: int):
    """Grid max of the utility sum, the corner value, and the best value
    attainable by any allocation other than the all-to-first corner."""
    suffix = _suffix_best(table, budget)
    # v0 == budget is exactly the corner
    best_non_corner = np.max(table[0, :budget] + suffix[1, budget:0:-1])
    witness = _backtrack(table, suffix, budget)
    return float(suffix[0, budget]), float(table[0, budget]), float(best_non_corner), witness


def _rawls_grid_max(table: np.ndarray, budget: int):
    """Largest achievable min-utility on the grid, by threshold feasibility.

    Candidate thresholds are the positive tabulated utility values; a
    threshold is achievable iff the per-person minimum unit costs fit in
    the budget. A person's cost is the first index at which the running
    maximum of their row reaches the threshold (budget + 1 if it never
    does), and the largest achievable candidate is theta. Repeated
    candidates have equal costs, so they need no deduplication.
    """
    reach = np.maximum.accumulate(table, axis=1)
    candidates = np.sort(table[table > 0])[::-1]
    cost = sum(np.searchsorted(row, candidates, side="left") for row in reach)
    feasible = np.flatnonzero(cost <= budget)
    if not len(feasible):
        return 0.0, (0,) * len(table)
    theta = float(candidates[feasible[0]])
    return theta, tuple(int(np.searchsorted(row, theta, side="left")) for row in reach)


def _best_util_at_rawls_optimum(
    table: np.ndarray, budget: int, theta: float
) -> tuple[float, tuple[int, ...] | None]:
    """Max utility sum over allocations whose minimum utility is theta,
    i.e. over the rawls argmax set (theta is the rawls grid max)."""
    allowed = np.where(table >= theta, table, -np.inf)
    suffix = _suffix_best(allowed, budget)
    best = float(suffix[0, budget])
    if best == -math.inf:
        return best, None
    return best, _backtrack(allowed, suffix, budget)


@dataclass(frozen=True)
class ClaimResult:
    name: str
    passed: bool
    detail: str
    witness: tuple[float, ...] | None = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "witness": list(self.witness) if self.witness is not None else None,
        }


@dataclass(frozen=True)
class CakeVerificationReport:
    step: float
    tol: float
    claims: tuple[ClaimResult, ...]
    recheck_tol: float
    recheck_agrees: bool

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.claims)

    @property
    def label(self) -> str:
        return f"grid-certified at step {self.step:g}"

    def to_json(self) -> dict:
        return {
            "kind": "cake_verification_report",
            "schema_version": 1,
            "step": self.step,
            "tol": self.tol,
            "recheck_tol": self.recheck_tol,
            "recheck_agrees": self.recheck_agrees,
            "label": self.label,
            "all_passed": self.all_passed,
            "claims": [c.to_json() for c in self.claims],
        }


def _evaluate_claims(
    params: CakeParams, step: float, tols: Sequence[float]
) -> list[tuple[ClaimResult, ...]]:
    """The three claims judged at each tolerance in tols. The grid
    optima do not depend on the tolerance and are computed once."""
    table, budget = _tabulate(params, step)
    grid_max, corner_value, best_non_corner, util_witness = _util_grid_analysis(table, budget)
    theta, rawls_units = _rawls_grid_max(table, budget)
    rawls_witness = tuple(v * step for v in rawls_units)
    best_at_rawls, shared_units = _best_util_at_rawls_optimum(table, budget, theta)
    corner = tuple(1.0 if i == 0 else 0.0 for i in range(6))
    verdicts = []
    for tol in tols:
        # (a) the utility-sum argmax is exactly the all-to-first-person corner
        corner_is_max = corner_value >= grid_max - tol
        corner_unique = best_non_corner < corner_value - tol
        if corner_is_max and corner_unique:
            claim_a = ClaimResult(
                "util_argmax_is_corner",
                True,
                f"corner value {corner_value:.9g} beats every other grid point "
                f"(runner-up {best_non_corner:.9g})",
                corner,
            )
        else:
            witness_x = tuple(v * step for v in util_witness)
            claim_a = ClaimResult(
                "util_argmax_is_corner",
                False,
                f"grid max {grid_max:.9g} at {witness_x} vs corner value "
                f"{corner_value:.9g}; corner is "
                + ("tied, not unique" if corner_is_max else "not maximal"),
                witness_x,
            )

        # (b) every maximin-optimal allocation gives person 5 a positive share.
        # A zero share forces that person's utility to 0, so the claim holds
        # exactly when the maximin grid optimum is strictly positive.
        if theta > tol:
            claim_b = ClaimResult(
                "rawls_argmax_requires_inclusion",
                True,
                f"maximin grid optimum {theta:.9g} > 0, so every optimum gives "
                f"person 5 a positive share",
                rawls_witness,
            )
        else:
            claim_b = ClaimResult(
                "rawls_argmax_requires_inclusion",
                False,
                f"maximin grid optimum is {theta:.9g}; allocations with a zero "
                f"share for person 5 are optimal",
                rawls_witness,
            )

        # (c) no allocation maximizes all four welfare functionals at once.
        # It suffices that the utility-sum and maximin argmax sets are disjoint:
        # compare the best utility sum achievable at the maximin optimum with
        # the unconstrained grid max.
        if best_at_rawls < grid_max - tol:
            claim_c = ClaimResult(
                "argmax_intersection_empty",
                True,
                f"best utility sum over maximin-optimal allocations is "
                f"{best_at_rawls:.9g}, below the utility grid max {grid_max:.9g}; "
                f"the four argmax sets share no member",
                None,
            )
        else:
            witness_x = (
                tuple(v * step for v in shared_units) if shared_units is not None else None
            )
            claim_c = ClaimResult(
                "argmax_intersection_empty",
                False,
                f"an allocation is optimal for both the utility sum and the "
                f"maximin objective (value {best_at_rawls:.9g})",
                witness_x,
            )
        verdicts.append((claim_a, claim_b, claim_c))
    return verdicts


def verify_cake_claims(
    params: CakeParams, step: float, tol: float = 1e-9, recheck_tol: float = 1e-6
) -> CakeVerificationReport:
    """Check the three cake claims on the grid at the given step.

    Requires step <= min(xbar4, xmin) / 2 so the cap and floor thresholds
    fall on resolvable grid points. The claims are evaluated at tol and
    re-evaluated at recheck_tol to confirm the verdicts are not knife-edge.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    limit = min(params.xbar4, params.xmin) / 2
    if step > limit:
        raise ValueError(
            f"step {step} too coarse to resolve the cap and floor thresholds "
            f"(needs step <= {limit:g})"
        )
    claims, recheck = _evaluate_claims(params, step, (tol, recheck_tol))
    agrees = all(a.passed == b.passed for a, b in zip(claims, recheck))
    return CakeVerificationReport(
        step=step,
        tol=tol,
        claims=claims,
        recheck_tol=recheck_tol,
        recheck_agrees=agrees,
    )
