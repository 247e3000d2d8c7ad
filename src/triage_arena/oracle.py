"""Brute-force welfare optimization on the cake grid.

This module certifies whether competing welfare functionals admit a
common maximizer on a finite grid: n persons' shares of one unit good,
in multiples of a step. Every functional is a UtilityAggregate over
per-person utilities of a share (functionals_from_utilities,
cake_functionals). argmax_set, a literal scan of every grid allocation
for any scalar objective, is the reference.
check_nondegeneracy evaluates the aggregates in one array pass instead:
it builds the grid once as an (M, n) integer composition array,
tabulates each person's utility once per grid share and reduces the
utility matrix of each fixed-size block of grid rows column by column,
with the scalar path's float arithmetic: sums add columns, the minimum
folds np.minimum over them and egal sorts each row with Batcher's
merge-exchange network of np.minimum and np.maximum, never a numpy
reduction along a short row.
The cake verifier additionally exploits that its welfare functions are
separable across recipients: one max-plus budget DP over the same
utility table gives the same grid answers and stays tractable at fine
steps. It forms the offers of a block of unit counts at once, each the
one addition a per-count loop makes, and only the offers its claims
read: person 0's at the whole budget, and on the masked table none
below a person's least unit count. It serves claim (a) on the table
and claim (c) on the table masked below the maximin optimum theta. All
verdicts are labelled grid-certified at their step; nothing here
reasons about the continuum.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .metrics import gini
from .model import Allocation

__all__ = [
    "UtilityAggregate",
    "DiscretizedSpace",
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
CLAIM_TOL = 1e-9
RECHECK_TOL = 1e-6
# grid allocations per block of the nondegeneracy pass; a block's float
# working memory is about 140 bytes a row, and no size from 1,024 to
# 16,384 rows ran faster than 4,096 beyond noise or at a lower peak RSS
_BLOCK_ROWS = 4096
# narrower rows per block while _composition_array widens the grid; the
# blocks' temporaries stay small beside the grid (about 1.2x its size at
# peak, 1.7x without blocks), and 4,096 to 16,384 ran alike
_COMPOSITION_ROWS = 8192
# offers per block of the cake DP (_suffix_best), 512 KB of float64; of
# 8,192 to 131,072 this ran fastest at step 0.001, and a fixed count of
# rows would grow the working memory with the budget instead
_DP_CANDIDATES = 65_536
# offers per pass of the cake DP that verify_cake_claims accepts, counted
# on the full table, an upper bound on what the DP forms since it reads
# person 0 at the budget only and starts the masked pass at each row's
# least unit count; time grows with this count, about 0.5 s a command at
# 3.0e8 (step 0.0001)
_DP_OFFER_BOUND = 10**10
# the bound _utility_table puts on a table's sums, so far below the float
# range that no sum, weighted sum or egal term of the grid or DP overflows
_UTILITY_RANGE = 2.0**1000


_AGGREGATE_KINDS = ("util", "egal", "rawls", "prior")


@dataclass(frozen=True)
class UtilityAggregate:
    """A welfare functional, always maximized, that aggregates per-person
    utilities; kind names it.

    utilities[i] maps person i's share of the cake to a utility. util sums
    the utilities, egal is the negated concentration index of their
    positive parts, rawls takes the minimum and prior is the sum weighted
    by weights. Calling it evaluates one allocation; over_grid evaluates
    a whole utility matrix with the same float operations in the same
    order.
    """

    kind: str
    utilities: tuple[Callable[[float], float], ...]
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
            if not all(map(math.isfinite, self.weights)):
                raise ValueError(f"prior_weights must be finite, not {list(self.weights)}")

    @property
    def table_weights(self) -> tuple[float, ...] | None:
        """The weights _utility_table's range check applies: prior's, else none."""
        return self.weights if self.kind == "prior" else None

    def __call__(self, alloc: Allocation) -> float:
        values = [u(row[0]) for u, row in zip(self.utilities, alloc.rows)]
        if self.kind == "util":
            return sum(values)
        if self.kind == "egal":
            return -gini([max(x, 0.0) for x in values])
        if self.kind == "rawls":
            return min(values)
        return sum(w * x for w, x in zip(self.weights, values))

    def over_grid(self, utility: np.ndarray) -> np.ndarray:
        """Values of M allocations from their (M, n) utility matrix.

        Every functional works on the n columns, one whole-column
        operation at a time, since numpy reduces a short row slowly.
        Sums add the columns left to right from 0, as sum() does on
        CPython up to 3.11 (later versions compensate, which can move a
        scalar value in its last bits); rawls folds np.minimum over the
        columns; egal replicates metrics.gini row by row, including its
        all-zero and equal-vector rules, and orders the rows with a
        sorting network of np.minimum and np.maximum (_sort_columns).
        The values have the bytes of the row-wise min(axis=1) and np.sort
        formulas.
        """
        if self.kind == "util":
            return _left_sum(utility.T)
        if self.kind == "rawls":
            return functools.reduce(np.minimum, utility.T[1:], utility[:, 0].copy())
        if self.kind == "prior":
            return _left_sum(w * column for w, column in zip(self.weights, utility.T))
        n = utility.shape[1]
        columns = list(np.maximum(utility, 0.0).T)
        total = _left_sum(columns)
        _sort_columns(columns)
        weighted = _left_sum((i + 1) * column for i, column in enumerate(columns))
        with np.errstate(divide="ignore", invalid="ignore"):
            index = 2.0 * weighted / (n * total) - (n + 1) / n
        index[(total == 0) | (columns[0] == columns[-1])] = 0.0
        return -index


@functools.cache
def _merge_exchange(n: int) -> tuple[tuple[int, int], ...]:
    """The compare-exchanges (i, j), i < j, of Batcher's merge-exchange
    sort of n items, in order (Knuth, TAOCP vol. 3, 5.2.2, Algorithm M):
    12 for n = 6, against 15 for odd-even transposition."""
    pairs = []
    t = max(n - 1, 0).bit_length()
    p = 1 << t >> 1
    while p > 0:
        q, r, d = 1 << t >> 1, 0, p
        while True:
            pairs.extend((i, i + d) for i in range(n - d) if i & p == r)
            if q == p:
                break
            d, q, r = q - p, q >> 1, p
        p >>= 1
    return tuple(pairs)


def _sort_columns(columns: list) -> None:
    """Order the rows of columns ascending, as np.sort leaves them, by
    replacing the columns in place through the merge-exchange network of
    np.minimum and np.maximum. A row holding NaN turns NaN in every column,
    since every input of a sorting network reaches every output."""
    for i, j in _merge_exchange(len(columns)):
        low, high = columns[i], columns[j]
        columns[i], columns[j] = np.minimum(low, high), np.maximum(low, high)


def _left_sum(columns) -> np.ndarray:
    total = 0.0
    for column in columns:
        total = total + column
    return total


@dataclass(frozen=True)
class DiscretizedSpace:
    """The cake grid: n persons' shares of one unit good, each a multiple
    of step, summing to at most 1.

    The step must divide the cake to within 1e-9. enumeration_bound
    guards against accidental combinatorial blow-ups in the enumeration
    and the grid pass; the cake DP does not enumerate and ignores it
    (verify_cake_claims bounds the DP's offers instead).
    """

    step: float
    n: int
    enumeration_bound: int = 5_000_000

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be finite and positive, not {self.step}")
        if not math.isfinite(1.0 / self.step):
            raise ValueError(f"step {self.step} is too small: 1/step is not finite")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not abs(self.units * self.step - 1.0) <= _STEP_TOL:
            raise ValueError(f"step {self.step} does not divide the unit cake")

    @property
    def units(self) -> int:
        """The whole cake in steps."""
        return round(1.0 / self.step)


def candidate_count(space: DiscretizedSpace) -> int:
    """Number of grid allocations, by stars and bars."""
    return math.comb(space.units + space.n, space.n)


def enumerate_allocations(space: DiscretizedSpace) -> Iterator[Allocation]:
    """Yield every grid allocation exactly once, in lexicographic order.

    Raises ValueError (naming the computed count) before yielding
    anything if the grid is too large.
    """
    for member in _grid(space)[0]:
        yield _allocation(member, space.step)


def _allocation(member: np.ndarray, step: float) -> Allocation:
    """The allocation of a grid member: each person's unit count times
    step, as a one-column row."""
    return Allocation(tuple((v * step,) for v in member.tolist()))


def argmax_set(
    W: Callable[[Allocation], float], space: DiscretizedSpace, tol: float = 1e-9
) -> list[Allocation]:
    """All grid allocations within tol of the grid maximum of W, full scan.

    Returned in canonical (row-tuple sorted) order. A UtilityAggregate's
    utility table is checked first, so the scan refuses what the array
    pass refuses (_utility_table).
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be nonnegative and finite, not {tol}")
    if isinstance(W, UtilityAggregate):
        _utility_table(W.utilities, space, [W.table_weights])
    best = None
    kept: list[tuple[float, Allocation]] = []
    for alloc in enumerate_allocations(space):
        value = W(alloc)
        if best is None or value > best:
            best = value
            kept = [(v, a) for v, a in kept if v >= best - tol]
        if value >= best - tol:
            kept.append((value, alloc))
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
    that holds total + parts.

    Built front to back: each narrower row, in order, is extended by
    every last part from 0 to the room it leaves, total - sum(row). The
    prefix columns repeat the narrower rows' columns; the last column is
    a cumulative sum, in the grid's dtype, of steps of 1 that wrap back
    to 0 at each run start, exact because every value fits the dtype.
    Narrower rows are taken _COMPOSITION_ROWS at a time, so no array of
    grid length is formed besides the grid and its rooms, and no wider
    integer than the dtype is used for either.
    """
    dtype = np.min_scalar_type(total + parts)
    grid = np.arange(total + 1, dtype=dtype)[:, None]
    room = grid[::-1, 0]
    for width in range(2, parts + 1):
        wider = np.empty((math.comb(total + width, width), width), dtype)
        rooms = np.empty(len(wider), dtype) if width < parts else None
        end = 0
        for lo in range(0, len(grid), _COMPOSITION_ROWS):
            rows = slice(lo, lo + _COMPOSITION_ROWS)
            counts = room[rows] + 1
            start, end = end, end + int(counts.sum(dtype=np.intp))
            block = wider[start:end]
            for j in range(width - 1):
                block[:, j] = np.repeat(grid[rows, j], counts)
            last = block[:, -1]
            last.fill(1)
            last[0] = 0
            last[np.cumsum(counts[:-1])] = np.subtract(1, counts[:-1], dtype=dtype)
            np.cumsum(last, dtype=dtype, out=last)
            if rooms is not None:
                np.subtract(np.repeat(room[rows], counts), last, out=rooms[start:end])
        grid, room = wider, rooms
    return grid


def _grid(space: DiscretizedSpace, functionals: Sequence[UtilityAggregate] = ()):
    """The grid, _composition_array(space.units, space.n), and the table of
    each utility tuple of functionals. A grid above space.enumeration_bound
    is refused before any table, a table before the grid is built."""
    count = candidate_count(space)
    if count > space.enumeration_bound:
        raise ValueError(
            f"grid has {count} candidate allocations, above the enumeration "
            f"bound of {space.enumeration_bound}"
        )
    weights: dict[tuple, list] = {}
    for W in functionals:
        weights.setdefault(W.utilities, []).append(W.table_weights)
    tables = {u: _utility_table(u, space, w) for u, w in weights.items()}
    return _composition_array(space.units, space.n), tables


def _utility_table(
    utilities: Sequence[Callable[[float], float]], space: DiscretizedSpace, weights: Sequence = (None,)
) -> np.ndarray:
    """The (n, units + 1) utility table: entry [i, v] is person i's
    utility of v steps of cake. A ValueError refuses a non-finite entry,
    and a table whose row maxima of |entry|, each times |w_i| for some
    prior weights w in weights (1 for None), sum to _UTILITY_RANGE or more."""
    if len(utilities) != space.n:
        raise ValueError(f"{len(utilities)} utilities for a grid of {space.n} persons")
    shares = [v * space.step for v in range(space.units + 1)]
    table = np.array([[u(x) for x in shares] for u in utilities], dtype=float)
    finite = np.isfinite(table)
    if not finite.all():
        raise ValueError(f"utilities must be finite on the grid, not {table[~finite][0]}")
    peaks = np.abs(table).max(axis=1).tolist()  # Python floats overflow without a warning
    for w in weights:
        total = sum(p * (1.0 if w is None else abs(w[i])) for i, p in enumerate(peaks))
        if total >= _UTILITY_RANGE:
            weighted = "" if w is None else "prior-weighted "
            raise ValueError(
                f"utilities out of range: their {weighted}largest magnitudes sum to "
                f"{total:.3g}, not below 2**1000"
            )
    return table


def _grid_argmax_indices(
    functionals: Sequence[UtilityAggregate],
    grid: np.ndarray,
    tables: dict[tuple, np.ndarray],
    tol: float,
) -> dict[str, np.ndarray]:
    """The argmax set of each functional, by kind, as the sorted indices
    of its members in grid. grid and tables are what _grid(space,
    functionals) returns. Gives the members argmax_set returns.

    Each utility is called once per float share enumerate_allocations
    builds (_utility_table). The grid is scanned in blocks of _BLOCK_ROWS
    allocations: each block's (rows, n) utility matrix is gathered from the table in
    column-major order, one person's contiguous column at a time
    (_gather), and goes through over_grid. Its column-wise ufuncs give
    the same bytes in either order, and its values are row-local and so
    the floats a whole-grid pass gives. Per functional, a running
    maximum keeps the candidates within tol of it, pruned whenever it
    rises, and a block whose top lies below that floor adds none.
    """
    best = {W.kind: -math.inf for W in functionals}
    kept: dict[str, list] = {W.kind: [] for W in functionals}
    for start in range(0, len(grid), _BLOCK_ROWS):
        block = grid[start : start + _BLOCK_ROWS]
        indices = np.arange(start, start + len(block))
        matrices: dict[tuple, np.ndarray] = {}
        for W in functionals:
            if W.utilities not in matrices:
                matrices[W.utilities] = _gather(tables[W.utilities], block)
            values = W.over_grid(matrices[W.utilities])
            top = values.max()
            if top > best[W.kind]:
                best[W.kind] = top
                kept[W.kind] = [_within(v, i, top - tol) for v, i in kept[W.kind]]
            if top >= best[W.kind] - tol:
                kept[W.kind].append(_within(values, indices, best[W.kind] - tol))
    return {
        W.kind: np.concatenate([np.empty(0, np.intp)] + [i for _, i in kept[W.kind]])
        for W in functionals
    }


def _gather(table: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The (rows, n) utility matrix of a block of grid rows, in column-major
    order: column i is person i's table row read at the block's column i."""
    matrix = np.empty(block.shape, order="F")
    for i, utilities in enumerate(table):
        # every grid value indexes the table; "raise" would buffer out
        utilities.take(block[:, i], out=matrix[:, i], mode="clip")
    return matrix


def _within(values: np.ndarray, indices: np.ndarray, floor: float):
    near = values >= floor
    return values[near], indices[near]


def check_nondegeneracy(
    functionals: Sequence[UtilityAggregate],
    space: DiscretizedSpace,
    tol: float = 1e-9,
) -> NondegeneracyReport:
    """Intersect the argmax sets of two or more welfare functionals.

    Degenerate means some allocation maximizes every functional at once.
    No social optimum is ever selected; the report only describes how
    the optima relate. The functionals are UtilityAggregates of distinct
    kinds, evaluated together in one array pass over the grid (_grid); it
    gives the argmax sets argmax_set would.
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
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be nonnegative and finite, not {tol}")
    grid, tables = _grid(space, functionals)
    sets = _grid_argmax_indices(functionals, grid, tables, tol)

    def first(indices: np.ndarray) -> Allocation | None:
        # the grid's compositions are in lexicographic order and v -> v * step
        # is increasing, so a sorted set's first index is its row-tuple minimum
        return _allocation(grid[indices[0]], space.step) if len(indices) else None

    # each set is sorted and free of repeats, which the set operations assume
    intersect = functools.partial(np.intersect1d, assume_unique=True)
    minus = functools.partial(np.setdiff1d, assume_unique=True)
    common = functools.reduce(intersect, (sets[name] for name in names))
    pairs = [
        PairEvidence(
            first=a,
            second=b,
            intersects=len(intersect(sets[a], sets[b])) > 0,
            only_first=first(minus(sets[a], sets[b])),
            only_second=first(minus(sets[b], sets[a])),
        )
        for a, b in itertools.combinations(names, 2)
    ]
    return NondegeneracyReport(
        degenerate=len(common) > 0,
        witness=first(common),
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

    Finiteness, the orderings 0 < gamma < beta < 1 < alpha and positivity
    are hard invariants. The magnitude guards (lam >= 50, xbar4 and
    xmin <= 0.2) can be relaxed with allow_degenerate=True, a bool, for
    negative-control runs.
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
        if not isinstance(self.allow_degenerate, bool):
            raise ValueError(f"allow_degenerate must be a bool, not {self.allow_degenerate!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "allow_degenerate" and not math.isfinite(value):
                raise ValueError(f"cake parameters must be finite: {f.name}={value}")
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
    utilities: Sequence[Callable[[float], float]],
    prior_weights: Sequence[float] | None = None,
    include: Sequence[str] = ("util", "egal", "rawls", "prior"),
) -> list[UtilityAggregate]:
    """Build the standard welfare functionals over per-person utilities.

    util sums utilities, egal is the negated concentration index of the
    utility vector, rawls takes the minimum, prior is a weighted sum with
    one weight per utility. Each utility is a function of that person's
    share of the cake.
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
    return functionals_from_utilities(cake_utilities(params), prior_weights, include)


def cake_space(step: float, enumeration_bound: int = 5_000_000) -> DiscretizedSpace:
    return DiscretizedSpace(step=step, n=6, enumeration_bound=enumeration_bound)


# ---------------------------------------------------------------------------
# Exact grid computations for the cake claims. The cake welfare functions
# are separable across the six recipients, so one max-plus budget DP gives
# exactly the values a full scan of the unit grid would, at any step. It
# serves claim (a) on the utility table and claim (c) on the table masked
# to -inf below the maximin optimum theta. Each suffix entry is the max of
# single IEEE additions, so it is the same float a scalar loop would give.
# Equality with the literal scan is property-tested at coarse steps.


def _suffix_best(table: np.ndarray, budget: int) -> np.ndarray:
    """suffix[i, b]: best total utility from persons i.. with at most b units.

    Person i taking v units offers table[i, v] + suffix[i + 1, b - v] at
    every b >= v. The offers are formed for a block of v's at once, each
    v's row read as a window of suffix[i + 1] preceded by -inf padding,
    into one reused buffer, and the block's column maxima fold into
    suffix[i]. Blocks hold about _DP_CANDIDATES offers, so working memory
    does not grow with the budget. Every table entry is finite or -inf,
    so the pairs b < v a block also covers read the -inf padding and
    offer -inf, as a loop over v that never forms them would leave it.
    """
    n, size = len(table), budget + 1
    rows = min(size, max(1, _DP_CANDIDATES // size))
    buffer = np.empty(rows * size)
    suffix = np.zeros((n + 1, size))
    padded = np.full(2 * size - 1, -np.inf)
    # shifted[v, b] is padded[size - 1 + b - v]: suffix[i + 1, b - v] for b >= v
    shifted = sliding_window_view(padded, size)[::-1]
    for i in range(n - 1, -1, -1):
        best = suffix[i]
        best.fill(-np.inf)
        padded[size - 1 :] = suffix[i + 1]
        for v0 in range(0, size, rows):
            window = shifted[v0 : v0 + rows, v0:]
            offers = buffer[: window.size].reshape(window.shape)
            np.add(table[i, v0 : v0 + rows, None], window, out=offers)
            np.maximum(best[v0:], offers.max(axis=0), out=best[v0:])
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


def _optimum(table: np.ndarray, budget: int) -> tuple[np.ndarray, float, tuple[int, ...]]:
    """Person 0's offers at the whole budget, their maximum and its units
    per person: the offers table[0, v] + suffix[1, budget - v] for every
    v, suffix[0, budget] and its _backtrack. The callers read person 0 at
    the budget only, so the DP runs on persons 1.. (its rows are the whole
    table's suffix[1:]) and the rest of row suffix[0] is never formed."""
    tail = _suffix_best(table[1:], budget)
    offers = table[0] + tail[0, ::-1]
    best = offers.max()
    first = int(np.argmax(offers == best))
    return offers, float(best), (first,) + _backtrack(table[1:], tail, budget - first)


def _util_grid_analysis(table: np.ndarray, budget: int):
    """Grid max of the utility sum, the corner value, and the best value
    attainable by any allocation other than the all-to-first corner."""
    offers, grid_max, witness = _optimum(table, budget)
    # v0 == budget is exactly the corner
    best_non_corner = np.max(offers[:budget])
    return grid_max, float(table[0, budget]), float(best_non_corner), witness


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
    i.e. over the rawls argmax set (theta is the rawls grid max).

    The DP runs on the table masked to -inf below theta. Every entry of a
    row before its least unit count that reaches theta is -inf, so each
    row starts there and the DP runs on the budget the least counts
    leave, which gives the whole masked table's value and witness: the
    allocations it skips are -inf.
    """
    allowed = np.where(table >= theta, table, -np.inf)
    reached = allowed > -np.inf
    least = reached.argmax(axis=1)
    room = budget - int(least.sum())
    if not reached.any(axis=1).all() or room < 0:
        return -math.inf, None
    narrowed = np.take_along_axis(allowed, least[:, None] + np.arange(room + 1), axis=1)
    _offers, best, units = _optimum(narrowed, room)
    return best, tuple(int(v + w) for v, w in zip(least, units))


@dataclass(frozen=True)
class ClaimResult:
    name: str
    passed: bool
    detail: str
    witness: tuple[float, ...] | None = None


@dataclass(frozen=True)
class CakeVerificationReport:
    step: float
    claims: tuple[ClaimResult, ...]
    recheck_agrees: bool

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.claims)

    @property
    def label(self) -> str:
        return f"grid-certified at step {self.step:g}"


def _evaluate_claims(
    params: CakeParams, space: DiscretizedSpace, tols: Sequence[float]
) -> list[tuple[ClaimResult, ...]]:
    """The three claims judged at each tolerance in tols. The grid
    optima do not depend on the tolerance and are computed once."""
    step, budget = space.step, space.units
    table = _utility_table(cake_utilities(params), space)
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


def verify_cake_claims(params: CakeParams, step: float) -> CakeVerificationReport:
    """Check the three cake claims on the grid at the given step.

    Requires step <= min(xbar4, xmin) / 2 so the cap and floor thresholds
    fall on resolvable grid points. The claims are evaluated at
    CLAIM_TOL and re-evaluated at RECHECK_TOL to confirm the verdicts are
    not knife-edge. A step whose DP would form more than _DP_OFFER_BOUND
    offers per pass on the full table is refused with a ValueError before
    any table is built; _utility_table refuses a table out of range.
    """
    space = cake_space(step)
    limit = min(params.xbar4, params.xmin) / 2
    if step > limit:
        raise ValueError(
            f"step {step} too coarse to resolve the cap and floor thresholds "
            f"(needs step <= {limit:g})"
        )
    size = space.units + 1
    offers = space.n * size * (size + 1) // 2
    if offers > _DP_OFFER_BOUND:
        raise ValueError(
            f"step {step} needs {offers} offers per pass of the cake DP, above "
            f"the bound of {_DP_OFFER_BOUND}"
        )
    claims, recheck = _evaluate_claims(params, space, (CLAIM_TOL, RECHECK_TOL))
    agrees = all(a.passed == b.passed for a, b in zip(claims, recheck))
    return CakeVerificationReport(step=step, claims=claims, recheck_agrees=agrees)
