"""Noisy multi-test observation model for disease-burden surveys.

Each participant is in one of ``k + 1`` latent disease states; the last
state is the reference state carrying the remaining probability
``1 - sum(p)``.  A state produces a nominal binary response on every
diagnostic test, and the observed outcome is the nominal response passed
through an asymmetric binary channel parameterized by the test's
sensitivity and specificity.  Administering a subset of tests (a *test
pattern*) therefore yields an outcome vector whose distribution is a
mixture over states, and whose Fisher information drives every design
computation downstream.

Every outcome of every pattern is one row of a stacked pattern table,
built once per model and cached, in the row order that ``_layout`` states
and shares per test count.  A row holds ``P(y | state)`` for every state,
its deviation ``d`` from the reference state and the flattened outer
product ``d d'``, so the Fisher information of a pattern, at one parameter
point or on a whole grid, is a sum of its rows weighted by the reciprocal
mixture probabilities.

A pattern's outcome is a marginal of the all-tests outcome, so by the
data-processing inequality for Fisher information (Zamir 1998, IEEE Trans.
Inf. Theory 44) ``I_all(p) - I_t(p)`` is positive semidefinite for every
pattern t at every p: the all-tests pattern alone decides A1 and A2.  The
gates and check_a2 read it alone; check_a1 scans for the first witness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "TestSpec",
    "DiseaseModel",
    "TestPattern",
    "ParameterBox",
    "default_model",
    "all_patterns",
    "make_pattern",
    "fisher_info",
    "check_a1",
    "check_a2",
    "validate_parameter",
]

# Eigenvalues above this (after symmetrization) count as strictly positive;
# double-precision noise floor for parameter dimensions k <= 10.
PD_TOLERANCE = 1e-10
# Lattice points a box grid may hold before its simplex cut.  It admits the
# whole simplex box of a 3-parameter model at the default step 0.01
# (1,030,301 points).  A worst-case solve of the shipped model peaks at about
# 35 MB plus 0.69 kB per grid point (row4: 140 MB at 156,981 points, 832 MB at
# 1,187,361), so this keeps one under about 1.4 GB, and a finer step fails
# here instead of in np.arange or in the solve.
MAX_GRID_POINTS = 2_000_000


@dataclass(frozen=True)
class TestSpec:
    """One diagnostic test: its cost and reliability.

    Sensitivity and specificity are required to lie strictly inside (0, 1)
    so that every outcome of every pattern has positive probability.
    """

    id: str
    cost: float
    sensitivity: float
    specificity: float

    def __post_init__(self):
        if not self.id:
            raise ValueError("test id must be a nonempty string")
        if not 0 < self.cost < math.inf:
            raise ValueError(f"test {self.id!r}: cost must be positive and finite, got {self.cost}")
        for name in ("sensitivity", "specificity"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(
                    f"test {self.id!r}: {name} must be strictly between 0 and 1, got {value}"
                )


@dataclass(frozen=True, eq=False)
class DiseaseModel:
    """States, nominal test responses, and the estimation target.

    ``nominal`` is a binary matrix with ``k + 1`` rows (one per state; the
    last row is the reference state) and one column per test.  ``u`` is the
    coefficient vector of the linear functional ``u @ p`` being estimated.
    """

    tests: tuple[TestSpec, ...]
    nominal: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        tests = tuple(self.tests)
        if not tests:
            raise ValueError("model needs at least one test")
        ids = [t.id for t in tests]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate test ids: {ids}")
        nominal = np.asarray(self.nominal)
        if not ((nominal == 0) | (nominal == 1)).all():
            raise ValueError("nominal matrix entries must be 0 or 1")
        nominal = _read_only(nominal, np.int64)
        if nominal.ndim != 2 or nominal.shape[1] != len(tests):
            raise ValueError(
                f"nominal matrix must have one column per test, got shape {nominal.shape}"
            )
        if nominal.shape[0] < 2:
            raise ValueError("nominal matrix needs at least one non-reference state")
        u = _read_only(self.u)
        if u.shape != (nominal.shape[0] - 1,):
            raise ValueError(
                f"u must have length k={nominal.shape[0] - 1}, got shape {u.shape}"
            )
        _require_finite(u, "u entry")
        if not np.any(u):
            raise ValueError("u must be nonzero")
        object.__setattr__(self, "tests", tests)
        object.__setattr__(self, "nominal", nominal)
        object.__setattr__(self, "u", u)

    @property
    def k(self) -> int:
        """Parameter dimension (number of non-reference states)."""
        return self.nominal.shape[0] - 1

    @property
    def n_tests(self) -> int:
        return len(self.tests)

    @property
    def test_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.tests)

    def test_index(self, test_id: str) -> int:
        try:
            return self.test_ids.index(test_id)
        except ValueError:
            raise KeyError(f"unknown test id {test_id!r}; have {list(self.test_ids)}") from None

    def with_test_overrides(self, overrides: dict[str, dict[str, float]]) -> "DiseaseModel":
        """New model with per-test sensitivity/specificity replaced.

        ``overrides`` maps test id to a dict with any of the keys
        ``sensitivity`` and ``specificity``, and no other; unspecified
        entries, and every cost, inherit from this model.
        """
        for test_id in overrides:
            self.test_index(test_id)  # raises KeyError for unknown ids
        tests = []
        for t in self.tests:
            ov = overrides.get(t.id, {})
            unknown = set(ov) - {"sensitivity", "specificity"}
            if unknown:
                raise ValueError(f"override for test {t.id!r} has unknown keys {sorted(unknown)}")
            tests.append(replace(t, **ov))
        return DiseaseModel(tests=tuple(tests), nominal=self.nominal, u=self.u)


@dataclass(frozen=True)
class TestPattern:
    """A nonempty subset of tests administered to one participant.

    ``mask[j] == 1`` means test j is conducted; the cost is exactly the sum
    of the member tests' costs.
    """

    mask: tuple[int, ...]
    cost: float

    def __post_init__(self):
        if not any(self.mask):
            raise ValueError("test pattern must include at least one test")
        if not all(m in (0, 1) for m in self.mask):
            raise ValueError(f"pattern mask entries must be 0 or 1, got {self.mask}")
        if not self.cost > 0:
            raise ValueError("pattern cost must be positive")

    @property
    def label(self) -> str:
        return "".join(str(m) for m in self.mask)


def make_pattern(mask: Sequence[int], model: DiseaseModel) -> TestPattern:
    mask = tuple(int(m) for m in mask)
    if len(mask) != model.n_tests:
        raise ValueError(f"mask length {len(mask)} != number of tests {model.n_tests}")
    cost = sum(t.cost for t, m in zip(model.tests, mask) if m)
    return TestPattern(mask=mask, cost=cost)


def all_patterns(model: DiseaseModel) -> tuple[TestPattern, ...]:
    """All nonempty test subsets, in lexicographic mask order (cached per model)."""
    return _pattern_tables(model).patterns


def default_model(
    rat_cost: float = 450.0,
    rtpcr_cost: float = 1600.0,
    antibody_cost: float = 300.0,
) -> DiseaseModel:
    """The shipped three-test, four-state serosurvey model.

    States: active infection without antibodies, antibodies without active
    infection, both, and neither (reference).  The default estimation
    target is the total burden, ``u = (1, 1, 1)``.
    """
    tests = (
        TestSpec(id="rat", cost=rat_cost, sensitivity=0.5, specificity=0.975),
        TestSpec(id="rtpcr", cost=rtpcr_cost, sensitivity=0.95, specificity=0.97),
        TestSpec(id="antibody", cost=antibody_cost, sensitivity=0.921, specificity=0.977),
    )
    nominal = [
        [1, 1, 0],  # active infection, no antibodies
        [0, 0, 1],  # antibodies, no active infection
        [1, 1, 1],  # both
        [0, 0, 0],  # neither (reference state)
    ]
    return DiseaseModel(tests=tests, nominal=nominal, u=np.ones(3))


def _read_only(values, dtype=np.float64) -> np.ndarray:
    """A read-only copy of values: what a value type holds is its own, so
    neither it nor its caller's array can change the other."""
    array = np.array(values, dtype=dtype)
    array.setflags(write=False)
    return array


def _require_finite(values: np.ndarray, name: str) -> None:
    if not np.isfinite(values).all():
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ValueError(f"{name} {bad} must be finite, got {values[bad]}")


def validate_parameter(p, k: int) -> np.ndarray:
    """Check that p is a length-k vector with p >= 0 and sum(p) <= 1.

    Tiny negative entries from floating-point arithmetic are clipped to 0;
    the result is a read-only copy.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (k,):
        raise ValueError(f"parameter must have length {k}, got shape {p.shape}")
    _require_finite(p, "parameter entry")
    if (p < -1e-12).any():
        raise ValueError(f"parameter entries must be nonnegative, got {p}")
    if p.sum() > 1.0 + 1e-9:
        raise ValueError(f"parameter entries must sum to at most 1, got sum {p.sum()}")
    return _read_only(np.maximum(p, 0.0))


@dataclass(frozen=True, eq=False)
class ParameterBox:
    """A coordinate box of parameters, intersected with the simplex.

    The feasible set is ``{p : lower <= p <= upper, sum(p) <= 1}`` and must
    be nonempty, which realizes a convex compact uncertainty region.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = _read_only(self.lower)
        upper = _read_only(self.upper)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be vectors of the same length")
        _require_finite(lower, "box lower bound")
        _require_finite(upper, "box upper bound")
        if (lower < 0).any():
            raise ValueError(f"box lower bounds must be nonnegative, got {lower}")
        if (lower > upper).any():
            raise ValueError("box needs lower <= upper in every coordinate")
        if lower.sum() > 1.0 + 1e-12:
            raise ValueError("box does not intersect the simplex: sum of lower bounds > 1")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def k(self) -> int:
        return self.lower.shape[0]

    def lattice_size(self, step: float) -> int:
        """Number of points of the box's lattice at ``step``, before the
        simplex cut; raises when the step is not positive and finite, when
        an axis gets no point, or when it holds more than MAX_GRID_POINTS.

        Each axis holds the ``np.arange`` samples of ``grid``; the upper
        face it may add is not counted, and an axis with ``lower == upper``
        holds none if half the step is below that bound's resolution.
        """
        if not 0 < step < math.inf:
            raise ValueError(f"grid step must be positive and finite, got {step}")
        with np.errstate(over="ignore"):  # a tiny step counts to inf
            counts = np.ceil((self.upper + 0.5 * step - self.lower) / step)
            if not counts.all():
                axis = int(np.argmin(counts))
                raise ValueError(
                    f"grid step {step:g} is below the resolution of the box's bound "
                    f"{self.lower[axis]:g} on axis {axis}, which gets no grid point"
                )
            size = float(np.prod(counts))
        if size > MAX_GRID_POINTS:
            shown = f"{size:.4g}" if math.isfinite(size) else "more than 1e308"
            raise ValueError(
                f"grid step {step:g} gives a lattice of {shown} points over the box, "
                f"above the {MAX_GRID_POINTS:,} a grid may hold"
            )
        return int(size)

    def grid(self, step: float) -> np.ndarray:
        """Feasible grid points in lexicographic order, shape (m, k).

        Each axis is sampled from lower to upper in increments of ``step``
        (the upper face is always included); points with ``sum(p) > 1`` are
        skipped.  Raises if the lattice cannot be built (see lattice_size).
        The lower corner is always a grid point.
        """
        self.lattice_size(step)
        axes = []
        for lo, hi in zip(self.lower, self.upper):
            vals = np.arange(lo, hi + 0.5 * step, step)
            if vals[-1] < hi - 1e-12:
                vals = np.append(vals, hi)
            vals[-1] = min(vals[-1], hi)
            axes.append(vals)
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        return pts[pts.sum(axis=1) <= 1.0 + 1e-12]


# Models whose pattern tables, and test counts whose layouts, the caches keep.
# The table cache is keyed by model identity, so a bound keeps models parsed
# and dropped by a long-running caller from staying alive; a request uses few.
PATTERN_TABLE_CACHE_SIZE = 16


@lru_cache(maxsize=PATTERN_TABLE_CACHE_SIZE)
def _layout(n: int):
    """(codes, masks, index, spans, starts) of every pattern table of n tests.

    The row order of every table: the patterns in all_patterns order and,
    per pattern, the outcomes of its conducted tests in lexicographic
    order, first test most significant.  ``codes[j, r]`` marks test j in
    row r as not conducted (0), outcome 0 (1) or outcome 1 (2), and sorting
    the 3^n - 1 rows by (mask, outcome bits) puts them in that order."""
    weights = 1 << np.arange(n - 1, -1, -1)  # first test most significant
    codes = (np.arange(3**n)[:, None] // 3 ** np.arange(n - 1, -1, -1)) % 3
    codes = codes[np.lexsort(((codes == 2) @ weights, (codes > 0) @ weights))[1:]]  # drop "no test"
    masks = (np.arange(1, 2**n)[:, None] & weights) > 0  # all_patterns order
    offsets = [0, *itertools.accumulate((2 ** masks.sum(axis=1)).tolist())]
    codes, starts = codes.T.astype(np.int8), np.array(offsets[:-1])
    for array in (codes, masks, starts):
        array.setflags(write=False)
    index = {mask: i for i, mask in enumerate(map(tuple, masks.astype(np.int64).tolist()))}
    return codes, masks, index, tuple(map(slice, offsets[:-1], offsets[1:])), starts


@dataclass(frozen=True, eq=False)
class _PatternTable:
    """Every outcome of every pattern of one model, one row per outcome.

    ``patterns`` (which carry their costs, also in ``costs``) follow
    all_patterns order, and ``index`` maps a mask to its position there.
    The rows of pattern ``i`` are ``spans[i]``, in _layout's outcome order;
    ``starts`` holds the first row of every pattern (all three _layout's).
    ``q[r, s] = P(y_r | state s)``, ``d = q[:, :k]`` minus the
    reference column ``q[:, k]``, and row r of ``outer`` is ``d_r d_r'``
    flattened to ``k * k`` entries.  The mixture probability of row r at
    p is ``q[r, k] + d[r] @ p``, and ``gram[i]`` sums pattern i's ``outer`` rows.
    """

    patterns: tuple[TestPattern, ...]
    costs: np.ndarray
    index: dict
    spans: tuple[slice, ...]
    starts: np.ndarray
    q: np.ndarray
    d: np.ndarray
    outer: np.ndarray
    gram: np.ndarray

    def positions(self, patterns: Sequence[TestPattern]) -> list[int]:
        try:
            return [self.index[t.mask] for t in patterns]
        except KeyError as err:
            raise ValueError(
                f"pattern mask {err.args[0]} does not select from this model's "
                f"{len(self.patterns[0].mask)} tests"
            ) from None

    def stacked(self, patterns: Sequence[TestPattern]) -> tuple[np.ndarray, list[int]]:
        """The ``q`` rows of ``patterns``, stacked in order, and the row after each one's last."""
        spans = [self.spans[i] for i in self.positions(patterns)]
        ends = list(itertools.accumulate(rows.stop - rows.start for rows in spans))
        return np.vstack([self.q[rows] for rows in spans]), ends

    def identifies(self, support) -> bool:
        """Whether the patterns marked in ``support`` identify p: their stacked ``d``
        rows, so their summed ``gram``, have rank k (matrix_rank's tolerance), which
        decides at every p if blends of their informations ``D' diag(1/P) D`` are singular."""
        lam = np.linalg.eigvalsh(self.gram[support].sum(axis=0))
        return bool(lam[0] > lam[-1] * lam.size * np.finfo(float).eps)

    @cached_property
    def identified(self) -> bool:
        """Whether all patterns together identify p, decided once per model."""
        return self.identifies(slice(None))


@lru_cache(maxsize=PATTERN_TABLE_CACHE_SIZE)
def _pattern_tables(model: DiseaseModel) -> _PatternTable:
    """The stacked pattern table of a model, on the layout of its test count.

    ``q[r, s]`` is P(y_r | state s): the product, in test order, of test
    j's factor ``channel[code, state, j]``, its sensitivity or specificity
    where the outcome matches the state's nominal response and one minus it
    where not, and exactly 1.0 for a test not conducted."""
    k = model.k
    codes, masks, index, spans, starts = _layout(model.n_tests)
    sens = np.array([t.sensitivity for t in model.tests])
    spec = np.array([t.specificity for t in model.tests])
    positive = np.where(model.nominal == 1, sens, 1.0 - spec)  # (k+1, n)
    negative = np.where(model.nominal == 1, 1.0 - sens, spec)
    channel = np.stack([np.ones_like(positive), negative, positive])
    q = channel[codes[0], :, 0]
    for j in range(1, model.n_tests):
        q *= channel[codes[j], :, j]
    d = q[:, :k] - q[:, k:]

    costs = np.zeros(masks.shape[0])
    for j, test in enumerate(model.tests):  # summed in test order, as make_pattern does
        costs += np.where(masks[:, j], test.cost, 0.0)
    outer = (d[:, :, None] * d[:, None, :]).reshape(-1, k * k)
    table = _PatternTable(
        patterns=tuple(map(TestPattern, index, costs.tolist())),
        costs=costs,
        index=index,
        spans=spans,
        starts=starts,
        q=q,
        d=d,
        outer=outer,
        gram=np.add.reduceat(outer, starts, axis=0).reshape(-1, k, k),
    )
    for name in ("costs", "q", "d", "outer", "gram"):
        getattr(table, name).setflags(write=False)
    return table


def _rows_info(table: _PatternTable, rows: slice, p: np.ndarray, out=None) -> np.ndarray:
    """Information of the pattern on table ``rows`` on an (m, k) grid, (m, k, k): reciprocal
    mixture probabilities times ``outer`` rows, into flat (m, k^2) ``out`` if given."""
    mix = table.q[rows, -1] + p @ table.d[rows].T
    info = np.matmul(np.reciprocal(mix, out=mix), table.outer[rows], out=out)
    return info.reshape(p.shape + p.shape[-1:])


def _fisher_info_grid(p, model: DiseaseModel):
    """Fisher information of every pattern, in all_patterns order, at one
    point or on a grid.

    ``p`` is one parameter (k,), giving (T, k, k), or an (m, k) grid,
    giving (T, m, k, k).  Entry (i, j) of pattern t sums ``d_i d_j / P(y)``
    over its outcomes.  At a point every pattern's rows are summed at once;
    on a grid each pattern is one _rows_info product, so no (m, rows, k^2)
    array is formed.  Points are not validated here.  The point branch stays
    because each arithmetic is the faster on its own input (timeit, 2 CPUs):
    at a point one reduceat takes 6-28 us at 3-6 tests against 33-357 us for
    a product per pattern; on row4's 156,981-point grid the products take
    41-63 ms against 291 ms for a blocked reduceat.  Both agree to a few ulps.
    """
    table = _pattern_tables(model)
    p = np.asarray(p, dtype=np.float64)
    k = model.k
    if p.ndim == 1:
        weighted = table.outer / (table.q[:, k] + table.d @ p)[:, None]
        return np.add.reduceat(weighted, table.starts, axis=0).reshape(-1, k, k)
    infos = np.empty((len(table.spans), p.shape[0], k * k))
    for out, rows in zip(infos, table.spans):
        _rows_info(table, rows, p, out=out)
    return infos.reshape(len(table.spans), p.shape[0], k, k)


def fisher_info(t: TestPattern, p, model: DiseaseModel) -> np.ndarray:
    """Fisher information matrix of pattern t at parameter p.

    Entry (i, j) sums, over the pattern's outcomes, the product of the
    i-th and j-th deviations of the state-conditional outcome
    probabilities from the reference state, divided by the mixture
    probability of the outcome.  Symmetric positive semidefinite; strictly
    positive mixture probabilities are guaranteed by the strict
    sensitivity/specificity bounds.
    """
    (position,) = _pattern_tables(model).positions((t,))
    return _fisher_info_grid(validate_parameter(p, model.k), model)[position]


class A1Result(NamedTuple):
    ok: bool
    pattern: TestPattern | None


class A2Result(NamedTuple):
    ok: bool
    lambda_min: float
    argmin: np.ndarray
    pattern: TestPattern


def _all_tests_pd(infos: np.ndarray) -> bool:
    """A1 at a point, or A2 over a grid: is the all-tests information,
    (k, k) or (m, k, k), positive definite everywhere?"""
    return bool(np.linalg.eigvalsh(infos)[..., 0].min() > PD_TOLERANCE)


def _box_grid(box: ParameterBox, model: DiseaseModel, grid_step: float) -> np.ndarray:
    if box.k != model.k:
        raise ValueError(f"box dimension {box.k} != model parameter dimension {model.k}")
    return box.grid(grid_step)


def check_a1(p, model: DiseaseModel) -> A1Result:
    """Does some pattern carry positive-definite information at p?

    Positive definite means a smallest eigenvalue above PD_TOLERANCE.
    Returns the first such pattern in all_patterns order, or (False, None).
    """
    infos = _fisher_info_grid(validate_parameter(p, model.k), model)
    hits = np.flatnonzero(np.linalg.eigvalsh(infos)[:, 0] > PD_TOLERANCE)
    return A1Result(True, all_patterns(model)[hits[0]]) if hits.size else A1Result(False, None)


def check_a2(box: ParameterBox, model: DiseaseModel, grid_step: float = 0.01) -> A2Result:
    """Is some pattern's information uniformly positive definite over the box?

    ``I_all(p) - I_t(p)`` is positive semidefinite for every pattern t (see
    the module docstring), so the all-tests pattern decides and is the
    witness.  One ``eigvalsh`` on its feasible-grid informations gives the
    least eigenvalue and the first grid point attaining it; A2 holds when
    it is above PD_TOLERANCE.
    """
    pts = _box_grid(box, model, grid_step)
    table = _pattern_tables(model)
    lam = np.linalg.eigvalsh(_rows_info(table, table.spans[-1], pts))[:, 0]
    at = int(lam.argmin())
    return A2Result(
        bool(lam[at] > PD_TOLERANCE), float(lam[at]), _read_only(pts[at]), table.patterns[-1]
    )
