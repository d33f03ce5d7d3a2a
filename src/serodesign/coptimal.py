"""Budget-optimal designs minimizing the variance of a linear estimate.

Scaling a design by the budget reduces the problem to minimizing

    a(v) = u' (sum_t v_t I_t(p) / c_t)^{-1} u

over budget fractions v on the probability simplex over test patterns;
the achievable variance at budget C is then ``a(v*) / C`` and the
participant counts are ``w_t = v_t C / c_t``.  The minimizer is found by
pairwise Frank-Wolfe with exact line search, followed by a
projected-Newton polish on the active support, and is certified through
the first-order optimality conditions of the simplex-constrained program.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .model import (
    DiseaseModel,
    TestPattern,
    all_patterns,
    check_a1,
    fisher_info,
    validate_parameter,
)

__all__ = [
    "Design",
    "SolveReport",
    "InfeasibleDesignError",
    "ConvergenceError",
    "objective",
    "objective_gradient",
    "solve_c_optimal",
    "design_from_fractions",
    "budget_for_margin",
    "kkt_check",
    "normal_quantile",
]

# Relative Frank-Wolfe duality-gap target and iteration cap.
FW_GAP_TOL = 1e-9
FW_MAX_ITER = 100_000
# Fractions at or below this are treated as off-support.
SUPPORT_EPS = 1e-7
# Relative first-order residual accepted as optimal.
KKT_TOL = 1e-6
# A blended information matrix counts as singular below this spectral ratio.
SINGULAR_RATIO = 1e-12
# Relaxed counts this close to an integer round to it instead of down.
INTEGER_SNAP = 1e-9


class InfeasibleDesignError(Exception):
    """No finite-variance design exists for the requested problem."""


class ConvergenceError(Exception):
    """The solver could not certify an optimum; carries the best iterate found.

    ``best`` is the uncertified SolveReport when one exists, else None.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True, eq=False)
class Design:
    """Budget fractions over test patterns and the implied participant counts."""

    patterns: tuple[TestPattern, ...]
    fractions: np.ndarray
    budget: float

    def __post_init__(self):
        fractions = np.asarray(self.fractions, dtype=np.float64)
        if fractions.shape != (len(self.patterns),):
            raise ValueError("need one fraction per pattern")
        if (fractions < -1e-12).any():
            raise ValueError(f"fractions must be nonnegative, got {fractions}")
        if abs(fractions.sum() - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {fractions.sum()!r}")
        if not self.budget > 0:
            raise ValueError(f"budget must be positive, got {self.budget}")
        fractions = np.maximum(fractions, 0.0)
        fractions.setflags(write=False)
        object.__setattr__(self, "patterns", tuple(self.patterns))
        object.__setattr__(self, "fractions", fractions)

    @property
    def costs(self) -> np.ndarray:
        return np.array([t.cost for t in self.patterns])

    @property
    def counts(self) -> np.ndarray:
        """Relaxed participant counts w_t = v_t * C / c_t."""
        return self.fractions * self.budget / self.costs

    @cached_property
    def integer_counts(self) -> np.ndarray:
        """Budget-feasible participant counts, each within one of ``counts``.

        Every count is floored, except that a count within INTEGER_SNAP of
        an integer is that integer, so a split whose arithmetic lands a hair
        off a whole count keeps it.  Patterns then gain one participant
        each, largest remainder first, wherever the spend stays within the
        budget.  Computed once per design and read-only.
        """
        w = self.counts
        nearest = np.rint(w)
        snapped = np.abs(w - nearest) <= INTEGER_SNAP
        ints = np.where(snapped, nearest, np.floor(w))
        remainder = np.where(snapped, 0.0, w - ints)
        costs = self.costs
        spend = float(ints @ costs)
        for t in np.argsort(-remainder, kind="stable"):
            if remainder[t] <= 0.0:
                break
            if spend + costs[t] <= self.budget:
                ints[t] += 1.0
                spend += costs[t]
        ints = ints.astype(np.int64)
        ints.setflags(write=False)
        return ints

    @property
    def realized_cost(self) -> float:
        """Total spend of the integer design."""
        return float(self.integer_counts @ self.costs)

    def fraction(self, mask) -> float:
        return float(self.fractions[self._index(mask)])

    def count(self, mask) -> float:
        return float(self.counts[self._index(mask)])

    def integer_count(self, mask) -> int:
        return int(self.integer_counts[self._index(mask)])

    def _index(self, mask) -> int:
        mask = tuple(int(m) for m in mask)
        for i, t in enumerate(self.patterns):
            if t.mask == mask:
                return i
        raise KeyError(f"pattern {mask} not in design")

    def to_dict(self) -> dict:
        counts = self.counts
        ints = self.integer_counts
        return {
            "budget": self.budget,
            "fractions": {t.label: float(v) for t, v in zip(self.patterns, self.fractions)},
            "counts": {t.label: float(w) for t, w in zip(self.patterns, counts)},
            "integer_counts": {t.label: int(w) for t, w in zip(self.patterns, ints)},
            "pattern_costs": {t.label: float(t.cost) for t in self.patterns},
            "realized_cost": self.realized_cost,
        }


@dataclass(frozen=True, eq=False)
class SolveReport:
    """A solved design with its criterion value and optimality certificate."""

    design: Design
    objective: float
    min_variance: float
    kkt_residual: float
    iterations: int
    mu_star: float

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "min_variance": self.min_variance,
            "mu_star": self.mu_star,
            "kkt_residual": self.kkt_residual,
            "iterations": self.iterations,
            "design": self.design.to_dict(),
        }


# ---------------------------------------------------------------------------
# Objective and gradient
# ---------------------------------------------------------------------------


def _pattern_infos(p, model: DiseaseModel, patterns: Sequence[TestPattern]) -> np.ndarray:
    """Stacked cost-relativized information matrices I_t(p) / c_t, (T, k, k)."""
    return np.stack([fisher_info(t, p, model) / t.cost for t in patterns])


def _blend(v: np.ndarray, infos: np.ndarray) -> np.ndarray:
    """sum_t v_t infos[t]; infos is (T, k, k) or (T, m, k, k)."""
    return np.einsum("t,t...->...", v, infos)


def _inv_chol(a: np.ndarray):
    """Inverse Cholesky factor L^{-1} of a = L L' (also stacked); None if not SPD.

    Then ``a^{-1} u = L^{-T} (L^{-1} u)`` and ``u' a^{-1} u = |L^{-1} u|^2``.
    """
    try:
        return np.linalg.inv(np.linalg.cholesky(a))
    except np.linalg.LinAlgError:
        return None


def _criterion(v: np.ndarray, infos: np.ndarray, u: np.ndarray):
    """(a, x): the criterion a = u' A^{-1} u and x = A^{-1} u of A = sum_t v_t infos[t].

    ``infos`` is (T, k, k), or (T, m, k, k) to evaluate m parameter points
    at once, in which case a has shape (m,) and x shape (m, k).  Where A
    is numerically singular (smallest eigenvalue at most SINGULAR_RATIO
    times the largest) a is +inf and x is nan.
    """
    a = _blend(v, infos)
    lam = np.linalg.eigvalsh(a)
    good = (lam[..., -1] > 0.0) & (lam[..., 0] > SINGULAR_RATIO * lam[..., -1])
    values = np.full(good.shape, math.inf)
    x = np.full(a.shape[:-1], math.nan)
    linv = _inv_chol(a[good]) if good.any() else None
    if linv is not None:
        x[good] = np.einsum("nji,nj->ni", linv, linv @ u)
        values[good] = x[good] @ u
    return values[()], x


def _evaluate(v, p, model: DiseaseModel, patterns: Sequence[TestPattern] | None):
    """Validated fractions, pattern informations and _criterion at p."""
    patterns = list(patterns) if patterns is not None else all_patterns(model)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (len(patterns),):
        raise ValueError(f"need one fraction per pattern, got shape {v.shape}")
    if (v < -1e-12).any():
        raise ValueError(f"fractions must be nonnegative, got {v}")
    v = np.maximum(v, 0.0)
    infos = _pattern_infos(validate_parameter(p, model.k), model, patterns)
    return (v, infos) + _criterion(v, infos, model.u)


def objective(v, p, model: DiseaseModel, patterns: Sequence[TestPattern] | None = None) -> float:
    """Variance criterion a(v; p) = u' (sum_t v_t I_t(p)/c_t)^{-1} u.

    Computed through the Cholesky factor of the blended information
    matrix, never an explicit inverse of it.  Returns +inf when that
    matrix is numerically singular (smallest eigenvalue at most
    SINGULAR_RATIO = 1e-12 times the largest), which happens when v is
    supported on patterns that cannot jointly identify the parameter.
    """
    return float(_evaluate(v, p, model, patterns)[2])


def objective_gradient(
    v, p, model: DiseaseModel, patterns: Sequence[TestPattern] | None = None
) -> np.ndarray:
    """Gradient of the variance criterion in v; every component is <= 0.

    Component t equals ``-u' A^{-1} (I_t/c_t) A^{-1} u`` with A the blended
    information matrix.  Raises when A is singular.
    """
    _, infos, mu, x = _evaluate(v, p, model, patterns)
    if mu == math.inf:
        raise ValueError("blended information matrix is singular; gradient undefined")
    return -np.einsum("tij,i,j->t", infos, x, x)


# ---------------------------------------------------------------------------
# Frank-Wolfe solver
# ---------------------------------------------------------------------------


def _segment_minimize(
    linv: np.ndarray, y: np.ndarray, d: np.ndarray, gamma_max: float
) -> float:
    """Minimize gamma -> u' (a + gamma d)^{-1} u over [0, gamma_max], a SPD.

    Takes a's inverse Cholesky factor ``linv`` and ``y = linv @ u``.
    Diagonalizing d in the metric of a turns the objective into the
    rational function sum_i c_i / (1 + gamma * lam_i), whose convex
    minimizer is located by bisection on the derivative.
    """
    w = linv @ d @ linv.T
    w = (w + w.T) / 2.0
    lam, q = np.linalg.eigh(w)
    coef = (q.T @ y) ** 2

    hi = gamma_max
    neg = lam < 0
    if neg.any():
        barrier = float((-1.0 / lam[neg]).min())
        hi = min(hi, (1.0 - 1e-12) * barrier)
    if hi <= 0.0:
        return 0.0

    lam_l = lam.tolist()
    coef_l = coef.tolist()

    def slope(g: float) -> float:
        total = 0.0
        for c, l in zip(coef_l, lam_l):
            r = 1.0 + g * l
            total -= c * l / (r * r)
        return total

    if slope(0.0) >= 0.0:
        return 0.0
    if slope(hi) <= 0.0:
        return gamma_max if hi >= gamma_max * (1.0 - 1e-12) else hi
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    gamma = 0.5 * (lo + hi)
    if gamma >= gamma_max * (1.0 - 1e-12):
        return gamma_max
    return gamma


def _kkt_residual_from(g: np.ndarray, mu: float, v: np.ndarray, support_eps: float) -> float:
    """First-order residual: on-support |g_t - mu|, off-support max(0, g_t - mu).

    g_t is the (nonnegative) sensitivity ``u' A^{-1} (I_t/c_t) A^{-1} u``;
    at an optimum every supported pattern attains the common value mu and
    no pattern exceeds it.
    """
    on = v > support_eps
    resid = 0.0
    if on.any():
        resid = float(np.abs(g[on] - mu).max())
    if (~on).any():
        resid = max(resid, float(np.maximum(g[~on] - mu, 0.0).max()))
    return resid


def _polish_support(
    v: np.ndarray, infos: np.ndarray, u: np.ndarray, support_eps: float, max_iter: int = 50
) -> np.ndarray:
    """Newton refinement of the support weights on the simplex face.

    Solves the equality-constrained Newton system on the active support,
    backtracking to stay feasible; support patterns driven to zero are
    dropped.  The Hessian is 2 W' A^{-1} W = 2 (L^{-1} W)' (L^{-1} W) with
    W_t = (I_t/c_t) A^{-1} u, so the system stays tiny (support size by
    support size).
    """
    v = v.copy()
    v[v <= support_eps] = 0.0
    v /= v.sum()
    for _ in range(max_iter):
        support = np.flatnonzero(v > 0.0)
        if support.size <= 1:
            break
        linv = _inv_chol(_blend(v, infos))
        if linv is None:
            break
        x = linv.T @ (linv @ u)
        mu = float(u @ x)
        g_s = np.einsum("tij,i,j->t", infos[support], x, x)
        if np.abs(g_s - mu).max() <= 1e-13 * mu:
            break
        z = linv @ np.einsum("tij,j->it", infos[support], x)  # L^{-1} W, (k, |S|)
        hess = 2.0 * z.T @ z
        n = support.size
        kkt = np.zeros((n + 1, n + 1))
        kkt[:n, :n] = hess
        kkt[:n, n] = 1.0
        kkt[n, :n] = 1.0
        rhs = np.zeros(n + 1)
        rhs[:n] = g_s  # -gradient
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        step = sol[:n]
        if not np.isfinite(step).all() or np.abs(step).max() <= 1e-16:
            break
        # largest feasible step, then Armijo backtracking on the objective
        shrink = step < 0
        t_max = 1.0
        if shrink.any():
            t_max = min(1.0, float((v[support][shrink] / -step[shrink]).min()))
        f0 = mu
        slope0 = float(-g_s @ step)  # directional derivative of the objective
        t = t_max
        accepted = False
        for _ in range(60):
            trial = v.copy()
            trial[support] = np.maximum(v[support] + t * step, 0.0)
            total = trial.sum()
            if total <= 0:
                t *= 0.5
                continue
            trial /= total
            f_trial = _criterion(trial, infos, u)[0]
            if f_trial <= f0 + 1e-4 * t * slope0 or f_trial < f0:
                v = trial
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
    v[v <= support_eps] = 0.0
    v /= v.sum()
    return v


def _solve_simplex(
    infos: np.ndarray,
    u: np.ndarray,
    tol: float = FW_GAP_TOL,
    max_iter: int = FW_MAX_ITER,
    support_eps: float = SUPPORT_EPS,
):
    """Pairwise Frank-Wolfe plus Newton polish; returns (v, objective, residual, iters).

    Starts at the uniform distribution, which keeps the blended matrix
    positive definite whenever some pattern's information is; pairwise
    steps move mass from the worst supported pattern to the best vertex,
    so iterates never leave the simplex and drop steps zero coordinates
    exactly.
    """
    n = infos.shape[0]
    v = np.full(n, 1.0 / n)
    v_before = v.copy()
    direction_vec = np.zeros(n)
    last_move = 0.0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        linv = _inv_chol(_blend(v, infos))
        if linv is None:
            # a full drop step can land on a numerically singular blend when
            # the departing pattern carried the only information in some
            # direction u does not need; retreat halfway until solvable
            retreat = last_move
            for _ in range(60):
                retreat = 0.5 * retreat
                v = v_before + retreat * direction_vec
                linv = _inv_chol(_blend(v, infos))
                if linv is not None:
                    break
            else:
                raise InfeasibleDesignError("blended information matrix became singular")
        y = linv @ u
        x = linv.T @ y
        mu = float(u @ x)
        g = np.einsum("tij,i,j->t", infos, x, x)
        gap = float(g.max() - mu)
        if gap <= tol * mu:
            break
        toward = int(np.argmax(g))
        support = np.flatnonzero(v > 0.0)
        away = int(support[np.argmin(g[support])])
        if toward == away:
            break
        gamma_max = float(v[away])
        gamma = _segment_minimize(linv, y, infos[toward] - infos[away], gamma_max)
        if gamma <= 0.0:
            break
        v_before = v.copy()
        direction_vec = np.zeros(n)
        direction_vec[toward] = 1.0
        direction_vec[away] = -1.0
        last_move = gamma
        v[toward] += gamma
        v[away] -= gamma
        if v[away] < 1e-15:
            v[away] = 0.0

    v = _polish_support(v, infos, u, support_eps)
    linv = _inv_chol(_blend(v, infos))
    if linv is None:
        raise ConvergenceError(
            f"the information matrix of the design found after {iterations} "
            "iterations is singular"
        )
    x = linv.T @ (linv @ u)
    mu = float(u @ x)
    g = np.einsum("tij,i,j->t", infos, x, x)
    residual = _kkt_residual_from(g, mu, v, support_eps)
    return v, mu, residual, iterations


def solve_c_optimal(
    p,
    model: DiseaseModel,
    patterns: Sequence[TestPattern] | None = None,
    tol: float = FW_GAP_TOL,
    budget: float = 1.0,
    max_iter: int = FW_MAX_ITER,
) -> SolveReport:
    """Minimize the estimate's variance over budget fractions on patterns.

    The optimal fractions do not depend on the budget; the budget only
    scales the reported design counts and the achieved variance
    ``objective / budget``.  Raises InfeasibleDesignError when no pattern
    has positive-definite information at p, and ConvergenceError whenever
    the returned design would not be certified: its first-order residual
    exceeds ``KKT_TOL`` relative (the error carries that design as
    ``best``), or its information matrix is singular.
    """
    patterns = list(patterns) if patterns is not None else all_patterns(model)
    p = validate_parameter(p, model.k)
    a1 = check_a1(p, patterns, model)
    if not a1.ok:
        raise InfeasibleDesignError(
            "no test pattern has positive-definite information at p; "
            "every design has unbounded variance"
        )
    infos = _pattern_infos(p, model, patterns)
    v, mu, residual, iterations = _solve_simplex(
        infos, model.u, tol=tol, max_iter=max_iter, support_eps=SUPPORT_EPS
    )
    design = Design(patterns=tuple(patterns), fractions=v, budget=budget)
    report = SolveReport(
        design=design,
        objective=mu,
        min_variance=mu / budget,
        kkt_residual=residual,
        iterations=iterations,
        mu_star=mu,
    )
    if residual > KKT_TOL * mu:
        raise ConvergenceError(
            f"solver stopped after {iterations} of at most {max_iter} iterations at a "
            f"first-order residual of {residual / mu:.3e} relative, above {KKT_TOL:g}",
            best=report,
        )
    return report


def design_from_fractions(
    v, budget: float, patterns: Sequence[TestPattern]
) -> Design:
    """Design at a given budget: counts w_t = v_t * budget / c_t."""
    if not budget > 0:
        raise ValueError(f"budget must be positive, got {budget}")
    return Design(patterns=tuple(patterns), fractions=np.asarray(v, dtype=np.float64), budget=budget)


def kkt_check(
    v,
    p,
    model: DiseaseModel,
    patterns: Sequence[TestPattern] | None = None,
    support_eps: float = SUPPORT_EPS,
) -> float:
    """First-order optimality residual of fractions v at parameter p.

    Supported patterns must attain the common value mu = a(v; p) and
    unsupported patterns must not exceed it; the residual is the largest
    violation of either condition (compare it to ``KKT_TOL * mu``).
    """
    v, infos, mu, x = _evaluate(v, p, model, patterns)
    if mu == math.inf:
        raise ValueError("blended information matrix is singular; KKT residual undefined")
    g = np.einsum("tij,i,j->t", infos, x, x)
    return _kkt_residual_from(g, float(mu), v, support_eps)


# ---------------------------------------------------------------------------
# Margin-of-error budget inversion
# ---------------------------------------------------------------------------


def normal_quantile(q: float) -> float:
    """Inverse standard-normal CDF, ``statistics.NormalDist().inv_cdf``.

    For reference, ``normal_quantile(0.025) == -1.9599639845400545``.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile argument must lie strictly in (0, 1), got {q}")
    return statistics.NormalDist().inv_cdf(q)


def budget_for_margin(
    p,
    model: DiseaseModel,
    moe: float,
    alpha: float = 0.05,
    patterns: Sequence[TestPattern] | None = None,
) -> float:
    """Smallest budget whose optimal design meets a margin-of-error target.

    Inverts ``z * sqrt(a(v*; p) / C) = moe`` with z the two-sided normal
    critical value at level alpha, so the returned budget satisfies the
    margin with equality.
    """
    if not moe > 0:
        raise ValueError(f"margin of error must be positive, got {moe}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    report = solve_c_optimal(p, model, patterns=patterns)
    z = abs(normal_quantile(alpha / 2.0))
    return z * z * report.objective / (moe * moe)
