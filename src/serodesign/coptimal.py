"""Budget-optimal designs minimizing the variance of a linear estimate.

Scaling a design by the budget reduces the problem to minimizing

    a(v) = u' (sum_t v_t I_t(p) / c_t)^{-1} u

over budget fractions v on the probability simplex over test patterns;
the achievable variance at budget C is then ``a(v*) / C`` and the
participant counts are ``w_t = v_t C / c_t``.  The minimizer comes from
Elfving's theorem (Elfving 1952; multiresponse form in Sagnol 2011, JSPI
141): with ``B_t = I_t(p) / c_t``,

    sqrt(min_v a(v)) = max { u'y : y' B_t y <= 1 for all t },

a convex program in k unknowns whose normalized constraint multipliers
are the optimal fractions.  A log-barrier Newton path on that dual ends
in an exact active-set finish: in closed form when one or two patterns
are active and identify p, as in most solves, and by Newton steps
otherwise.  A returned design carries the dual certificate: nonnegative
multipliers, a feasible dual point and a vanishing finish residual.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .model import (
    DiseaseModel,
    TestPattern,
    _all_tests_pd,
    _fisher_info_grid,
    _pattern_tables,
    _require_finite,
    _require_real,
    _require_type,
    all_patterns,
    check_a1,
    fisher_info,
    validate_parameter,
)

# ``check_a1`` and ``fisher_info`` are not called here: solve_c_optimal
# gates A1 on the all-tests pattern's information.  They stay names of
# this module because perfbench's tracer wraps them here, and
# tests/test_package.py checks that every wrapped name resolves.

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

# Barrier Newton steps allowed per solve; each finish has its own FINISH_STEPS.
MAX_NEWTON_STEPS = 200
# Growth of the barrier weight tau from one centred point to the next.  A
# barrier's total Newton steps stay flat over a wide range of growth factors
# (Boyd & Vandenberghe 2004, sec. 11.3.3); fewer, longer centrings reach the
# finish sooner.
TAU_GROWTH = 100.0
# Duality gap, relative to u'y, at which the first active-set finish runs: the
# first centred point whose gap n/tau is at most u'y.  A failed finish divides
# it by a hundred, as TAU_GROWTH divides the gap, so a finish follows each
# later centring.
FINISH_GAP = 1.0
# Newton steps allowed per finish: least-squares steps in (y, lam), or steps
# in the blend ratio of a closed-form finish on two patterns.
FINISH_STEPS = 8
# Certificate tolerance on dual infeasibility and on the finish residual.
CERTIFICATE_TOL = 1e-10
# Halvings allowed to keep a barrier step strictly feasible.
MAX_BACKTRACKS = 60
# Fractions at or below this are treated as off-support.
SUPPORT_EPS = 1e-7
# Relative first-order residual kkt_check accepts as optimal; a returned
# design's is within CERTIFICATE_TOL.
KKT_TOL = 1e-6
# A relaxed count at most this far above an integer floors with no remainder.
INTEGER_SNAP = 1e-9
# Relaxed counts from here on are not all representable as doubles, so
# rounding them to integers is no longer exact.
MAX_EXACT_COUNT = 2.0**53


class InfeasibleDesignError(Exception):
    """No finite-variance design exists for the requested problem."""


class ConvergenceError(Exception):
    """The solver could not certify an optimum; carries the best iterate found.

    ``best`` is the uncertified SolveReport when one exists, else None.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


def _fractions(v, n: int) -> np.ndarray:
    """v as n finite, nonnegative budget fractions; tiny negatives from
    roundoff are clipped to 0."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n,):
        raise ValueError(f"need one fraction per pattern, got shape {v.shape}")
    _require_finite(v, "fraction")
    if (v < -1e-12).any():
        raise ValueError(f"fractions must be nonnegative, got {v}")
    return np.maximum(v, 0.0)


def _require_budget(budget: float) -> None:
    if not 0 < _require_real(budget, "budget") < math.inf:
        raise ValueError(f"budget must be positive and finite, got {budget}")


@dataclass(frozen=True, eq=False)
class Design:
    """Budget fractions over test patterns and the implied participant counts."""

    patterns: tuple[TestPattern, ...]
    fractions: np.ndarray
    budget: float

    def __post_init__(self):
        fractions = _fractions(self.fractions, len(self.patterns))
        if abs(fractions.sum() - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {float(fractions.sum())!r}")
        _require_budget(self.budget)
        fractions.setflags(write=False)
        object.__setattr__(self, "patterns", tuple(self.patterns))
        object.__setattr__(self, "fractions", fractions)
        counts = self.counts
        if counts.max() >= MAX_EXACT_COUNT:
            t = int(np.argmax(counts))
            raise ValueError(
                f"budget {self.budget:g} buys {counts[t]:.6g} participants of pattern "
                f"{self.patterns[t].label}, at or above 2**53, where integer counts "
                "are no longer exact"
            )

    @cached_property
    def costs(self) -> np.ndarray:
        costs = np.array([t.cost for t in self.patterns], dtype=np.float64)
        costs.setflags(write=False)
        return costs

    @property
    def counts(self) -> np.ndarray:
        """Relaxed participant counts w_t = v_t * C / c_t."""
        return self.fractions * self.budget / self.costs

    @cached_property
    def integer_counts(self) -> np.ndarray:
        """Budget-feasible participant counts, each within one of ``counts``.

        Every count is floored; one at most INTEGER_SNAP above a whole
        number has no remainder.  Patterns then gain one participant each,
        largest remainder first, wherever the spend stays within the budget,
        so a count a hair below a whole number gets it only if the budget
        pays for it.  Computed once per design and read-only.
        """
        w = self.counts
        ints = np.floor(w)
        remainder = w - ints
        remainder[remainder <= INTEGER_SNAP] = 0.0
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

    def integer_count(self, mask) -> int:
        return int(self.integer_counts[self._index(mask)])

    def _index(self, mask) -> int:
        mask = tuple(int(m) for m in mask)
        for i, t in enumerate(self.patterns):
            if t.mask == mask:
                return i
        raise KeyError(f"pattern {mask} not in design")

    def to_dict(self) -> dict:
        labels = [t.label for t in self.patterns]
        return {
            "budget": self.budget,
            "fractions": dict(zip(labels, self.fractions.tolist())),
            "counts": dict(zip(labels, self.counts.tolist())),
            "integer_counts": dict(zip(labels, map(int, self.integer_counts))),
            "pattern_costs": dict(zip(labels, self.costs.tolist())),
            "realized_cost": self.realized_cost,
        }


@dataclass(frozen=True, eq=False)
class SolveReport:
    """A solved design with its criterion value and optimality certificate."""

    design: Design
    objective: float
    kkt_residual: float
    iterations: int

    def __post_init__(self):
        if not math.isfinite(self.min_variance):  # Infinity is not JSON
            raise ValueError(f"budget {self.design.budget:g} makes the variance infinite")

    @property
    def min_variance(self) -> float:
        """The achieved variance at the design's budget, ``objective / budget``."""
        return self.objective / self.design.budget

    def priced(self, budget: float) -> SolveReport:
        """This report with its design priced at ``budget``; the fractions and
        the criterion value do not depend on the budget."""
        return replace(self, design=replace(self.design, budget=budget))

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "min_variance": self.min_variance,
            "mu_star": self.objective,
            "kkt_residual": self.kkt_residual,
            "iterations": self.iterations,
            "design": self.design.to_dict(),
        }


# ---------------------------------------------------------------------------
# Objective and gradient
# ---------------------------------------------------------------------------


def _per_cost(infos: np.ndarray, model: DiseaseModel) -> np.ndarray:
    """Divide a (T, ..., k, k) information stack of the model's patterns by
    their costs, in place."""
    costs = _pattern_tables(model).costs
    infos /= costs.reshape(costs.shape + (1,) * (infos.ndim - 1))
    return infos


def _pattern_infos(p, model: DiseaseModel) -> np.ndarray:
    """Cost-relativized informations I_t(p) / c_t of every pattern at a point
    p (k,), giving (T, k, k), or on an (m, k) grid, giving (T, m, k, k)."""
    return _per_cost(_fisher_info_grid(p, model), model)


def _criterion(v: np.ndarray, infos: np.ndarray, u: np.ndarray):
    """(a, x): the criterion a = u' A^{-1} u and x = A^{-1} u of A = sum_t v_t infos[t].

    ``infos`` is (T, k, k), or (T, m, k, k) to evaluate m parameter points
    at once, giving a (m,) and x (m, k).  Every blend is solved for x in one
    batched ``np.linalg.solve``, so the support of v must identify p
    (_PatternTable.identifies); _evaluate checks that for a caller's fractions.
    """
    blended = np.einsum("t,t...->...", v, infos)
    x = np.linalg.solve(blended, u)
    return (x @ u)[()], x


def _sensitivities(infos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """g_t = x' B_t x for B_t = infos[t]; with x = A(v)^{-1} u these are the
    negated gradient components of the criterion, ``u' A^{-1} B_t A^{-1} u``."""
    return np.einsum("tij,i,j->t", infos, x, x)


def _evaluate(v, p, model: DiseaseModel):
    """Validated fractions, pattern informations and _criterion at p; +inf unless v identifies p."""
    _require_type(model, DiseaseModel, "model")
    v = _fractions(v, len(all_patterns(model)))
    infos = _pattern_infos(validate_parameter(p, model.k), model)
    if not _pattern_tables(model).identifies(v > SUPPORT_EPS):
        return v, infos, math.inf, np.full(model.k, math.nan)
    return (v, infos) + _criterion(v, infos, model.u)


def objective(v, p, model: DiseaseModel) -> float:
    """Variance criterion a(v; p) = u' (sum_t v_t I_t(p)/c_t)^{-1} u.

    Computed by one linear solve with the blended information matrix,
    never an explicit inverse of it.  Returns +inf when the support of v
    (its fractions above SUPPORT_EPS) does not identify the parameter.
    """
    return float(_evaluate(v, p, model)[2])


def objective_gradient(v, p, model: DiseaseModel) -> np.ndarray:
    """Gradient of the variance criterion in v; every component is <= 0.

    Component t equals ``-u' A^{-1} (I_t/c_t) A^{-1} u`` with A the blended
    information matrix.  Raises when A is singular.
    """
    _, infos, mu, x = _evaluate(v, p, model)
    if mu == math.inf:
        raise ValueError("blended information matrix is singular; gradient undefined")
    return -_sensitivities(infos, x)


# ---------------------------------------------------------------------------
# Simplex solver on Elfving's dual
# ---------------------------------------------------------------------------


def _kkt_residual_from(g: np.ndarray, mu: float, v: np.ndarray) -> float:
    """First-order residual: on-support |g_t - mu|, off-support max(0, g_t - mu),
    with v_t > SUPPORT_EPS on the support.

    g_t is the (nonnegative) sensitivity ``u' A^{-1} (I_t/c_t) A^{-1} u``;
    at an optimum every supported pattern attains the common value mu and
    no pattern exceeds it.
    """
    on = v > SUPPORT_EPS
    resid = 0.0
    if on.any():
        resid = float(np.abs(g[on] - mu).max())
    if (~on).any():
        resid = max(resid, float(np.maximum(g[~on] - mu, 0.0).max()))
    return resid


def _conditions(b_rows: np.ndarray, unit: np.ndarray, y: np.ndarray, lam_s: np.ndarray):
    """(B_t y for t in S, the finish conditions ``2 sum_S lam_t B_t y - unit``
    and ``y' B_t y - 1``); ``b_rows`` stacks the active B_t as (|S| k, k)."""
    m, k = lam_s.size, unit.size
    by = (b_rows @ y).reshape(m, k)
    f = np.empty(k + m)
    f[:k] = 2.0 * lam_s @ by - unit
    f[k:] = by @ y - 1.0
    return by, f


def _pencil_derivatives(terms: list, rho: float):
    """(f'(rho), f''(rho)) of ``f = sum c2 / (base + rho slope)`` over
    ``terms`` of (c2, slope, base), or None where a denominator is not
    positive; in Python floats, as there are only k terms."""
    grad = curv = 0.0
    for c2, slope, base in terms:
        d = base + rho * slope
        if not d > 0.0:
            return None
        e = c2 * slope / (d * d)
        grad -= e
        curv += 2.0 * e * slope / d
    return grad, curv


def _closed_form(b: np.ndarray, unit: np.ndarray, lam_s: np.ndarray):
    """(y, lam_S) solving _finish's conditions on one or two active
    informations ``b`` (m, k, k) against ``unit`` = u / |u|, or None where
    the Newton finish must run instead.

    With x = A^-1 unit for the blend A of ``b`` that minimizes unit'A^-1 unit,
    y = x / sqrt(unit'x), and the multipliers share sqrt(unit'x) / 2 in the
    blend's proportions.  One pattern is its own blend.  For two, with
    L L' = B_s + B_t and L^-1 (B_s - B_t) L^-T = Q diag(delta) Q', the
    blend with fractions (rho, 1 - rho) is L Q diag((1 - delta) / 2 +
    rho delta) Q' L', so its criterion is the convex
    ``sum_i c_i^2 / ((1 - delta_i) / 2 + rho delta_i)`` with c = Q' L^-1 unit.
    Newton steps in rho start from the barrier's multiplier ratio and stop
    at the first that does not shrink the derivative: roundoff at the
    minimum.  Equal matrices give delta = 0, a flat criterion, and keep the
    barrier's ratio.  None when the single information or the pair's sum
    has no Cholesky factor, when a step leaves (0, 1) (the pair's minimum
    gives a pattern no positive fraction), or when unit'x is not positive.
    """
    try:
        chol = np.linalg.cholesky(b.sum(axis=0))
    except np.linalg.LinAlgError:
        return None
    inv = np.linalg.inv(chol)
    if len(b) == 1:
        share, x = np.ones(1), inv.T @ (inv @ unit)
    else:
        slope, q = np.linalg.eigh(inv @ (b[0] - b[1]) @ inv.T)
        c = q.T @ (inv @ unit)
        base = 0.5 * (1.0 - slope)
        terms = list(zip((c * c).tolist(), slope.tolist(), base.tolist()))
        rho = float(lam_s[0] / lam_s.sum())
        derivatives = _pencil_derivatives(terms, rho)
        if derivatives is None:
            return None
        for _ in range(FINISH_STEPS):
            grad, curv = derivatives
            if not curv > 0.0:  # a flat function: every rho is optimal
                break
            rho_new = rho - grad / curv
            if not 0.0 < rho_new < 1.0:
                return None
            new = _pencil_derivatives(terms, rho_new)
            if new is None or not abs(new[0]) < abs(grad):
                break
            rho, derivatives = rho_new, new
        share, x = np.array([rho, 1.0 - rho]), inv.T @ (q @ (c / (base + rho * slope)))
    ux = unit @ x
    if not ux > 0.0:
        return None
    root = math.sqrt(ux)
    return x / root, 0.5 * root * share


def _finish(
    flat: np.ndarray, u: np.ndarray, y: np.ndarray, lam: np.ndarray, active: np.ndarray,
    identified: bool,
):
    """Active-set finish from a centred point of the barrier path.

    Solves ``2 sum_S lam_t B_t y = u`` and ``y' B_t y = 1`` for t in the
    active set S, for lam / |u| against u / |u|.  A c-optimal design needs
    at most k support points (Pukelsheim 1993, ch. 2-3), and most finishes
    get one or two active patterns: when those are ``identified`` (they
    identify p), _closed_form solves them.  Three or more, one or two that
    do not identify p (a singular optimum), and any _closed_form declines
    take _newton_finish.  ``flat`` is the stack of B_t viewed as (T, k*k).
    Returns (y, multipliers of every pattern, residual), the residual the
    largest violation of the conditions.
    """
    index = np.flatnonzero(active)
    k, m = u.size, index.size
    b_flat = flat[index]
    norm = float(np.linalg.norm(u))
    unit, lam_s = u / norm, lam[index] / norm
    solved = _closed_form(b_flat.reshape(m, k, k), unit, lam_s) if identified and m <= 2 else None
    if solved is None:
        y, lam_s, f = _newton_finish(b_flat, unit, y, lam_s)
    else:
        y, lam_s = solved
        f = _conditions(b_flat.reshape(m * k, k), unit, y, lam_s)[1]
    lam = np.zeros(flat.shape[0])
    lam[index] = lam_s * norm
    return y, lam, float(np.abs(f).max())


def _newton_finish(b_flat: np.ndarray, unit: np.ndarray, y: np.ndarray, lam_s: np.ndarray):
    """(y, lam_S, conditions) of _finish by Newton steps in (y, lam_S) from
    the barrier's point; ``b_flat`` holds the active B_t as (|S|, k*k).

    Each step is a least-squares solve truncated at rcond 1e-10, so a
    singular Jacobian cannot throw y along its null space.  The steps stop
    once one no longer cuts the residual tenfold: roundoff on the right
    active set, a stall on a wrong one.  Against u / |u|, the Jacobian is
    the same whatever the scale of u.
    """
    k, m = unit.size, b_flat.shape[0]
    b_rows = b_flat.reshape(m * k, k)
    jac = np.zeros((k + m, k + m))
    by, f = _conditions(b_rows, unit, y, lam_s)
    res = np.abs(f).max()
    for _ in range(FINISH_STEPS):
        jac[:k, :k] = (2.0 * lam_s @ b_flat).reshape(k, k)
        jac[:k, k:] = 2.0 * by.T
        jac[k:, :k] = 2.0 * by
        dz = np.linalg.lstsq(jac, -f, rcond=1e-10)[0]
        y_new, lam_new = y + dz[:k], lam_s + dz[k:]
        by_new, f_new = _conditions(b_rows, unit, y_new, lam_new)
        res_new = np.abs(f_new).max()
        if res_new < res:
            y, lam_s, by, f = y_new, lam_new, by_new, f_new
        if not res_new < 0.1 * res:
            break
        res = res_new
    return y, lam_s, f


def _solve_simplex(infos: np.ndarray, model: DiseaseModel):
    """Minimize a(v) = u' (sum_t v_t B_t)^{-1} u over the simplex; B_t = infos[t], u = model.u.

    Returns (v, objective, residual, steps).  By Elfving's theorem the
    minimum is (max u'y)^2 over {y : y' B_t y <= 1 for all t}, and the
    normalized multipliers of that dual are the optimal fractions.  Newton
    steps follow the central path of the barrier
    ``-tau u'y - sum_t log s_t`` with slacks ``s_t = 1 - y' B_t y``.  The
    path starts at half the largest feasible multiple of
    ``(sum_t B_t)^{-1} u`` with the most central tau; tau grows by
    TAU_GROWTH at each centred point (squared Newton decrement at most
    1/4), steps are damped by 1/(1 + sqrt(decrement)) while the decrement
    exceeds 1, and halved until every slack stays positive; the accepted
    step's products ``B_t y`` and slacks start the next step.  The stack
    is read through its (T, k*k) and (T*k, k) views, so the Hessian blend
    ``r @ flat`` (r = 2/s) and all products ``B_t y`` are one matrix
    product each, and one formula gives the step ``tau H^-1 u - H^-1 grad``
    and its decrement ``(tau u - grad) . step`` at every tau.

    Once the duality gap T/tau is at most FINISH_GAP * u'y, _finish solves
    the optimality conditions on the patterns whose share of the barrier
    multipliers 1/(tau s_t) exceeds their slack: in closed form when one or
    two are active and identify p (_PatternTable.identifies), by Newton
    steps from the barrier's point otherwise.  Its result is certified
    when its multipliers are nonnegative, y is dual feasible and the finish
    residual is within CERTIFICATE_TOL; otherwise the path continues to a
    gap a hundred times smaller, about that of the next centred point.
    Then v = lam / sum(lam), the objective is (u'y)^2 and, since
    A(v)^{-1} u = 2 sum(lam) y, every sensitivity is
    ``g_t = objective * y' B_t y``, with no inverse of A(v).  ``steps``
    counts the barrier's Newton steps alone: where a finish stops depends
    on roundoff, where the barrier path reaches its gap does not.

    Raises InfeasibleDesignError when no design identifies p, so sum_t B_t
    is singular, and ConvergenceError when that sum or a barrier Hessian is
    singular or indefinite in floating point, the certified optimum's support
    does not identify p (_PatternTable.identifies) or no certificate comes
    within MAX_NEWTON_STEPS.
    """
    (n, k), u = infos.shape[:2], model.u
    table = _pattern_tables(model)
    if not table.identified:
        raise InfeasibleDesignError("the summed pattern information matrix is singular")
    flat, rows = infos.reshape(n, k * k), infos.reshape(n * k, k)
    try:
        y_hat = np.linalg.solve(infos.sum(axis=0), u)
    except np.linalg.LinAlgError:
        raise ConvergenceError("singular summed pattern information at the barrier start") from None
    y = 0.5 * y_hat / math.sqrt(((rows @ y_hat).reshape(n, k) @ y_hat).max())
    by = (rows @ y).reshape(n, k)
    s = 1.0 - by @ y
    rhs = np.empty((k, 2))  # columns: the barrier gradient, then u
    rhs[:, 1] = u
    tau = None
    gap = FINISH_GAP
    steps = 0
    indefinite = "barrier Hessian is not positive definite at Newton step"
    while steps < MAX_NEWTON_STEPS:
        r = 2.0 / s
        w = by * r[:, None]
        grad = rhs[:, 0] = w.sum(axis=0)  # of the barrier; the objective adds -tau u
        hess = (r @ flat).reshape(k, k) + w.T @ w
        try:
            h_grad, h_u = np.linalg.solve(hess, rhs).T
        except np.linalg.LinAlgError:
            raise ConvergenceError(f"singular barrier Hessian at Newton step {steps}") from None
        # a positive definite Hessian makes u'H^-1 u (read for the first tau)
        # positive; roundoff can leave it indefinite.  The first decrement is
        # 0 where grad is parallel to u, as in every k = 1 model, and so comes
        # out as roundoff of either sign: only a non-finite one is refused.
        if tau is None:
            u_h_u = h_u @ u
            if not 0.0 < u_h_u < math.inf:
                raise ConvergenceError(f"{indefinite} {steps}")
            tau = (h_u @ grad) / u_h_u
        step = tau * h_u - h_grad
        dec = (tau * u - grad) @ step
        if not math.isfinite(dec):
            raise ConvergenceError(f"{indefinite} {steps}")
        if dec <= 0.25:
            if n / tau <= gap * (u @ y):
                lam = 1.0 / (tau * s)
                active = lam / lam.sum() > s
                y_fin, lam, resid = _finish(flat, u, y, lam, active, table.identifies(active))
                q = (rows @ y_fin).reshape(n, k) @ y_fin
                total = lam.sum()
                if (
                    lam.min() >= -1e-12 * total
                    and q.max() <= 1.0 + CERTIFICATE_TOL
                    and resid <= CERTIFICATE_TOL
                ):
                    v = np.maximum(lam, 0.0) / total
                    if not table.identifies(v > SUPPORT_EPS):
                        raise ConvergenceError(
                            f"the optimal design found after {steps} Newton steps has a "
                            f"singular information matrix (support of {np.count_nonzero(v)} "
                            "patterns); singular optima are not returned"
                        )
                    mu = float(u @ y_fin) ** 2
                    return v, mu, _kkt_residual_from(mu * q, mu, v), steps
                gap *= 1e-2
            tau *= TAU_GROWTH
            step = tau * h_u - h_grad
            dec = (tau * u - grad) @ step
        t = 1.0 / (1.0 + math.sqrt(dec)) if dec > 1.0 else 1.0
        for _ in range(MAX_BACKTRACKS):
            trial = y + t * step
            b_trial = (rows @ trial).reshape(n, k)
            s_trial = 1.0 - b_trial @ trial
            if s_trial.min() > 0.0:  # exactly y' B_t y < 1 in IEEE arithmetic
                break
            t *= 0.5
        else:
            raise ConvergenceError(
                f"no strictly feasible barrier step after {steps} Newton steps"
            )
        y, by, s = trial, b_trial, s_trial
        steps += 1
    raise ConvergenceError(
        f"no certified optimum after {steps} of at most {MAX_NEWTON_STEPS} Newton steps"
    )


def solve_c_optimal(p, model: DiseaseModel, budget: float = 1.0) -> SolveReport:
    """Minimize the estimate's variance over budget fractions on the model's patterns.

    The optimal fractions do not depend on the budget; the budget only
    scales the reported design counts and the achieved variance
    ``objective / budget``.  Raises InfeasibleDesignError when no pattern
    has positive-definite information at p, and ConvergenceError when the
    solver certifies no optimum or the optimum's support does not identify p.
    """
    _require_type(model, DiseaseModel, "model")
    p = validate_parameter(p, model.k)
    infos = _fisher_info_grid(p, model)
    if not _all_tests_pd(infos[-1]):
        raise InfeasibleDesignError(
            "no test pattern has positive-definite information at p; "
            "every design has unbounded variance"
        )
    _per_cost(infos, model)
    v, mu, residual, iterations = _solve_simplex(infos, model)
    return SolveReport(
        design=Design(patterns=all_patterns(model), fractions=v, budget=budget),
        objective=mu,
        kkt_residual=residual,
        iterations=iterations,
    )


def design_from_fractions(
    v, budget: float, patterns: Sequence[TestPattern]
) -> Design:
    """Design at a given budget: counts w_t = v_t * budget / c_t."""
    return Design(patterns=tuple(patterns), fractions=np.asarray(v, dtype=np.float64), budget=budget)


def kkt_check(v, p, model: DiseaseModel) -> float:
    """First-order optimality residual of fractions v at parameter p.

    Supported patterns must attain the common value mu = a(v; p) and
    unsupported patterns must not exceed it; the residual is the largest
    violation of either condition (compare it to ``KKT_TOL * mu``).
    """
    v, infos, mu, x = _evaluate(v, p, model)
    if mu == math.inf:
        raise ValueError("blended information matrix is singular; KKT residual undefined")
    return _kkt_residual_from(_sensitivities(infos, x), float(mu), v)


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


def budget_for_margin(p, model: DiseaseModel, moe: float, alpha: float = 0.05) -> SolveReport:
    """The optimal design priced at the smallest budget that meets margin ``moe``.

    Solves once, at the cheapest test's price (it buys at most one of any
    pattern), and prices the report at ``design.budget = z^2 a(v*) / moe^2``,
    z the two-sided normal critical value at level alpha; the fractions do
    not depend on the budget, so ``z * sqrt(min_variance) == moe``.
    """
    _require_type(model, DiseaseModel, "model")
    if not 0 < moe < math.inf:
        raise ValueError(f"margin of error must be positive and finite, got {moe}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    report = solve_c_optimal(p, model, budget=min(t.cost for t in model.tests))
    z = abs(normal_quantile(alpha / 2.0))
    budget = z * z * report.objective / (moe * moe) if moe * moe else math.inf  # underflow to 0
    if not 0 < budget < math.inf:
        raise ValueError(
            f"margin of error {moe:g} gives a budget of {budget:g}, not positive and finite"
        )
    return report.priced(budget)
