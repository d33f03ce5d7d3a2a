"""Worst-case designs as equilibria of a convex-concave zero-sum game.

The design that minimizes the worst-case variance over a parameter
uncertainty region is the minimizing player's equilibrium strategy in the
game whose payoff is the variance criterion: the payoff is convex in the
budget fractions and concave in the parameter, so a saddle point exists.
The maximizer is the grid point of the feasible box (a small box
intersected with the simplex) with the largest inner optimum
``min_v a(v; p)``; each inner minimization is solve_c_optimal's
computation at its point, and the returned pair is certified by
re-evaluating the design across the whole grid.  A worst-case report is
therefore a SolveReport at p*: its objective is the game value, and it
adds p*, the saddle gap and the grid step.

The grid is scanned best-first instead of exhaustively.  Every design
``v`` bounds the inner optimum from above at every grid point,
``min_w a(w; p) <= a(v; p)``, with no appeal to concavity, and one batched
evaluation over v's support gives that bound at the open points.  The
bounds start at the all-tests design (every participant takes every test),
whose worst point is a good guess of the worst case, so the scan solves
that point first.
It then solves the open point with the largest bound and closes every
point whose bound falls below the best solved value by more than
PRUNE_MARGIN relative.  Each solve is deterministic and carries Elfving's
dual certificate: its value comes from a dual point feasible to within
CERTIFICATE_TOL (1e-10), and its design meets the optimality conditions
to within the same tolerance, so every solved value lies within about
1e-10 relative of the inner optimum, far inside that margin.  Hence no
closed point could have beaten or tied the incumbent, whatever the order
of the solves, and the scan returns exactly the point, fractions and
iteration count that solving every grid point would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coptimal import (
    ConvergenceError,
    Design,
    InfeasibleDesignError,
    SolveReport,
    _criterion,
    _evaluate,
    _per_cost,
    _solve_simplex,
    kkt_check,
    objective,
)
from .model import (
    DiseaseModel,
    ParameterBox,
    _all_tests_pd,
    _box_grid,
    _fisher_info_grid,
    _pattern_tables,
    _read_only,
    _rows_info,
    all_patterns,
    check_a2,
)

# ``check_a2`` is not called here: worst_case_design gates A2 on the
# all-tests pattern alone.  It stays a name of this module because
# perfbench's tracer wraps it here, and tests/test_package.py checks that
# every wrapped name resolves.

__all__ = ["SaddleReport", "worst_case_design", "saddle_check"]

# Relative certification threshold for the saddle gap.  The grid argmax's
# exact best response certifies at a few 1e-4 relative on 0.01 grids, so the
# threshold sits above that; tightening it makes the averaging fallback
# replace the best response with a strictly-better-certified mixture.
SADDLE_TOL = 1e-3
# Cap on alternating-best-response refinement rounds.
REFINE_MAX_ROUNDS = 200
# Relative margin by which a grid point's envelope bound must fall below
# the best solved value before the scan closes it unsolved.  It sits far
# above the relative accuracy of a certified inner solve (about
# CERTIFICATE_TOL, 1e-10), so a point whose solve could reach or tie the
# incumbent is never closed.
PRUNE_MARGIN = 1e-6


@dataclass(frozen=True, eq=False)
class SaddleReport(SolveReport):
    """A certified approximate equilibrium of the worst-case design game.

    A worst-case report is a SolveReport at p*: its design is the
    minimizing player's fractions, its ``objective`` the game value
    a(v*; p*) and its ``kkt_residual`` the first-order residual at p*.
    ``saddle_gap`` is ``max_p a(v*; p) - a(v*; p*)`` over the grid of
    step ``grid_step``.
    """

    p_star: np.ndarray
    saddle_gap: float
    grid_step: float

    def to_dict(self) -> dict:
        return {
            "p_star": [float(x) for x in self.p_star],
            "game_value": self.objective,
            "saddle_gap": self.saddle_gap,
            "grid_step": self.grid_step,
            "kkt_residual": self.kkt_residual,
            "min_variance": self.min_variance,
            "design": self.design.to_dict(),
        }


def _grid_payoff(v: np.ndarray, pts: np.ndarray, model: DiseaseModel) -> np.ndarray:
    """a(v; p) at every point of an (m, k) grid: ``v_t / c_t`` times pattern t's
    _rows_info, summed over the support of v alone, then _criterion."""
    table, (m, k) = _pattern_tables(model), pts.shape
    blended = np.zeros((m, k * k))
    info = np.empty_like(blended)
    for t in np.flatnonzero(v):
        _rows_info(table, table.spans[t], pts, out=info)
        info *= v[t] / table.costs[t]
        blended += info
    del info  # before the solve, which copies the blend
    return _criterion(np.ones(1), blended.reshape(1, m, k, k), model.u)[0]


def _envelope_argmax(pts: np.ndarray, model: DiseaseModel, solve_at) -> int:
    """Grid index with the largest inner optimum, ties to the smallest index.

    Best-first scan: ``bound[i]``, the least ``a(v; p_i)`` over the designs
    seen so far, bounds the inner optimum at ``p_i`` from above.  The first
    is the all-tests pattern alone, on check_a2's array, which gates A2; each
    solved design's payoff then updates the open points alone.  The open
    point with the largest bound is solved next, and points whose bound
    falls below the incumbent by more than PRUNE_MARGIN are closed.
    """
    table = _pattern_tables(model)
    bound = _rows_info(table, table.spans[-1], pts)
    if not _all_tests_pd(bound):
        raise InfeasibleDesignError(
            "no pattern has uniformly positive-definite information over the box; "
            "the worst-case variance is unbounded for every design"
        )
    bound /= table.costs[-1]
    bound = _criterion(np.ones(1), bound[None], model.u)[0]
    open_idx = np.arange(len(pts))
    best_index, best_value = -1, -math.inf
    while open_idx.size:
        pos = int(np.argmax(bound[open_idx]))
        i = int(open_idx[pos])
        v, mu, _, _ = solve_at(i)
        if mu > best_value or (mu == best_value and i < best_index):
            best_index, best_value = i, mu
        open_idx = np.delete(open_idx, pos)
        if open_idx.size:
            bound[open_idx] = np.minimum(bound[open_idx], _grid_payoff(v, pts[open_idx], model))
            open_idx = open_idx[bound[open_idx] >= (1.0 - PRUNE_MARGIN) * best_value]
    return best_index


def worst_case_design(
    box: ParameterBox,
    model: DiseaseModel,
    grid_step: float = 0.01,
    budget: float = 1.0,
) -> SaddleReport:
    """Design minimizing the worst-case variance over the box.

    The worst case p* maximizes the lower envelope ``min_v a(v; p)`` over
    the feasible grid and the returned fractions are the inner minimizer
    at p*, exactly what solve_c_optimal returns there.  A2 is checked on
    the all-tests pattern alone, which dominates every other pattern's
    information (see serodesign.model).  p* comes from the best-first scan
    of _envelope_argmax, which returns what an exhaustive scan gives; an
    inner solve's error names its grid point.  If the grid's saddle gap
    ``max_p a(v*; p) - a(v*; p*)`` exceeds SADDLE_TOL relative, the
    fractions are refined by alternating best responses with uniform
    averaging of the minimizing player's iterates until the gap closes or
    the round cap is reached.  Inner solves are memoized per grid point.
    """
    pts = _box_grid(box, model, grid_step)
    solves: dict[int, tuple] = {}

    def solve_at(i: int) -> tuple:
        if i not in solves:
            try:
                solves[i] = _solve_simplex(_per_cost(_fisher_info_grid(pts[i], model), model), model)
            except (ConvergenceError, InfeasibleDesignError) as err:
                err.args = (f"inner solve at grid point p = {pts[i].tolist()}: {err}",)
                raise
        return solves[i]

    best_index = _envelope_argmax(pts, model, solve_at)
    v_star, game_value, residual, iterations = solve_at(best_index)
    p_star = _read_only(pts[best_index])

    values = _grid_payoff(v_star, pts, model)
    gap = float(values.max() - values[best_index])
    if gap > SADDLE_TOL * game_value:
        # Fictitious-play fallback: the maximizer best-responds on the grid,
        # the minimizer best-responds exactly, and the minimizer's iterates
        # are averaged; convex-concave payoffs make the averages converge.
        # ``values`` always holds the payoff of the current average.
        iterates = [v_star]
        v_best, gap_best = v_star, gap
        for _ in range(REFINE_MAX_ROUNDS):
            iterates.append(solve_at(int(np.argmax(values)))[0])
            v_avg = np.mean(iterates, axis=0)
            values = _grid_payoff(v_avg, pts, model)
            gap_avg = float(values.max() - values[best_index])
            if gap_avg < gap_best:
                v_best, gap_best = v_avg, gap_avg
            if gap_best <= SADDLE_TOL * game_value:
                break
        # the averaged fractions are no longer the exact inner minimizer at p*
        v_star, gap = v_best, gap_best
        game_value = objective(v_star, p_star, model)
        residual = kkt_check(v_star, p_star, model)

    return SaddleReport(
        design=Design(patterns=all_patterns(model), fractions=v_star, budget=budget),
        objective=game_value,
        kkt_residual=residual,
        iterations=iterations,
        p_star=p_star,
        saddle_gap=gap,
        grid_step=float(grid_step),
    )


def saddle_check(
    v,
    p_star,
    box: ParameterBox,
    model: DiseaseModel,
    grid_step: float = 0.01,
) -> tuple[float, float]:
    """Equilibrium gaps of a candidate pair (v, p*).

    Returns ``(max_p a(v; p) - a(v; p*), a(v; p*) - min_v a(v; p*))``, the
    first maximized over the feasible grid, which gives ``a(v; p*)`` too
    when p* is a grid point, as in a worst-case report's ``saddle_gap``,
    and the second via one c-optimal solve at p*.  Both are nonnegative up
    to roundoff when p* is a grid point, and both below the saddle
    tolerance certify an approximate equilibrium.  Raises when the support
    of v does not identify p, or when p* lies outside the box's bounds by
    more than the grid's 1e-12 slack.
    """
    v, infos_star, at_p_star, _ = _evaluate(v, p_star, model)
    if at_p_star == math.inf:
        raise ValueError("blended information matrix is singular; saddle gaps undefined")
    pts = _box_grid(box, model, grid_step)
    p_star = np.asarray(p_star, dtype=np.float64)
    if (p_star < box.lower - 1e-12).any() or (p_star > box.upper + 1e-12).any():
        raise ValueError(f"p* {p_star} lies outside the box from {box.lower} to {box.upper}")
    values = _grid_payoff(v, pts, model)
    on_grid = np.flatnonzero((pts == p_star).all(axis=1))
    at_p_star = values[on_grid[0]] if on_grid.size else at_p_star
    inner_value = _solve_simplex(infos_star, model)[1]
    return float(values.max() - at_p_star), float(at_p_star - inner_value)
