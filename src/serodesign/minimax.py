"""Worst-case designs as equilibria of a convex-concave zero-sum game.

The design that minimizes the worst-case variance over a parameter
uncertainty region is the minimizing player's equilibrium strategy in the
game whose payoff is the variance criterion: the payoff is convex in the
budget fractions and concave in the parameter, so a saddle point exists.
The maximizer is the grid point of the feasible box (a small box
intersected with the simplex) with the largest inner optimum
``min_v a(v; p)``; the inner minimization reuses the c-optimal solver, and
the returned pair is certified by re-evaluating the design across the
whole grid.  A worst-case report is therefore a SolveReport at p*: its
objective is the game value, and it adds p*, the saddle gap and the grid
step.

The grid is scanned best-first instead of exhaustively.  Every design
``v`` bounds the inner optimum from above at every grid point,
``min_w a(w; p) <= a(v; p)``, with no appeal to concavity, and one batched
evaluation gives that bound over the whole grid.  The bounds start at the
all-tests design (every participant takes every test), whose worst point
is a good guess of the worst case, so the scan solves that point first.
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
    _kkt_residual_from,
    _pattern_infos,
    _per_cost,
    _sensitivities,
    _solve_simplex,
)
from .model import (
    DiseaseModel,
    ParameterBox,
    _all_tests_pd,
    _box_grid,
    _fisher_info_grid,
    _read_only,
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


def _envelope_argmax(grid_infos: np.ndarray, u: np.ndarray, solve_at) -> int:
    """Grid index with the largest inner optimum, ties to the smallest index.

    Best-first scan: ``bound[i]`` is the least ``a(v; p_i)`` over the designs
    seen so far, an upper bound on the inner optimum at ``p_i``.  The first
    design seen is the all-tests pattern alone, the last in all_patterns
    order, so the first point solved is where that design's variance is
    largest.  The open point with the largest bound is solved next, and
    points whose bound falls below the incumbent by more than PRUNE_MARGIN
    are closed.  Each solved design is blended over the whole grid and
    _criterion keeps the open points of the blend, so no slice of the
    (T, m, k, k) stack is copied.
    """
    bound = _criterion(np.ones(1), grid_infos[-1:], u)[0]
    open_idx = np.arange(grid_infos.shape[1])
    best_index, best_value = -1, -math.inf
    while open_idx.size:
        pos = int(np.argmax(bound[open_idx]))
        i = int(open_idx[pos])
        v, mu, _, _ = solve_at(i)
        if mu > best_value or (mu == best_value and i < best_index):
            best_index, best_value = i, mu
        open_idx = np.delete(open_idx, pos)
        if open_idx.size:
            bound[open_idx] = np.minimum(bound[open_idx], _criterion(v, grid_infos, u, open_idx)[0])
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
    at p*.  A2 is checked on the all-tests pattern alone, which dominates
    every other pattern's information (see serodesign.model).  p* is
    found by a best-first scan that starts at the grid point where the
    all-tests design's variance is largest and then solves only the grid
    points whose envelope bound (the least payoff of the all-tests design
    and of the designs solved so far) could still reach the best solved
    value; the result is the one an exhaustive scan gives, including its
    tie-break toward the lexicographically smallest point.  An inner
    solve's error names its grid point.  The saddle gap
    ``max_p a(v*; p) - a(v*; p*)`` is evaluated over the grid; if it
    exceeds SADDLE_TOL relative, the fractions are refined by alternating
    best responses with uniform averaging of the minimizing player's
    iterates until the gap closes or the round cap is reached.  Inner
    solves are memoized per grid point across the scan and the refinement.
    """
    pts = _box_grid(box, model, grid_step)
    grid_infos = _fisher_info_grid(pts, model)
    if not _all_tests_pd(grid_infos[-1]):
        raise InfeasibleDesignError(
            "no pattern has uniformly positive-definite information over the box; "
            "the worst-case variance is unbounded for every design"
        )
    _per_cost(grid_infos, model)
    u = model.u

    solves: dict[int, tuple] = {}

    def solve_at(i: int) -> tuple:
        if i not in solves:
            try:
                solves[i] = _solve_simplex(grid_infos[:, i], model)
            except (ConvergenceError, InfeasibleDesignError) as err:
                err.args = (f"inner solve at grid point p = {pts[i].tolist()}: {err}",)
                raise
        return solves[i]

    best_index = _envelope_argmax(grid_infos, u, solve_at)
    v_star, game_value, residual, iterations = solve_at(best_index)
    p_star = _read_only(pts[best_index])

    values = _criterion(v_star, grid_infos, u)[0]
    gap = float(values.max() - values[best_index])
    if gap > SADDLE_TOL * game_value:
        # Fictitious-play fallback: the maximizer best-responds on the grid,
        # the minimizer best-responds exactly, and the minimizer's iterates
        # are averaged; convex-concave payoffs make the averages converge.
        # ``values`` always holds the payoff of the current average.
        iterates = [v_star]
        v_best, gap_best = v_star, gap
        for _ in range(REFINE_MAX_ROUNDS):
            reply_idx = int(np.argmax(values))
            iterates.append(solve_at(reply_idx)[0])
            v_avg = np.mean(iterates, axis=0)
            values = _criterion(v_avg, grid_infos, u)[0]
            gap_avg = float(values.max() - values[best_index])
            if gap_avg < gap_best:
                v_best, gap_best = v_avg, gap_avg
            if gap_best <= SADDLE_TOL * game_value:
                break
        v_star, gap = v_best, gap_best
        # the averaged fractions are no longer the exact inner minimizer at
        # p*, so re-certify their first-order residual there
        infos_star = grid_infos[:, best_index]
        game_value, x = _criterion(v_star, infos_star, u)
        game_value = float(game_value)
        g = _sensitivities(infos_star, x)
        residual = _kkt_residual_from(g, game_value, v_star)

    return SaddleReport(
        design=Design(patterns=all_patterns(model), fractions=v_star, budget=budget),
        objective=game_value,
        kkt_residual=residual,
        iterations=iterations,
        p_star=p_star,
        saddle_gap=gap,
        grid_step=grid_step,
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
    first maximized over the feasible grid and the second via one
    c-optimal solve at p*.  The second is nonnegative up to roundoff, and
    so is the first when p* is a grid point; both below the saddle
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
    values = _criterion(v, _pattern_infos(pts, model), model.u)[0]
    inner_value = _solve_simplex(infos_star, model)[1]
    return float(values.max() - at_p_star), float(at_p_star - inner_value)
