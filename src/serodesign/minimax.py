"""Worst-case designs as equilibria of a convex-concave zero-sum game.

The design that minimizes the worst-case variance over a parameter
uncertainty region is the minimizing player's equilibrium strategy in the
game whose payoff is the variance criterion: the payoff is convex in the
budget fractions and concave in the parameter, so a saddle point exists.
The maximizer is the grid point of the feasible box (a small box
intersected with the simplex) with the largest inner optimum
``min_v a(v; p)``; the inner minimization reuses the c-optimal solver, and
the returned pair is certified by re-evaluating the design across the
whole grid.

The grid is scanned best-first instead of exhaustively.  Every solved
design ``v`` bounds the inner optimum from above at every grid point,
``min_w a(w; p) <= a(v; p)``, with no appeal to concavity, and one batched
evaluation gives that bound over the whole grid.  The scan solves the open
point with the largest bound and closes every point whose bound falls
below the best solved value by more than PRUNE_MARGIN relative.  Each
solve is deterministic and carries Elfving's dual certificate: its value
comes from a dual point feasible to within CERTIFICATE_TOL (1e-10), and
its design meets the optimality conditions to within the same tolerance,
so every solved value lies within about 1e-10 relative of the inner
optimum, far inside that margin.  Hence no closed point could have beaten
or tied the incumbent, and the scan returns exactly the point, fractions
and iteration count that solving every grid point would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .coptimal import (
    SUPPORT_EPS,
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
    design_from_fractions,
    objective,
)
from .model import (
    DiseaseModel,
    ParameterBox,
    TestPattern,
    _a2,
    _box_grid,
    _fisher_info_grid,
    all_patterns,
    check_a2,
)

# ``check_a2`` is not called here: worst_case_design runs A2 on the grid
# informations it solves on.  It stays a name of this module because
# perfbench's tracer wraps it here, and tests/test_package.py checks that
# every wrapped name resolves.

__all__ = ["SaddleReport", "payoff", "worst_case_design", "saddle_check"]

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
class SaddleReport:
    """A certified approximate equilibrium of the worst-case design game.

    ``inner`` is the minimizing player's design with its criterion value
    a(v*; p*), the game value, and its first-order residual at p*.
    """

    inner: SolveReport
    p_star: np.ndarray
    saddle_gap: float
    grid_step: float

    @property
    def design(self) -> Design:
        return self.inner.design

    @property
    def game_value(self) -> float:
        return self.inner.objective

    def priced(self, budget: float) -> SaddleReport:
        """This report with its design priced at ``budget``."""
        return replace(self, inner=self.inner.priced(budget))

    def to_dict(self) -> dict:
        return {
            "p_star": [float(x) for x in self.p_star],
            "game_value": self.game_value,
            "saddle_gap": self.saddle_gap,
            "grid_step": self.grid_step,
            "kkt_residual": self.inner.kkt_residual,
            "min_variance": self.inner.min_variance,
            "design": self.design.to_dict(),
        }


def payoff(v, p, model: DiseaseModel, patterns: Sequence[TestPattern] | None = None) -> float:
    """Game payoff: identical to the variance criterion a(v; p)."""
    return objective(v, p, model, patterns=patterns)


def _envelope_argmax(grid_infos: np.ndarray, u: np.ndarray, solve_at) -> int:
    """Grid index with the largest inner optimum, ties to the smallest index.

    Best-first scan: ``bound[i]`` is the least ``a(v; p_i)`` over the designs
    solved so far, an upper bound on the inner optimum at ``p_i``.  The open
    point with the largest bound is solved next, and points whose bound
    falls below the incumbent by more than PRUNE_MARGIN are closed.
    """
    bound = np.full(grid_infos.shape[1], math.inf)
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
            bound[open_idx] = np.minimum(
                bound[open_idx], _criterion(v, grid_infos[:, open_idx], u)[0]
            )
            open_idx = open_idx[bound[open_idx] >= (1.0 - PRUNE_MARGIN) * best_value]
    return best_index


def worst_case_design(
    box: ParameterBox,
    model: DiseaseModel,
    grid_step: float = 0.01,
    budget: float = 1.0,
    patterns: Sequence[TestPattern] | None = None,
    saddle_tol: float = SADDLE_TOL,
) -> SaddleReport:
    """Design minimizing the worst-case variance over the box.

    The worst case p* maximizes the lower envelope ``min_v a(v; p)`` over
    the feasible grid and the returned fractions are the inner minimizer
    at p*.  p* is found by a best-first scan that solves only the grid
    points whose envelope bound (the least payoff of the designs solved so
    far) could still reach the best solved value; the result is the one an
    exhaustive scan gives, including its tie-break toward the
    lexicographically smallest point.  The saddle gap
    ``max_p a(v*; p) - a(v*; p*)`` is evaluated over the grid; if it
    exceeds ``saddle_tol`` relative, the fractions are refined by
    alternating best responses with uniform averaging of the minimizing
    player's iterates until the gap closes or the round cap is reached.
    Inner solves are memoized per grid point across the scan and the
    refinement.
    """
    patterns = tuple(patterns) if patterns is not None else all_patterns(model)
    pts = _box_grid(box, model, grid_step)
    grid_infos = _fisher_info_grid(pts, model, patterns)
    if not _a2(grid_infos, pts, patterns).ok:
        raise InfeasibleDesignError(
            "no pattern has uniformly positive-definite information over the box; "
            "the worst-case variance is unbounded for every design"
        )
    _per_cost(grid_infos, patterns)
    u = model.u

    solves: dict[int, tuple] = {}

    def solve_at(i: int) -> tuple:
        if i not in solves:
            solves[i] = _solve_simplex(grid_infos[:, i], u)
        return solves[i]

    best_index = _envelope_argmax(grid_infos, u, solve_at)
    v_star, game_value, residual, iterations = solve_at(best_index)
    p_star = pts[best_index]

    values = _criterion(v_star, grid_infos, u)[0]
    gap = float(values.max() - values[best_index])
    if gap > saddle_tol * game_value:
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
            if gap_best <= saddle_tol * game_value:
                break
        v_star, gap = v_best, gap_best
        # the averaged fractions are no longer the exact inner minimizer at
        # p*, so re-certify their first-order residual there
        infos_star = grid_infos[:, best_index]
        game_value, x = _criterion(v_star, infos_star, u)
        game_value = float(game_value)
        g = _sensitivities(infos_star, x)
        residual = _kkt_residual_from(g, game_value, v_star, SUPPORT_EPS)

    inner = SolveReport(
        design=design_from_fractions(v_star, budget, patterns),
        objective=game_value,
        kkt_residual=residual,
        iterations=iterations,
    )
    return SaddleReport(inner=inner, p_star=p_star, saddle_gap=gap, grid_step=grid_step)


def saddle_check(
    v,
    p_star,
    box: ParameterBox,
    model: DiseaseModel,
    grid_step: float = 0.01,
    patterns: Sequence[TestPattern] | None = None,
) -> tuple[float, float]:
    """Equilibrium gaps of a candidate pair (v, p*).

    Returns ``(max_p a(v; p) - a(v; p*), a(v; p*) - min_v a(v; p*))``, the
    first maximized over the feasible grid and the second via one
    c-optimal solve at p*.  Both are nonnegative up to roundoff, and both
    below the saddle tolerance certify an approximate equilibrium.
    """
    patterns = tuple(patterns) if patterns is not None else all_patterns(model)
    v, infos_star, at_p_star, _ = _evaluate(v, p_star, model, patterns)
    grid_infos = _pattern_infos(_box_grid(box, model, grid_step), model, patterns)
    values = _criterion(v, grid_infos, model.u)[0]
    inner_value = _solve_simplex(infos_star, model.u)[1]
    return float(values.max() - at_p_star), float(at_p_star - inner_value)
