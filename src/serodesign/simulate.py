"""Monte-Carlo verification of the predicted design variance.

Draws survey outcomes under a design (state first, then the outcome of
the administered tests given the state), fits the constrained maximum
likelihood estimate of the state probabilities, and compares the sample
variance of the estimated target against the variance the design solver
predicted.  Replications use independent, named counter-based random
streams so runs are reproducible and order-independent.  The fits of all
replications run as one batch: Newton's method on the active face of the
simplex, each row leaving the batch once its projected gradient is
certified, so a replication's estimate does not depend on the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coptimal import ConvergenceError, Design, objective
from .model import DiseaseModel, TestPattern, _pattern_tables, all_patterns, validate_parameter

__all__ = [
    "SurveyDataset",
    "sample_outcomes",
    "mle",
    "log_likelihood",
    "variance_check",
    "simulate_estimates",
    "simulation_report",
    "jarque_bera_pvalue",
]

MLE_TOL = 1e-8
MLE_MAX_STEPS = 100  # Newton steps of one batched fit
MIN_REPLICATIONS = 8  # the normality test needs 8 estimates


@dataclass(frozen=True, eq=False)
class SurveyDataset:
    """Sufficient statistics of one simulated survey.

    For every administered pattern, ``counts`` holds the number of
    participants per outcome, in outcome_space order.
    """

    patterns: tuple[TestPattern, ...]
    counts: tuple[np.ndarray, ...]
    seed: int

    def __post_init__(self):
        counts = tuple(np.asarray(c, dtype=np.int64) for c in self.counts)
        if len(counts) != len(self.patterns):
            raise ValueError("need one count vector per pattern")
        for t, c in zip(self.patterns, counts):
            if c.ndim != 1 or c.shape[0] != 2 ** len(t.included):
                raise ValueError(
                    f"pattern {t.label}: expected {2 ** len(t.included)} outcome counts, "
                    f"got shape {c.shape}"
                )
            if (c < 0).any():
                raise ValueError(f"pattern {t.label}: negative outcome count")
        for c in counts:
            c.setflags(write=False)
        object.__setattr__(self, "patterns", tuple(self.patterns))
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(sum(int(c.sum()) for c in self.counts))


def _stream(seed: int, replication: int, pattern_index: int) -> np.random.Generator:
    # Philox is counter-based; the spawn key names the (replication, pattern)
    # stream so parallel replications stay reproducible.
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replication, pattern_index))
    return np.random.Generator(np.random.Philox(ss))


def sample_outcomes(
    design: Design,
    p,
    model: DiseaseModel,
    seed: int,
    replication: int = 0,
) -> SurveyDataset:
    """Simulate one survey under the design's integer counts.

    Each participant's state is drawn from (p, 1 - sum(p)), then the
    outcome of the administered tests is drawn conditionally on the state;
    only the per-pattern outcome counts are retained.  Deterministic given
    (seed, replication).
    """
    p = validate_parameter(p, model.k)
    state_probs = np.append(p, max(1.0 - p.sum(), 0.0))  # p may sum to 1 + 1 ulp
    table = _pattern_tables(model)
    patterns, counts = [], []
    for index, (t, n) in enumerate(zip(design.patterns, design.integer_counts)):
        if n <= 0:
            continue
        rng = _stream(seed, replication, index)
        q = table.q[table.rows(t)]  # (n_y, k+1)
        states = rng.multinomial(int(n), state_probs)
        outcome_counts = np.zeros(q.shape[0], dtype=np.int64)
        for s, n_s in enumerate(states):
            if n_s > 0:
                outcome_counts += rng.multinomial(int(n_s), q[:, s])
        patterns.append(t)
        counts.append(outcome_counts)
    if not patterns:
        raise ValueError("design has no pattern with a positive integer count")
    return SurveyDataset(patterns=tuple(patterns), counts=tuple(counts), seed=seed)


def _dataset_tables(dataset: SurveyDataset, model: DiseaseModel):
    """Stack per-outcome rows across patterns: P(y | state) and the counts n_y."""
    table = _pattern_tables(model)
    q = np.vstack([table.q[table.rows(t)] for t in dataset.patterns])
    return q, np.concatenate(dataset.counts).astype(np.float64)


def log_likelihood(dataset: SurveyDataset, p, model: DiseaseModel) -> float:
    """Observed-data log-likelihood of the state probabilities p."""
    p = validate_parameter(p, model.k)
    q, weights = _dataset_tables(dataset, model)
    return float(weights @ np.log(q @ np.append(p, 1.0 - p.sum())))


def _project_feasible(q: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of q onto {p >= 0, sum(p) <= 1}."""
    x = np.maximum(q, 0.0)
    over = x.sum(axis=1) > 1.0
    if over.any():
        # the sum constraint is active: project those rows onto the unit simplex
        s = q[over]
        u = -np.sort(-s, axis=1)
        cumulative = np.cumsum(u, axis=1) - 1.0
        positive = u - cumulative / np.arange(1, s.shape[1] + 1) > 0
        rho = s.shape[1] - 1 - np.argmax(positive[:, ::-1], axis=1)
        theta = np.take_along_axis(cumulative, rho[:, None], axis=1) / (rho[:, None] + 1.0)
        x[over] = np.maximum(s - theta, 0.0)
    return x


def _face_newton(hess, g, free, ridge):
    """Newton ascent directions on the free faces of the simplex, one per row.

    Solves ``H d + nu 1 = g`` on the free coordinates with ``1'd = 0``;
    fixed coordinates get identity rows, so their ``d`` is 0.
    """
    rows, k1 = g.shape
    kkt = np.zeros((rows, k1 + 1, k1 + 1))
    kkt[:, :k1, :k1] = np.where(free[:, :, None] & free[:, None, :], hess, 0.0)
    diagonal = np.arange(k1)
    kkt[:, diagonal, diagonal] += np.where(free, ridge[:, None], 1.0)
    kkt[:, :k1, k1] = free
    kkt[:, k1, :k1] = free
    rhs = np.zeros((rows, k1 + 1, 1))
    rhs[:, :k1, 0] = np.where(free, g, 0.0)
    return np.where(free, np.linalg.solve(kkt, rhs)[:, :k1, 0], 0.0)


def _fit(q: np.ndarray, counts: np.ndarray, tol: float) -> np.ndarray:
    """Constrained MLEs of many datasets that share one outcome table.

    ``q`` is the stacked ``(n, k+1)`` table ``P(y | state)`` and ``counts``
    the ``(R, n)`` outcome counts; returns the ``(R, k)`` estimates.  Each
    row is a Newton ascent of the mean log-likelihood on the free face of
    the simplex ``pi = (p, 1 - sum(p))``, and leaves the batch once its
    unit-step projected gradient in ``p`` is at most ``tol``.
    """
    n, k1 = q.shape
    k = k1 - 1
    outer = (q[:, :, None] * q[:, None, :]).reshape(n, k1 * k1)
    out = np.empty((counts.shape[0], k))
    rows = np.arange(counts.shape[0])
    w = counts / counts.sum(axis=1, keepdims=True)
    pi = np.full((rows.size, k1), 1.0 / k1)
    for step in range(MLE_MAX_STEPS + 1):
        m = pi @ q.T
        wm = w / m
        g = wm @ q  # gradient in pi; pi'g = 1 up to rounding
        p = pi[:, :k]
        norm = np.linalg.norm(_project_feasible(p + g[:, :k] - g[:, k:]) - p, axis=1)
        done = norm <= tol
        out[rows] = p
        if done.all():
            return out
        if step == MLE_MAX_STEPS:
            break
        if done.any():
            keep = ~done
            rows, w, pi, m, wm, g = rows[keep], w[keep], pi[keep], m[keep], wm[keep], g[keep]

        # free coordinates: positive ones, and zeros whose gradient wants to
        # enter.  Centring g leaves d unchanged (1'd = 0) and keeps the small
        # step from being swamped by the solve's error on the multiplier.
        excess = g - (pi * g).sum(axis=1, keepdims=True)
        free = (pi > 0) | (excess > 0)
        hess = ((wm / m) @ outer).reshape(-1, k1, k1)
        ridge = 1e-13 * np.trace(hess, axis1=1, axis2=2)
        for _ in range(k1):
            d = _face_newton(hess, excess, free, ridge)
            leaving = free & (pi == 0) & (d < 0)
            if not leaving.any():
                break
            free &= ~leaving

        # ratio test to the boundary, then Armijo halving on the exact gain;
        # the boundary is taken only while the likelihood still rises there
        shrinking = d < 0
        ratio = np.where(shrinking, pi / np.where(shrinking, -d, 1.0), np.inf)
        t_max = ratio.min(axis=1)
        t = np.minimum(t_max, 1.0)
        slope = (excess * d).sum(axis=1)
        relative = (d @ q.T) / m
        for _ in range(60):
            step_rel = t[:, None] * relative
            gain = (w * np.log1p(step_rel)).sum(axis=1)
            rising = (w * relative / (1.0 + step_rel)).sum(axis=1) > 0
            accepted = (gain >= 1e-4 * t * slope) & ((t < t_max) | rising)
            if accepted.all():
                break
            t = np.where(accepted, t, 0.5 * t)
        else:
            break
        pi = pi + t[:, None] * d
        # a coordinate that blocks the step lands exactly on its face
        pi[(t == t_max)[:, None] & (ratio <= t_max[:, None])] = 0.0
        pi = np.maximum(pi, 0.0)
    worst = float(np.max(norm))
    raise ConvergenceError(
        f"MLE did not converge on {int(np.sum(~done))} of {out.shape[0]} datasets: "
        f"projected-gradient norm {worst:.3e} > {tol:g}",
        best=out,
    )


def mle(dataset: SurveyDataset, model: DiseaseModel, tol: float = MLE_TOL) -> np.ndarray:
    """Maximum-likelihood state probabilities over the feasible simplex.

    Newton's method on the active face of ``{p >= 0, sum(p) <= 1}``, with
    the exact Hessian of the mean log-likelihood, a ratio test to the
    boundary and Armijo halving, started from the equal-probability point.
    The log-likelihood is concave in p, so the first-order point found is
    the global maximum; it is returned once the unit-step projected
    gradient is at most ``tol``.  Otherwise ``ConvergenceError`` is raised
    after ``MLE_MAX_STEPS`` Newton steps, with ``best`` the ``(1, k)``
    last iterate.
    """
    if not dataset.patterns:
        raise ValueError("dataset is empty")
    q, weights = _dataset_tables(dataset, model)
    if weights.sum() <= 0:
        raise ValueError("dataset has no observations")
    return _fit(q, weights[None, :], tol)[0]


def simulate_estimates(
    p,
    model: DiseaseModel,
    design: Design,
    replications: int,
    seed: int,
) -> np.ndarray:
    """Estimate u'p once per replication; independent streams per replication.

    Every replication is sampled on its own streams, then all of them are
    fitted together in one batched Newton solve.
    """
    p = validate_parameter(p, model.k)
    if replications < 1:
        raise ValueError(f"need at least 1 replication, got {replications}")
    datasets = [sample_outcomes(design, p, model, seed, replication=r) for r in range(replications)]
    q, _ = _dataset_tables(datasets[0], model)
    counts = np.array([np.concatenate(d.counts) for d in datasets], dtype=np.float64)
    return _fit(q, counts, MLE_TOL) @ model.u


def _fsum_variance(values: np.ndarray) -> tuple[float, float]:
    """(mean, unbiased variance) via exactly-rounded sums, order-independent."""
    n = values.size
    mean = math.fsum(values) / n
    var = math.fsum((x - mean) ** 2 for x in values) / (n - 1)
    return mean, var


def variance_check(
    p,
    model: DiseaseModel,
    v_star,
    budget: float,
    replications: int = 200,
    seed: int = 0,
    patterns=None,
) -> tuple[float, float, float]:
    """Empirical versus predicted variance of the estimated target.

    Runs independent sample/fit cycles under the design implied by the
    fractions v_star at the given budget and returns
    ``(empirical_var, predicted_var, ratio)``.
    """
    report = simulation_report(
        p, model, v_star, budget, replications=replications, seed=seed, patterns=patterns
    )
    return (
        report["empirical_variance"],
        report["predicted_variance"],
        report["ratio"],
    )


def simulation_report(
    p,
    model: DiseaseModel,
    v_star,
    budget: float,
    replications: int = 200,
    seed: int = 0,
    patterns=None,
) -> dict:
    """Full Monte-Carlo verification report.

    Includes the empirical and predicted variance of u'p-hat, their ratio,
    the empirical bias, and a skewness/kurtosis normality p-value for the
    standardized estimates.  Needs at least ``MIN_REPLICATIONS``
    replications, which the normality test requires.
    """
    if replications < MIN_REPLICATIONS:
        raise ValueError(f"need at least {MIN_REPLICATIONS} replications, got {replications}")
    patterns = tuple(patterns) if patterns is not None else all_patterns(model)
    p = validate_parameter(p, model.k)
    design = Design(patterns=tuple(patterns), fractions=np.asarray(v_star, float), budget=budget)
    predicted = objective(design.fractions, p, model, patterns=patterns) / budget
    estimates = simulate_estimates(p, model, design, replications, seed)
    mean, empirical = _fsum_variance(estimates)
    truth = float(model.u @ p)
    return {
        "replications": replications,
        "seed": seed,
        "budget": budget,
        "true_value": truth,
        "mean_estimate": mean,
        "bias": mean - truth,
        "empirical_variance": empirical,
        "predicted_variance": predicted,
        "ratio": empirical / predicted,
        "normality_pvalue": jarque_bera_pvalue(estimates),
    }


def jarque_bera_pvalue(values: np.ndarray) -> float:
    """Normality p-value from sample skewness and excess kurtosis.

    The statistic n * (S^2/6 + (K-3)^2/24) is asymptotically chi-squared
    with 2 degrees of freedom, whose survival function is exp(-x/2).
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n < MIN_REPLICATIONS:
        raise ValueError(f"need at least {MIN_REPLICATIONS} values for a normality test, got {n}")
    centered = values - values.mean()
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        return 0.0
    skew = float(np.mean(centered**3)) / m2**1.5
    kurt = float(np.mean(centered**4)) / m2**2
    stat = n * (skew * skew / 6.0 + (kurt - 3.0) ** 2 / 24.0)
    return math.exp(-stat / 2.0)
