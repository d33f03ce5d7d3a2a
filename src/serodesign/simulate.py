"""Monte-Carlo verification of the predicted design variance.

Draws the outcome counts of surveys under a design, fits the constrained
maximum likelihood estimate of the state probabilities, and compares the
sample variance of the estimated target against the variance the design
solver predicted.

Sampling rule.  A pattern's n participants are independent, each in state
s with probability ``pi_s`` of ``pi = (p, 1 - sum(p))``, so the counts of
its outcomes are one ``Multinomial(n, P)`` draw over the mixture
probabilities ``P(y) = sum_s pi_s P(y | s)``, summed in state order with
elementwise numpy so that no draw depends on the BLAS.  Each (replication,
pattern) cell is drawn on its own counter-based stream: one Philox key per
seed, ``SeedSequence(seed).generate_state(2, np.uint64)``, and cell (r, i),
for replication r and the pattern's index i in the design, at counter
``(0, 0, r, i)``.  Philox increments counter word 0 and carries upward, so
a cell owns 2**128 blocks, and a replication must be numbered below 2**64.
A replication therefore draws the same counts alone or in a pass of many,
and runs are reproducible and order-independent.

The fits of all replications run as one batch: each starts at the
weighted least-squares estimate from its own outcome frequencies,
projected onto the simplex, then takes Newton steps on the active face of
the simplex, leaving the batch once its projected gradient is certified,
so a replication's estimate does not depend on the others.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .coptimal import ConvergenceError, Design, objective
from .model import (
    DiseaseModel,
    TestPattern,
    _pattern_tables,
    _read_only,
    _require_type,
    all_patterns,
    validate_parameter,
)

__all__ = [
    "SurveyDataset",
    "sample_outcomes",
    "mle",
    "log_likelihood",
    "simulate_estimates",
    "simulation_report",
    "jarque_bera_pvalue",
]

MLE_TOL = 1e-8  # unit-step projected-gradient norm at which a fit stops
MLE_MAX_STEPS = 100  # Newton steps of one batched fit
MIN_REPLICATIONS = 8  # the normality test needs 8 estimates


@dataclass(frozen=True, eq=False)
class SurveyDataset:
    """Sufficient statistics of one simulated survey.

    For every administered pattern, ``counts`` holds the number of
    participants per outcome, in the row order model._layout states.
    """

    patterns: tuple[TestPattern, ...]
    counts: tuple[np.ndarray, ...]
    seed: int

    def __post_init__(self):
        counts = tuple(np.asarray(c) for c in self.counts)
        if len(counts) != len(self.patterns):
            raise ValueError("need one count vector per pattern")
        for t, c in zip(self.patterns, counts):
            # whole numbers within int64: a cast would truncate 1.5, parse "3" or overflow
            whole = c.dtype.kind in "iu" or (c.dtype.kind == "f" and (np.floor(c) == c).all())
            if not whole or not ((c >= -(2**63)) & (c < 2**63)).all():
                raise ValueError(
                    f"pattern {t.label}: outcome counts must be integers that fit in int64, "
                    f"got {c.tolist()!r}"
                )
            if c.ndim != 1 or c.shape[0] != 2 ** sum(t.mask):
                raise ValueError(
                    f"pattern {t.label}: expected {2 ** sum(t.mask)} outcome counts, "
                    f"got shape {c.shape}"
                )
            if (c < 0).any():
                raise ValueError(f"pattern {t.label}: negative outcome count")
        object.__setattr__(self, "patterns", tuple(self.patterns))
        object.__setattr__(self, "counts", tuple(_read_only(c, np.int64) for c in counts))


def _sample(design: Design, p, model: DiseaseModel, seed: int, replications: range):
    """Outcome counts of many replications of one survey, in one pass: the
    patterns with participants, their stacked ``(n, k+1)`` table ``P(y | state)``
    and row ends (_PatternTable.stacked), and the ``(len(replications), n)`` int64
    counts, each cell drawn by the sampling rule of the module docstring."""
    if replications.stop > 2**64:  # counter word 2 holds the replication
        raise ValueError(
            f"replications must be numbered below 2**64, got replication {replications.stop - 1}"
        )
    p = validate_parameter(p, model.k)
    state_probs = np.append(p, max(1.0 - p.sum(), 0.0))
    if p.sum() > 1.0:  # a sum up to 1 + 1e-9 is valid; numpy's multinomial rejects it
        state_probs /= state_probs.sum()
    drawn = [(i, int(n)) for i, n in enumerate(design.integer_counts) if n > 0]
    if not drawn:
        raise ValueError(
            f"budget {design.budget:g} buys no participant: "
            "the design has no pattern with a positive integer count"
        )
    patterns = tuple(design.patterns[i] for i, _ in drawn)
    q, ends = _pattern_tables(model).stacked(patterns)
    outcome_probs = sum(pi * column for pi, column in zip(state_probs, q.T))  # in state order
    _require_count_matrix(replications.stop - replications.start, ends[-1])
    counts = np.empty((len(replications), ends[-1]), dtype=np.int64)
    bits = np.random.Philox(key=np.random.SeedSequence(seed).generate_state(2, np.uint64))
    rng, fresh = np.random.Generator(bits), bits.state
    counter = fresh["state"]["counter"]  # uint64, so every r below 2**64 is exact
    for r, row in zip(replications, counts):
        counter[2] = r
        for (i, n), start, stop in zip(drawn, [0, *ends], ends):
            counter[3] = i
            bits.state = fresh
            row[start:stop] = rng.multinomial(n, outcome_probs[start:stop])
    return patterns, q, ends, counts


def _require_count_matrix(replications: int, columns: int) -> None:
    """Refuse a pass whose ``(replications, columns)`` int64 count matrix is
    beyond the largest array numpy can allocate, before it is allocated."""
    most = sys.maxsize // (8 * columns)
    if replications > most:
        raise ValueError(
            f"replications must be at most {most} to hold {columns} outcome counts each "
            f"in one array, got {replications}"
        )


def _non_negative_int(name: str, value) -> int:
    """value as a Python int, or a ValueError naming the argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def sample_outcomes(
    design: Design,
    p,
    model: DiseaseModel,
    seed: int,
    replication: int = 0,
) -> SurveyDataset:
    """Simulate one survey under the design's integer counts: the outcome
    counts of each pattern with participants, drawn for replication
    ``replication`` by the sampling rule of the module docstring, so
    deterministic given (seed, replication).
    """
    seed = _non_negative_int("seed", seed)
    replication = _non_negative_int("replication", replication)
    patterns, _, ends, counts = _sample(design, p, model, seed, range(replication, replication + 1))
    return SurveyDataset(patterns=patterns, counts=tuple(np.split(counts[0], ends[:-1])), seed=seed)


def _dataset_tables(dataset: SurveyDataset, model: DiseaseModel):
    """Stack per-outcome rows across patterns: P(y | state), the row after
    each pattern's last, and the counts n_y."""
    q, ends = _pattern_tables(model).stacked(dataset.patterns)
    return q, ends, np.concatenate(dataset.counts).astype(np.float64)


def log_likelihood(dataset: SurveyDataset, p, model: DiseaseModel) -> float:
    """Observed-data log-likelihood of the state probabilities p."""
    p = validate_parameter(p, model.k)
    q, _, weights = _dataset_tables(dataset, model)
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


def _start(q: np.ndarray, counts: np.ndarray, ends) -> np.ndarray:
    """Feasible starting estimates: each row's weighted least-squares fit of
    the mixture probabilities ``q[:, k] + d p`` to its outcome frequencies
    ``n / N``, rows of pattern t weighted by ``sqrt(N_t)``, projected onto
    ``{p >= 0, sum(p) <= 1}``.  ``N_t``, the participants of pattern t, are
    read from the first row: the same in every row of one design, so one
    lstsq takes every row as a right-hand side.  A pattern without
    participants has weight 0."""
    k = q.shape[1] - 1
    participants = np.repeat(np.add.reduceat(counts[0], [0, *ends[:-1]]), np.diff([0, *ends]))
    weight = np.sqrt(participants)
    a = weight[:, None] * (q[:, :k] - q[:, k:])
    b = weight * (counts / np.maximum(participants, 1) - q[:, k])
    return _project_feasible(np.linalg.lstsq(a, b.T)[0].T)


def _fit(q: np.ndarray, counts: np.ndarray, ends) -> np.ndarray:
    """Constrained MLEs of many datasets that share one outcome table.

    ``q`` is the stacked ``(n, k+1)`` table ``P(y | state)``, ``ends`` the
    row after each pattern's last and ``counts`` the ``(R, n)`` outcome
    counts, whose per-pattern totals are the same in every row; returns the
    ``(R, k)`` estimates.  Each row starts at _start's estimate, is a Newton
    ascent of the mean log-likelihood on the free face of the simplex
    ``pi = (p, 1 - sum(p))``, and leaves the batch once its unit-step
    projected gradient in ``p`` is at most MLE_TOL.
    """
    n, k1 = q.shape
    k = k1 - 1
    outer = (q[:, :, None] * q[:, None, :]).reshape(n, k1 * k1)
    out = np.empty((counts.shape[0], k))
    rows = np.arange(counts.shape[0])
    w = counts / counts.sum(axis=1, keepdims=True)
    p = _start(q, counts, ends)
    # 1 - sum(p) rounds below 0 when the start lies on the face sum(p) = 1
    pi = np.maximum(np.hstack([p, 1.0 - p.sum(axis=1, keepdims=True)]), 0.0)
    for step in range(MLE_MAX_STEPS + 1):
        m = pi @ q.T
        wm = w / m
        g = wm @ q  # gradient in pi; pi'g = 1 up to rounding
        p = pi[:, :k]
        norm = np.linalg.norm(_project_feasible(p + g[:, :k] - g[:, k:]) - p, axis=1)
        done = norm <= MLE_TOL
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
        f"projected-gradient norm {worst:.3e} > {MLE_TOL:g}",
        best=out,
    )


def mle(dataset: SurveyDataset, model: DiseaseModel) -> np.ndarray:
    """Maximum-likelihood state probabilities over the feasible simplex.

    Newton's method on the active face of ``{p >= 0, sum(p) <= 1}``, with
    the exact Hessian of the mean log-likelihood, a ratio test to the
    boundary and Armijo halving, started from the weighted least-squares
    estimate of p from the outcome frequencies, projected onto the
    feasible set.
    The log-likelihood is concave in p, so the first-order point found is
    the global maximum; it is returned once the unit-step projected
    gradient is at most MLE_TOL.  Otherwise ``ConvergenceError`` is raised
    after ``MLE_MAX_STEPS`` Newton steps, with ``best`` the ``(1, k)``
    last iterate.
    """
    if not dataset.patterns:
        raise ValueError("dataset is empty")
    q, ends, weights = _dataset_tables(dataset, model)
    if weights.sum() <= 0:
        raise ValueError("dataset has no observations")
    return _fit(q, weights[None, :], ends)[0]


def simulate_estimates(
    p,
    model: DiseaseModel,
    design: Design,
    replications: int,
    seed: int,
) -> np.ndarray:
    """Estimate u'p once per replication; independent streams per replication.

    All replications are sampled in one pass, each on its own streams, then
    fitted together in one batched Newton solve.
    """
    seed = _non_negative_int("seed", seed)
    if _non_negative_int("replications", replications) < 1:
        raise ValueError(f"need at least 1 replication, got {replications}")
    _, q, ends, counts = _sample(design, p, model, seed, range(replications))
    return _fit(q, counts, ends) @ model.u


def _fsum_variance(values: np.ndarray) -> tuple[float, float]:
    """(mean, unbiased variance) via exactly-rounded sums, order-independent."""
    n = values.size
    mean = math.fsum(values) / n
    var = math.fsum((x - mean) ** 2 for x in values) / (n - 1)
    return mean, var


def simulation_report(
    p,
    model: DiseaseModel,
    v_star,
    budget: float,
    replications: int = 200,
    seed: int = 0,
) -> dict:
    """Full Monte-Carlo verification report.

    Includes the empirical and predicted variance of u'p-hat, their ratio,
    the empirical bias, and a skewness/kurtosis normality p-value for the
    standardized estimates.  Needs at least ``MIN_REPLICATIONS``
    replications, which the normality test requires, and a design that
    identifies p, whose predicted variance is finite.
    """
    if _non_negative_int("replications", replications) < MIN_REPLICATIONS:
        raise ValueError(f"need at least {MIN_REPLICATIONS} replications, got {replications}")
    _require_type(model, DiseaseModel, "model")
    p = validate_parameter(p, model.k)
    design = Design(patterns=all_patterns(model), fractions=np.asarray(v_star, float), budget=budget)
    criterion = objective(design.fractions, p, model)
    if criterion == math.inf:
        raise ValueError("blended information matrix is singular; predicted variance undefined")
    predicted = criterion / budget
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
