"""Shared oracles and randomized property suites.

These are deliberately independent of the implementation paths they
check: finite differences instead of the closed-form information matrix,
scalar golden-section search instead of the simplex solver, and direct
convex-combination evaluations for the curvature properties.
"""

import numpy as np

from serodesign import all_patterns, objective

from _outcomes import mixture_prob, outcome_space


def random_interior_points(rng, n, k=3, low=0.02, high=0.35, total=0.9):
    """Parameters strictly inside the feasible region, away from the faces."""
    points = []
    while len(points) < n:
        p = rng.uniform(low, high, size=k)
        if p.sum() <= total:
            points.append(p)
    return points


def random_pd_fractions(rng, n_patterns, full_index, floor=0.2):
    """Random simplex point with enough mass on the full pattern to stay PD."""
    v = rng.dirichlet(np.ones(n_patterns))
    v = (1.0 - floor) * v
    v[full_index] += floor
    return v


def finite_difference_fisher(t, p, model, step=1e-4):
    """Negative expected log-likelihood Hessian by central differences.

    The expectation weights are held at p while the log-mixture is
    differenced, which is exactly the information matrix without using its
    closed form.
    """
    outcomes = outcome_space(t)
    weights = np.array([mixture_prob(y, t, p, model) for y in outcomes])

    def expected_loglik(q):
        return sum(
            w * np.log(mixture_prob(y, t, q, model)) for w, y in zip(weights, outcomes)
        )

    k = model.k
    hess = np.zeros((k, k))
    eye = np.eye(k)
    base = expected_loglik(p)
    for i in range(k):
        hess[i, i] = (
            expected_loglik(p + step * eye[i])
            - 2.0 * base
            + expected_loglik(p - step * eye[i])
        ) / step**2
        for j in range(i + 1, k):
            hess[i, j] = hess[j, i] = (
                expected_loglik(p + step * (eye[i] + eye[j]))
                - expected_loglik(p + step * (eye[i] - eye[j]))
                - expected_loglik(p - step * (eye[i] - eye[j]))
                + expected_loglik(p - step * (eye[i] + eye[j]))
            ) / (4.0 * step**2)
    return -hess


def golden_section_two_pattern(model, p, pair, tol=1e-10):
    """Scalar minimization of the criterion by golden section along the edge
    of the simplex between the patterns with the two masks in ``pair``;
    returns the fraction on the first."""
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    masks = [t.mask for t in all_patterns(model)]
    first, second = np.eye(len(masks))[[masks.index(mask) for mask in pair]]

    def f(x):
        return objective(x * first + (1.0 - x) * second, p, model)

    lo, hi = 0.0, 1.0
    a = hi - ratio * (hi - lo)
    b = lo + ratio * (hi - lo)
    fa, fb = f(a), f(b)
    while hi - lo > tol:
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - ratio * (hi - lo)
            fa = f(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + ratio * (hi - lo)
            fb = f(b)
    return 0.5 * (lo + hi)


def worst_convexity_slack(model, p, n_trials=500, seed=1234):
    """Largest violation of convexity in v over random convex combinations.

    Nonpositive (up to roundoff) certifies a(., p) convex on the sampled
    region; the full pattern keeps every blend positive definite.
    """
    patterns = all_patterns(model)
    full = max(range(len(patterns)), key=lambda i: sum(patterns[i].mask))
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n_trials):
        va = random_pd_fractions(rng, len(patterns), full)
        vb = random_pd_fractions(rng, len(patterns), full)
        lam = rng.uniform(0.05, 0.95)
        mixed = objective(lam * va + (1.0 - lam) * vb, p, model)
        chord = lam * objective(va, p, model) + (1.0 - lam) * objective(vb, p, model)
        worst = max(worst, mixed - chord)
    return worst


def worst_concavity_slack(model, n_trials=500, seed=4321):
    """Largest violation of concavity in p over random convex combinations."""
    patterns = all_patterns(model)
    full = max(range(len(patterns)), key=lambda i: sum(patterns[i].mask))
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n_trials):
        v = random_pd_fractions(rng, len(patterns), full)
        p1, p2 = random_interior_points(rng, 2)
        lam = rng.uniform(0.05, 0.95)
        value_mixed = objective(v, lam * p1 + (1.0 - lam) * p2, model)
        chord = lam * objective(v, p1, model) + (1.0 - lam) * objective(v, p2, model)
        worst = max(worst, chord - value_mixed)
    return worst
