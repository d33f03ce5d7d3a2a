"""Independent reference numerics for checking serodesign's reports.

Nothing here imports serodesign.  A model is the plain configuration
dict the CLI reads (``{"tests": [...], "nominal": [[...]], "u": [...]}``);
outcome distributions are enumerated directly from the test channels, and
every check states a property the optimal design problem must have
(Elfving duality, the equivalence theorem, the square-root allocation
law, the saddle condition) rather than comparing against saved output.
"""

from __future__ import annotations

import itertools
import math
from statistics import NormalDist

import numpy as np

# Relative tolerance for an equivalence-theorem certificate.  The solver
# stops at a relative Frank-Wolfe gap of 1e-9 and accepts a relative
# first-order residual of 1e-6, so 1e-5 leaves room for round-off only.
DESIGN_TOL = 1e-5
# Fractions at or below this are off the support.
SUPPORT_EPS = 1e-7
# Tolerance for recomputed closed-form quantities (sums, scalings).
EXACT_TOL = 1e-9


class CheckFailed(AssertionError):
    """A report violates a property the method must have."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float = EXACT_TOL, abs_: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


# ---------------------------------------------------------------------------
# Model tables by enumeration
# ---------------------------------------------------------------------------


class Model:
    """Outcome tables of a model config, enumerated from the test channels."""

    def __init__(self, doc: dict, overrides: dict | None = None):
        tests = [dict(t) for t in doc["tests"]]
        for t in tests:
            t.update((overrides or {}).get(t["id"], {}))
        self.tests = tests
        self.nominal = np.array(doc["nominal"], dtype=np.int64)
        self.k = self.nominal.shape[0] - 1
        self.n_tests = len(tests)
        u = doc.get("u")
        self.u = np.ones(self.k) if u is None else np.array(u, dtype=np.float64)
        masks = [m for m in itertools.product((0, 1), repeat=self.n_tests) if any(m)]
        self.labels = ["".join(map(str, m)) for m in masks]
        self.costs = np.array(
            [sum(t["cost"] for t, b in zip(tests, m) if b) for m in masks], dtype=np.float64
        )
        self.q = [self._outcome_probs(m) for m in masks]  # (n_y, k+1) per pattern

    def _outcome_probs(self, mask) -> np.ndarray:
        """Q[y, s] = P(outcome y | state s), outcomes in lexicographic order.

        Each conducted test reads its nominal value with probability
        sensitivity (nominal 1) or specificity (nominal 0), independently.
        """
        conducted = [j for j, b in enumerate(mask) if b]
        outcomes = np.array(list(itertools.product((0, 1), repeat=len(conducted))))  # (n_y, m)
        nominal = self.nominal[:, conducted]  # (k+1, m)
        sens = np.array([self.tests[j]["sensitivity"] for j in conducted])
        spec = np.array([self.tests[j]["specificity"] for j in conducted])
        right = np.where(nominal == 1, sens, spec)  # P(read nominal value | state)
        agree = outcomes[:, None, :] == nominal[None, :, :]
        return np.where(agree, right, 1.0 - right).prod(axis=2)

    def infos(self, p) -> np.ndarray:
        """Cost-relativized Fisher information of every pattern at p, (T, k, k)."""
        p = np.asarray(p, dtype=np.float64)
        out = np.empty((len(self.q), self.k, self.k))
        for i, q in enumerate(self.q):
            d = q[:, : self.k] - q[:, self.k :]
            mix = q[:, self.k] + d @ p
            out[i] = (d.T / mix) @ d / self.costs[i]
        return out

    def infos_grid(self, pts: np.ndarray) -> np.ndarray:
        """Cost-relativized information at many points, (T, m, k, k)."""
        out = np.empty((len(self.q), pts.shape[0], self.k, self.k))
        for i, q in enumerate(self.q):
            d = q[:, : self.k] - q[:, self.k :]
            mix = q[None, :, self.k] + pts @ d.T  # (m, n_y)
            out[i] = np.einsum("my,yi,yj->mij", 1.0 / mix, d, d) / self.costs[i]
        return out


# ---------------------------------------------------------------------------
# The variance criterion and its certificates
# ---------------------------------------------------------------------------


def criterion(v: np.ndarray, infos: np.ndarray, u: np.ndarray) -> float:
    """u' A(v)^- u for u in range(A(v)); +inf when u is not estimable."""
    a = np.einsum("t,tij->ij", v, infos)
    x = np.linalg.pinv(a, rcond=1e-12, hermitian=True) @ u
    if np.linalg.norm(a @ x - u) > 1e-7 * np.linalg.norm(u):
        return math.inf
    return float(u @ x)


def lower_bound(x: np.ndarray, infos: np.ndarray, u: np.ndarray) -> float:
    """Elfving dual bound: every design has u'A^-u >= (u'x)^2 / max_t x'M_t x."""
    g = np.einsum("tij,i,j->t", infos, x, x)
    return float((u @ x) ** 2 / g.max())


def certify_design(v: np.ndarray, infos: np.ndarray, u: np.ndarray, value: float, tol: float = DESIGN_TOL):
    """Check that fractions v are optimal and that ``value`` is their criterion.

    A nonsingular design must satisfy the equivalence theorem: every
    pattern's sensitivity x'M_t x (x = A^{-1}u) is at most mu = u'x, with
    equality on the support.  A singular design is accepted when u lies in
    the range of A and mu is within ``tol`` of the Elfving lower bound.
    Returns mu.
    """
    require(np.all(v >= -1e-12) and abs(v.sum() - 1.0) <= 1e-9, "fractions are not a distribution")
    mu = criterion(v, infos, u)
    require(math.isfinite(mu), "u is not in the range of the design's information")
    require(close(mu, value, rel=1e-7), f"criterion {value!r} != recomputed {mu!r}")
    a = np.einsum("t,tij->ij", v, infos)
    lam = np.linalg.eigvalsh(a)
    if lam[0] > 1e-10 * lam[-1]:
        x = np.linalg.solve(a, u)
        g = np.einsum("tij,i,j->t", infos, x, x)
        require(g.max() <= mu * (1.0 + tol), f"a pattern beats the support: {g.max() / mu - 1:.3e} rel")
        on = v > SUPPORT_EPS
        require(np.abs(g[on] - mu).max() <= tol * mu, "support patterns are not balanced")
    else:
        best = 0.0
        for x in dual_candidates(v, infos, u):
            best = max(best, lower_bound(x, infos, u))
        require(mu <= best * (1.0 + tol), f"singular design is {mu / best - 1:.3e} above its dual bound")
    return mu


def dual_candidates(v, infos, u):
    """Dual vectors for the Elfving bound of a (possibly singular) design."""
    a = np.einsum("t,tij->ij", v, infos)
    yield np.linalg.pinv(a, rcond=1e-12, hermitian=True) @ u
    mean = infos.mean(axis=0)
    for eps in (1e-3, 1e-5, 1e-7):
        yield np.linalg.solve(a + eps * mean, u)


def _segment_min(a: np.ndarray, d: np.ndarray, u: np.ndarray, s_max: float) -> float:
    """argmin over s in [0, s_max] of u'(a + s d)^{-1} u, a positive definite.

    In the metric of a the criterion is sum_i c_i / (1 + s lam_i), convex
    in s, so a safeguarded Newton iteration on its slope finds the minimizer.
    """
    chol = np.linalg.cholesky(a)
    w = np.linalg.solve(chol, np.linalg.solve(chol, d).T)
    lam, q = np.linalg.eigh((w + w.T) / 2.0)
    c = ((q.T @ np.linalg.solve(chol, u)) ** 2).tolist()
    lam = lam.tolist()
    hi = s_max
    for l in lam:
        if l < 0.0:
            hi = min(hi, -0.999999 / l)

    def slope(s):
        return -sum(ci * li / (1.0 + s * li) ** 2 for ci, li in zip(c, lam))

    def curvature(s):
        return 2.0 * sum(ci * li * li / (1.0 + s * li) ** 3 for ci, li in zip(c, lam))

    if slope(0.0) >= 0.0:
        return 0.0
    if slope(hi) <= 0.0:
        return hi
    # safeguarded Newton on the slope, inside a shrinking bracket
    lo, s = 0.0, 0.5 * hi
    for _ in range(100):
        d1 = slope(s)
        if d1 < 0.0:
            lo = s
        else:
            hi = s
        nxt = s - d1 / curvature(s)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - s) <= 1e-13 * s or hi - lo <= 1e-13 * hi:
            return nxt
        s = nxt
    return s


def solve(infos: np.ndarray, u: np.ndarray, gap: float = 1e-9, max_iter: int = 2000):
    """Reference c-optimal solve: away-step Frank-Wolfe with exact line search.

    Returns (v, upper, lower, iterations): the fractions, their criterion
    value, the best Elfving lower bound seen, and the iterations used.  The
    package's solver is not consulted; this brackets optimal values the
    reports do not expose and screens generated models.
    """
    n = infos.shape[0]
    v = np.full(n, 1.0 / n)
    lower = 0.0
    for it in range(1, max_iter + 1):
        a = np.einsum("t,tij->ij", v, infos)
        x = np.linalg.solve(a, u)
        mu = float(u @ x)
        g = np.einsum("tij,i,j->t", infos, x, x)
        lower = max(lower, mu * mu / float(g.max()))
        if mu - lower <= gap * mu:
            break
        toward = int(np.argmax(g))
        support = np.flatnonzero(v > 0.0)
        away = int(support[np.argmin(g[support])])
        fw_gain = float(g[toward] - mu)
        away_gain = float(mu - g[away])
        if fw_gain >= away_gain:
            d, s_max, step = infos[toward] - a, 1.0, ("fw", toward)
        else:
            frac = float(v[away])
            s_max = frac / (1.0 - frac) if frac < 1.0 else 0.0
            d, step = a - infos[away], ("away", away)
        s = _segment_min(a, d, u, s_max)
        if s <= 0.0:
            break
        if step[0] == "fw":
            v = (1.0 - s) * v
            v[toward] += s
        else:
            v = (1.0 + s) * v
            v[away] -= s
            if s >= s_max * (1.0 - 1e-12):
                v[away] = 0.0
        v = np.maximum(v, 0.0)
        v /= v.sum()
    return v, mu, lower, it


# ---------------------------------------------------------------------------
# Monte-Carlo and likelihood
# ---------------------------------------------------------------------------


def normal_z(alpha: float) -> float:
    """Two-sided standard-normal critical value at level alpha."""
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def chi2_band(dof: int, tail: float) -> tuple[float, float]:
    """Central (1 - 2 tail) interval of chi-square(dof)/dof, Wilson-Hilferty."""
    z = NormalDist().inv_cdf(1.0 - tail)
    c = 2.0 / (9.0 * dof)
    lo = (1.0 - c - z * math.sqrt(c)) ** 3
    hi = (1.0 - c + z * math.sqrt(c)) ** 3
    return max(lo, 0.0), hi


def project_feasible(q: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {p >= 0, sum(p) <= 1} by bisection on the multiplier."""
    x = np.maximum(q, 0.0)
    if x.sum() <= 1.0:
        return x
    lo, hi = 0.0, float(q.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(q - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(q - hi, 0.0)


def mle_stationarity(model: Model, counts_by_label: dict, p_hat: np.ndarray) -> float:
    """Unit-step projected-gradient norm of the mean log-likelihood at p_hat."""
    grad = np.zeros(model.k)
    total = 0.0
    for label, counts in counts_by_label.items():
        q = model.q[model.labels.index(label)]
        d = q[:, : model.k] - q[:, model.k :]
        mix = q[:, model.k] + d @ p_hat
        counts = np.asarray(counts, dtype=np.float64)
        grad += d.T @ (counts / mix)
        total += counts.sum()
    grad /= total
    return float(np.linalg.norm(project_feasible(p_hat + grad) - p_hat))
