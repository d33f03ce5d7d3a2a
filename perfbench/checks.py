"""Checks of every report the benchmark receives, against the oracle.

``prepare`` computes, once per generated request, the oracle data its
check needs (outcome tables, information matrices at the point or over
the box grid, reference optima).  Each ``check_*`` raises
``oracle.CheckFailed`` when a report breaks a property the method must
have: design optimality, the budget inversion, the square-root
allocation law, the saddle condition of a worst-case design, the
Monte-Carlo agreement bands, or first-order optimality of a fit.
"""

from __future__ import annotations

import math

import numpy as np

import oracle
from oracle import close, require

# Saddle certification threshold of a worst-case report: the grid may not
# hold a parameter at which the design does worse by more than this share.
SADDLE_TOL = 1e-3
# Two-sided false-alarm probability of each Monte-Carlo band; small enough
# that thousands of checked reports raise no false alarm.
MC_TAIL = 1e-6
# First-order tolerance of a likelihood fit (the package stops at 1e-8).
MLE_TOL = 1e-6

# Published figures: table1 row1 counts, table1 row4 worst-case parameter.
ROW1_COUNTS = {"001": 521, "101": 13125}
ROW1_COUNT_SLACK = 2
ROW4_P_STAR = (0.06, 0.45, 0.0)
ROW4_P_STAR_SLACK = 0.02


def box_grid(box: dict, step: float) -> np.ndarray:
    """Feasible grid of a box: each axis from lower to upper in increments of
    step, the upper face always included, points with sum(p) > 1 dropped."""
    axes = []
    for lo, hi in zip(box["lower"], box["upper"]):
        n = int(math.floor((hi - lo) / step + 0.5)) + 1
        vals = [lo + i * step for i in range(n)]
        if vals[-1] < hi - 1e-12:
            vals.append(hi)
        vals[-1] = min(vals[-1], hi)
        axes.append(vals)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return pts[pts.sum(axis=1) <= 1.0 + 1e-12]


# ---------------------------------------------------------------------------
# Preparation: oracle data per request
# ---------------------------------------------------------------------------


def _point_ctx(model_doc: dict, point, overrides=None) -> dict:
    om = oracle.Model(model_doc, overrides)
    p = np.array(point, dtype=np.float64)
    return {"om": om, "p": p, "infos": om.infos(p)}


def _box_ctx(model_doc: dict, box: dict, step: float) -> dict:
    om = oracle.Model(model_doc)
    pts = box_grid(box, step)
    return {"om": om, "pts": pts, "grid_infos": om.infos_grid(pts), "step": step}


def prepare(req) -> None:
    doc = req.doc
    model = doc["model"]
    scenario = doc["scenario"]
    step = doc.get("options", {}).get("grid_step", 0.01)
    if "point" in scenario:
        req.ctx.update(_point_ctx(model, scenario["point"]))
        if req.kind in ("simulate", "mle"):
            v, upper, lower, _ = oracle.solve(req.ctx["infos"], req.ctx["om"].u)
            req.ctx.update(v=v, bracket=(lower, upper))
    elif "box" in scenario:
        req.ctx.update(_box_ctx(model, scenario["box"], step))
    else:
        entries = scenario.get("strata") or scenario.get("groups")
        req.ctx["entries"] = [
            _box_ctx(model, e["box"], step) if "box" in e
            else _point_ctx(model, e["point"], e.get("overrides"))
            for e in entries
        ]


# ---------------------------------------------------------------------------
# Designs
# ---------------------------------------------------------------------------


def fractions_of(design: dict, om: oracle.Model) -> np.ndarray:
    require(list(design["fractions"]) == om.labels, "design does not list every pattern in order")
    return np.array([design["fractions"][label] for label in om.labels], dtype=np.float64)


def check_design_figures(design: dict, om: oracle.Model, budget: float) -> np.ndarray:
    """Counts, integer counts and costs of a design dict agree with its fractions."""
    v = fractions_of(design, om)
    require(close(design["budget"], budget), "design budget differs from the request's")
    counts = v * budget / om.costs
    ints = np.array([design["integer_counts"][label] for label in om.labels])
    for label, cost, w, w_int in zip(om.labels, om.costs, counts, ints):
        require(close(design["pattern_costs"][label], cost), f"pattern {label} cost is wrong")
        require(close(design["counts"][label], w, abs_=1e-9), f"pattern {label} count is not v*C/c")
        require(abs(w_int - w) < 1.0, f"pattern {label} integer count {w_int} is not within one of {w}")
    require(close(design["realized_cost"], float(ints @ om.costs)), "realized cost is not the integer spend")
    return v


def check_solve(report: dict, ctx: dict, budget: float) -> float:
    """A c-optimal solve report: figures consistent, design optimal at p."""
    v = check_design_figures(report["design"], ctx["om"], budget)
    value = report["objective"]
    oracle.certify_design(v, ctx["infos"], ctx["om"].u, value)
    require(close(report["min_variance"], value / budget), "min_variance is not objective / budget")
    require(close(report["mu_star"], value), "mu_star differs from the objective")
    return value


def check_saddle(report: dict, ctx: dict, budget: float) -> float:
    """A worst-case report: p* on the grid, game value and gap recomputed, and
    the design's worst case over the grid within 2 SADDLE_TOL of a certified
    lower bound on the minimax value (the best response's value at p*)."""
    om, pts, grid_infos = ctx["om"], ctx["pts"], ctx["grid_infos"]
    v = check_design_figures(report["design"], om, budget)
    p_star = np.array(report["p_star"])
    hits = np.flatnonzero(np.abs(pts - p_star).max(axis=1) <= 1e-9)
    require(hits.size == 1, f"p* {report['p_star']} is not a grid point")
    i = int(hits[0])
    blends = np.einsum("t,tmij->mij", v, grid_infos)
    values = np.linalg.solve(blends, np.broadcast_to(om.u, (len(pts), om.k))[..., None])[..., 0] @ om.u
    value = report["game_value"]
    require(close(values[i], value, rel=1e-8), f"game value {value!r} != a(v*; p*) = {values[i]!r}")
    gap = float(values.max() - values[i])
    require(close(report["saddle_gap"], gap, rel=1e-6, abs_=1e-9 * value), "saddle gap differs from the grid's")
    require(gap <= SADDLE_TOL * value, f"design does worse off p*: gap {gap / value:.3e} relative")
    _, _, lower, _ = oracle.solve(grid_infos[:, i], om.u)
    duality = float(values.max()) / lower - 1.0
    require(duality <= 2 * SADDLE_TOL, f"design is {duality:.3e} above the minimax lower bound")
    require(close(report["min_variance"], value / budget), "min_variance is not game_value / budget")
    require(close(report["grid_step"], ctx["step"]), "grid step differs from the request's")
    return value


# ---------------------------------------------------------------------------
# Per request kind
# ---------------------------------------------------------------------------


def check_c_optimal(req, report: dict) -> None:
    budget = req.doc["budget"]
    require(report["parameter"] == list(req.doc["scenario"]["point"]), "parameter echo differs")
    check_solve(report, req.ctx, budget)
    if req.reference == "row1":
        for label, published in ROW1_COUNTS.items():
            got = report["design"]["integer_counts"][label]
            require(abs(got - published) <= ROW1_COUNT_SLACK, f"row1 count {label} = {got}, paper {published}")


def check_budget(req, report: dict) -> None:
    moe = float(req.flags[req.flags.index("--moe") + 1])
    alpha = float(req.flags[req.flags.index("--alpha") + 1])
    z = oracle.normal_z(alpha)
    require(close(report["z"], z, rel=1e-12), f"z {report['z']!r} != {z!r}")
    required = report["required_budget"]
    value = check_solve(report, req.ctx, required)
    require(close(required, z * z * value / (moe * moe), rel=1e-8), "required budget is not z^2 a / moe^2")
    require(close(z * math.sqrt(value / required), moe, rel=1e-8), "design misses the margin of error")


def check_allocation(req, report: dict) -> None:
    budget = req.doc["budget"]
    scenario = req.doc["scenario"]
    specs = scenario.get("strata") or scenario.get("groups")
    entries = report["allocations"]
    require([e["name"] for e in entries] == [s["name"] for s in specs], "allocation entries differ")
    values = []
    for spec, entry, ctx in zip(specs, entries, req.ctx["entries"]):
        if "box" in spec:
            value = check_saddle(entry["report"], ctx, entry["budget"])
        else:
            value = check_solve(entry["report"], ctx, entry["budget"])
        require(close(entry["criterion_value"], value), f"{spec['name']}: criterion value differs")
        values.append(value)
    n = np.array([s["fraction"] for s in specs])
    weights = n * np.sqrt(values)
    budgets = np.array([e["budget"] for e in entries])
    require(np.allclose(budgets, budget * weights / weights.sum(), rtol=1e-9, atol=0), "split is not n*sqrt(a)")
    for e, b in zip(entries, budgets):
        require(close(e["budget_share"], b / budget), "budget share is not budget / total")
    total = float(np.sum(n * n * np.array(values) / budgets))
    require(close(report["total_variance"], total), "total variance is not sum n^2 a / C")


def check_worst_case(req, report: dict) -> None:
    require(report["box"] == req.doc["scenario"]["box"], "box echo differs")
    check_saddle(report, req.ctx, req.doc["budget"])
    if req.reference == "row4":
        off = np.abs(np.array(report["p_star"]) - ROW4_P_STAR).max()
        require(off <= ROW4_P_STAR_SLACK + 1e-12, f"row4 p* {report['p_star']} is {off:.3f} from the paper's")


def _check_witness(a1: dict, ctx: dict) -> None:
    om, p = ctx["om"], ctx["p"]
    require(a1["ok"] is True and a1["witness"] in om.labels, "identifiable point reported as not")
    lams = [np.linalg.eigvalsh(ctx["infos"][t] * om.costs[t])[0] for t in range(len(om.labels))]
    w = om.labels.index(a1["witness"])
    require(lams[w] > 1e-10, f"witness {a1['witness']} has singular information")
    require(all(lam <= 1e-8 for lam in lams[:w]), "an earlier pattern is already a witness")


def check_assumptions(req, report: dict) -> None:
    if "point" in req.doc["scenario"]:
        _check_witness(report["a1"], req.ctx)
        return
    for check, ctx in zip(report["checks"], req.ctx["entries"]):
        _check_witness(check["a1"], ctx)


def check_simulate(req, report: dict) -> None:
    doc, ctx = req.doc, req.ctx
    reps, budget = doc["options"]["replications"], doc["budget"]
    require(report["replications"] == reps and report["seed"] == doc["options"]["seed"], "echo differs")
    truth = float(ctx["om"].u @ ctx["p"])
    require(close(report["true_value"], truth, rel=1e-12), "true value is not u'p")
    predicted = report["predicted_variance"]
    lower, upper = ctx["bracket"]
    require(lower * (1 - 1e-9) <= predicted * budget <= upper * (1 + 1e-9),
            f"predicted variance {predicted!r} is outside the optimal bracket")
    empirical = report["empirical_variance"]
    require(close(report["ratio"], empirical / predicted), "ratio is not empirical / predicted")
    require(close(report["bias"], report["mean_estimate"] - truth, abs_=1e-15), "bias is not mean - truth")
    lo, hi = oracle.chi2_band(reps - 1, MC_TAIL / 2)
    require(lo <= report["ratio"] <= hi, f"variance ratio {report['ratio']:.3f} outside [{lo:.3f}, {hi:.3f}]")
    z = oracle.normal_z(MC_TAIL)
    require(abs(report["bias"]) <= z * math.sqrt(predicted / reps), f"bias {report['bias']:.3e} outside its band")
    require(0.0 <= report["normality_pvalue"] <= 1.0, "normality p-value is not a probability")


def check_mle(req, output) -> None:
    """output: (integer counts by label, outcome counts by label, fitted p)."""
    integer_counts, outcome_counts, p_hat = output
    om = req.ctx["om"]
    relaxed = req.ctx["v"] * req.doc["budget"] / om.costs
    for label, w in zip(om.labels, relaxed):
        require(abs(integer_counts[label] - w) < 1.0, f"integer count of {label} not within one of {w}")
    for label, counts in outcome_counts.items():
        require(int(np.sum(counts)) == integer_counts[label], f"pattern {label} sampled the wrong total")
    p_hat = np.asarray(p_hat, dtype=np.float64)
    require(np.all(p_hat >= 0.0) and p_hat.sum() <= 1.0 + 1e-12, "fit is not a distribution")
    norm = oracle.mle_stationarity(om, outcome_counts, p_hat)
    require(norm <= MLE_TOL, f"fit is not stationary: projected gradient {norm:.3e}")


CHECKS = {
    "c-optimal": check_c_optimal,
    "budget": check_budget,
    "groups": check_allocation,
    "strata": check_allocation,
    "worst-case": check_worst_case,
    "check-assumptions": check_assumptions,
    "simulate": check_simulate,
    "mle": check_mle,
}
