"""Tests of the benchmark itself: its inputs, its checks and its tracer.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

sd, cli = run.import_program()

import checks  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckFailed  # noqa: E402


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """One generated round per workload, configuration files written."""
    out = {}
    for w in workloads.WORKLOADS:
        reqs = workloads.generate(w, 7)
        workloads.write_configs(reqs, str(tmp_path_factory.mktemp(w)))
        out[w] = reqs
    return out


def first(reqs, kind, **where):
    for req in reqs:
        if req.kind == kind and not req.expect_fail and all(getattr(req, k) == v for k, v in where.items()):
            return req
    raise LookupError(kind)


def answer(req):
    output, _, error = run.execute(sd, cli, req)
    assert error is None, error
    req.check(output)  # the program's own answer passes
    return output


def rejects(req, output) -> bool:
    try:
        req.check(output)
    except CheckFailed:
        return True
    return False


def reprice(design: dict, fractions: dict) -> dict:
    """A design dict with new fractions and every derived figure consistent,
    so that only the optimality checks can tell it apart."""
    design = copy.deepcopy(design)
    design["fractions"] = fractions
    total = 0.0
    for label, v in fractions.items():
        count = v * design["budget"] / design["pattern_costs"][label]
        design["counts"][label] = count
        design["integer_counts"][label] = int(round(count))
        total += design["integer_counts"][label] * design["pattern_costs"][label]
    design["realized_cost"] = total
    return design


def shift_mass(fractions: dict, share: float = 0.01) -> dict:
    """Move a share of the largest fraction onto the smallest pattern."""
    labels = sorted(fractions, key=fractions.get)
    out = dict(fractions)
    out[labels[-1]] -= share
    out[labels[0]] += share
    return out


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    def inputs(seed):
        return [json.dumps([r.kind, r.doc, r.flags, r.expect_fail], sort_keys=True)
                for r in workloads.generate(workload, seed)]

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round_make_up_does_not_depend_on_seed(workload):
    def make_up(seed):
        reqs = workloads.generate(workload, seed)
        return sorted((r.kind, r.expect_fail, len(r.doc["model"]["tests"])) for r in reqs)

    assert make_up(1) == make_up(2) == make_up(99)
    failing = [r for r in workloads.generate(workload, 5) if r.expect_fail]
    assert len(failing) == (1 if workload == "local-designs" else 0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_models_are_identifiable(workload):
    for seed in (1, 2):
        for req in workloads.generate(workload, seed):
            scenario = req.doc["scenario"]
            entries = scenario.get("strata") or scenario.get("groups") or [scenario]
            for entry in entries:
                if "box" in entry:
                    points = checks.box_grid(entry["box"], req.doc["options"]["grid_step"])[[0, -1]]
                else:
                    points = [entry["point"]]
                for p in points:
                    assert workloads.identifiable(req.doc["model"], p, entry.get("overrides"))


def test_box_grid_matches_the_program():
    for req in workloads.generate("worst-case", 3):
        box = req.doc["scenario"].get("box")
        if box:
            step = req.doc["options"]["grid_step"]
            ours = checks.box_grid(box, step)
            theirs = sd.ParameterBox(lower=box["lower"], upper=box["upper"]).grid(step)
            assert ours.shape == theirs.shape and np.allclose(ours, theirs, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Checks reject wrong answers
# ---------------------------------------------------------------------------


def test_c_optimal_check_rejects_perturbed_fractions_and_scaled_variance(rounds):
    req = first(rounds["local-designs"], "c-optimal", reference=None)
    out = answer(req)
    bad = copy.deepcopy(out)
    bad["design"] = reprice(out["design"], shift_mass(out["design"]["fractions"]))
    assert rejects(req, bad)
    bad = copy.deepcopy(out)
    for key in ("objective", "mu_star", "min_variance"):
        bad[key] *= 1.01
    assert rejects(req, bad)
    bad = copy.deepcopy(out)
    label = max(bad["design"]["counts"], key=bad["design"]["counts"].get)
    bad["design"]["integer_counts"][label] += 2
    assert rejects(req, bad)


def test_row1_reference_rejects_a_different_count(rounds):
    req = first(rounds["local-designs"], "c-optimal", reference="row1")
    out = answer(req)
    assert abs(out["design"]["integer_counts"]["001"] - 521) <= 2
    bad = copy.deepcopy(out)
    bad["design"]["integer_counts"]["101"] += 5
    assert rejects(req, bad)


def test_budget_check_rejects_a_wrong_budget(rounds):
    req = first(rounds["local-designs"], "budget")
    out = answer(req)
    bad = copy.deepcopy(out)
    bad["required_budget"] *= 1.01
    bad["design"] = reprice(dict(out["design"], budget=bad["required_budget"]), out["design"]["fractions"])
    bad["min_variance"] = bad["objective"] / bad["required_budget"]
    assert rejects(req, bad)
    bad = copy.deepcopy(out)
    bad["z"] *= 1.001
    assert rejects(req, bad)


@pytest.mark.parametrize("kind", ["groups", "strata"])
def test_allocation_check_rejects_a_wrong_split(rounds, kind):
    req = first(rounds["local-designs"], kind)
    out = answer(req)
    bad = copy.deepcopy(out)
    a, b = bad["allocations"][0], bad["allocations"][1]
    a["budget"], b["budget"] = a["budget"] * 1.05, b["budget"] - a["budget"] * 0.05
    assert rejects(req, bad)
    bad = copy.deepcopy(out)
    bad["total_variance"] *= 1.01
    assert rejects(req, bad)


def test_assumption_check_rejects_a_wrong_witness(rounds):
    req = next(r for r in rounds["local-designs"] if r.kind == "check-assumptions" and "point" in r.doc["scenario"])
    out = answer(req)
    bad = copy.deepcopy(out)
    bad["a1"]["witness"] = req.ctx["om"].labels[0]  # one test alone cannot identify three states
    assert rejects(req, bad)


def test_worst_case_check_rejects_p_star_moved_one_step(rounds):
    reqs = [r for r in rounds["worst-case"] if r.kind == "worst-case" and len(r.ctx["pts"]) == 75]
    req = reqs[0]
    out = answer(req)
    pts = req.ctx["pts"]
    p_star = np.array(out["p_star"])
    steps = np.abs(pts - p_star).sum(axis=1)
    neighbour = pts[np.argmin(np.where(steps > 1e-9, steps, np.inf))]
    bad = copy.deepcopy(out)
    bad["p_star"] = [float(x) for x in neighbour]
    assert rejects(req, bad)
    bad = copy.deepcopy(out)
    bad["design"] = reprice(out["design"], shift_mass(out["design"]["fractions"], 0.05))
    assert rejects(req, bad)
    bad = copy.deepcopy(out)
    bad["game_value"] *= 1.01
    assert rejects(req, bad)


def test_simulate_check_rejects_scaled_variances(rounds):
    req = first(rounds["monte-carlo"], "simulate")
    out = answer(req)
    bad = copy.deepcopy(out)
    bad["predicted_variance"] *= 1.01
    bad["ratio"] = bad["empirical_variance"] / bad["predicted_variance"]
    assert rejects(req, bad)
    bad = copy.deepcopy(out)
    bad["empirical_variance"] *= 4.0
    bad["ratio"] = bad["empirical_variance"] / bad["predicted_variance"]
    assert rejects(req, bad)
    bad = copy.deepcopy(out)
    shift = 6.0 * (out["predicted_variance"] / req.doc["options"]["replications"]) ** 0.5
    bad["mean_estimate"] += shift
    bad["bias"] += shift
    assert rejects(req, bad)


def test_mle_check_rejects_a_moved_fit(rounds):
    req = first(rounds["monte-carlo"], "mle")
    integer_counts, outcome_counts, p_hat = answer(req)
    moved = np.array(p_hat, dtype=float)
    moved[0] += 1e-3
    assert rejects(req, (integer_counts, outcome_counts, moved))
    label = next(iter(outcome_counts))
    fewer = dict(outcome_counts, **{label: [c - (i == 0) for i, c in enumerate(outcome_counts[label])]})
    assert rejects(req, (integer_counts, fewer, p_hat))


def test_singular_design_certificate():
    """A singular optimum passes through the Elfving bound; a worse one does not."""
    infos = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]])
    u = np.array([1.0, 0.0])
    assert oracle.certify_design(np.array([1.0, 0.0]), infos, u, 1.0) == pytest.approx(1.0)
    with pytest.raises(CheckFailed):
        oracle.certify_design(np.array([0.5, 0.5]), infos, u, 2.0)
    with pytest.raises(CheckFailed):
        oracle.certify_design(np.array([0.0, 1.0]), infos, u, 1.0)  # u not estimable


def test_oracle_information_is_the_score_covariance():
    rng = np.random.default_rng(0)
    om = oracle.Model(workloads.serosurvey_model(rng, 4))
    p = np.array([0.1, 0.2, 0.05])
    t = len(om.labels) - 1
    q = om.q[t]
    d = q[:, :3] - q[:, 3:]

    def loglik_grad(pp, y):
        return d[y] / (q[y, 3] + d[y] @ pp)

    mix = q[:, 3] + d @ p
    expected = sum(mix[y] * np.outer(loglik_grad(p, y), loglik_grad(p, y)) for y in range(len(mix)))
    assert np.allclose(om.infos(p)[t] * om.costs[t], expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


def test_traced_requests_give_layer_figures(rounds):
    wc = next(r for r in rounds["worst-case"] if r.kind == "worst-case" and len(r.ctx["pts"]) == 75)
    sim = first(rounds["monte-carlo"], "simulate")
    fit = first(rounds["monte-carlo"], "mle")
    tracer = tracing.Tracer()
    hits0, misses0 = tracer.table_counts()
    tracer.install()
    try:
        for i, req in enumerate((wc, sim, fit)):
            output, _, error = run.execute(sd, cli, req, tracer, i)
            assert error is None
            req.check(output)
    finally:
        tracer.uninstall()
    hits1, misses1 = tracer.table_counts()
    m = tracing.layer_metrics(tracer, 3, (hits1 - hits0, misses1 - misses0))
    assert set(m) == set(tracing.METRICS) - {"import.scipy_share", "trace.overhead_pct"}
    assert m["minimax.grid_points"] == pytest.approx(75 / 3)
    assert m["minimax.inner_solves"] >= m["minimax.grid_points"]
    assert m["minimax.certify_calls"] >= 1 / 3
    assert m["coptimal.solves"] > m["minimax.inner_solves"]
    assert m["coptimal.fw_iterations"] > 0
    assert m["simulate.mle_projections"] > 1 and m["simulate.mle_ms"] > 0 and m["simulate.sample_ms"] > 0
    assert m["model.table_builds"] > 0 and 0 < m["model.table_hit_ratio"] < 1
    assert m["model.info_matrices"] > 75 / 3
    assert all(m[f"{layer}.self_ms"] > 0 for layer in ("cli", "minimax", "coptimal", "model"))
    # wrappers are gone again
    from serodesign import minimax
    assert not hasattr(minimax._solve_simplex, "__wrapped__")


def test_missing_wrapped_name_makes_its_metrics_absent(rounds, monkeypatch):
    from serodesign import minimax

    monkeypatch.delattr(minimax, "_solve_simplex")
    tracer = tracing.Tracer()
    assert "minimax._solve_simplex" in tracer.missing
    req = first(rounds["local-designs"], "c-optimal", reference=None)
    tracer.install()
    try:
        run.execute(sd, cli, req, tracer, 0)
    finally:
        tracer.uninstall()
    m = tracing.layer_metrics(tracer, 1, (0, 0))
    assert "minimax.inner_solves" not in m and "coptimal.solves" not in m
    assert m["cli.self_ms"] > 0
    assert m["model.info_matrices"] > len(req.ctx["om"].labels)  # every pattern, plus the A1 check


def test_self_time_subtracts_child_spans():
    class Spans:
        names = ["a", "b"]
        layer_of = ["cli", "model"]
        spans = [(0, -1, 0, 100, 0), (1, 0, 10, 40, 0), (1, 0, 50, 60, 0)]

    s = tracing.self_times(Spans)
    assert s["cli"] == pytest.approx(60e-9) and s["model"] == pytest.approx(40e-9)


def test_scipy_share_counts_outermost_scipy_imports_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy",
        "import time:        50 |         50 |         scipy._lib",
        "import time:        20 |        100 |       scipy",
        "import time:       200 |        300 |       scipy.linalg",
        "import time:        10 |        510 |     serodesign.coptimal",
        "import time:        90 |       1000 | serodesign",
    ])
    assert tracing.scipy_share(text) == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# The command
# ---------------------------------------------------------------------------


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "local-designs", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
