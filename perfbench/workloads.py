"""Seeded request streams for the three benchmark workloads.

A workload is one *round*: a fixed list of requests whose make-up (kinds,
model sizes, grid sizes) is the same for every seed, and whose numbers
(costs, reliabilities, parameters, boxes, budgets) come from the seed.  A
run repeats its round until its time is up, so every run attempts whole
rounds and the share of failing requests never depends on the seed or on
the run length.

Every request also carries what its check needs from the oracle, computed
once when the round is generated, so the timed loop only runs the program
and compares.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

import checks
import oracle

WORKLOADS = ("local-designs", "worst-case", "monte-carlo")

# The serosurvey state layout of the paper: infection without antibodies,
# antibodies without infection, both, neither (the reference state).  An
# infection test reads positive in states 0 and 2, an antibody test in 1
# and 2, so every model with both kinds of test has distinct nominal rows
# and is identifiable through the all-tests pattern.
K = 3

# Least support weight, and least share by which an off-support pattern
# falls short of the optimum, of a randomly generated design.
SEPARATION = 0.02

# Grid step of every random worst-case box; the grid size is set by the
# number of points per axis instead.
BOX_STEP = 0.01

# Shipped fixtures used as published references.
ROW1_TESTS = [
    {"id": "rat", "cost": 450, "sensitivity": 0.5, "specificity": 0.975},
    {"id": "rtpcr", "cost": 1600, "sensitivity": 0.95, "specificity": 0.97},
    {"id": "antibody", "cost": 300, "sensitivity": 0.921, "specificity": 0.977},
]
ROW_NOMINAL = [[1, 1, 0], [0, 0, 1], [1, 1, 1], [0, 0, 0]]
ROW1_POINT = [0.10, 0.30, 0.01]
ROW4_BOX = {"lower": [0.01, 0.10, 0.00], "upper": [0.15, 0.50, 0.02]}

# The row1 request with RT-PCR at 1053, where the optimal support switches
# from {001, 011} to {011, 101}: Frank-Wolfe takes about 300 iterations.
TIE_POINT_DOC = {"scenario": {"point": ROW1_POINT}, "budget": 1e7}

# The seven-test configuration whose c-optimal design is singular: the
# solver's Newton polish gets no Cholesky factor and the CLI raises a raw
# ValueError.  It stays in local-designs as the one request that fails.
SINGULAR_DOC = {
    "model": {
        "tests": [
            {"id": f"t{j}", "cost": 100 + 50 * j, "sensitivity": 0.9, "specificity": 0.95}
            for j in range(7)
        ],
        "nominal": [[int(c) for c in row] for row in ("1000101", "0100110", "0010011", "0001111", "0000000")],
    },
    "scenario": {"point": [0.1, 0.1, 0.1, 0.1]},
    "budget": 1e6,
}


@dataclass
class Request:
    """One operation of a round: a CLI run or a library call."""

    kind: str  # CLI subcommand, or "mle" for a library sample-and-fit
    doc: dict  # CLI configuration (for "mle": model, point, budget, seed)
    flags: list = field(default_factory=list)
    expect_fail: bool = False
    reference: str | None = None  # published figure this request must reproduce
    path: str | None = None  # configuration file, once written
    ctx: dict = field(default_factory=dict)  # oracle data for the check

    @property
    def argv(self) -> list:
        return [self.kind, "--config", self.path, *self.flags]

    def check(self, output) -> None:
        checks.CHECKS[self.kind](self, output)


# ---------------------------------------------------------------------------
# Random pieces
# ---------------------------------------------------------------------------


def serosurvey_model(rng: np.random.Generator, n_tests: int) -> dict:
    """A random identifiable model with n_tests infection or antibody tests."""
    while True:
        n_inf = int(rng.integers(1, n_tests))
        kinds = [1] * n_inf + [0] * (n_tests - n_inf)
        rng.shuffle(kinds)
        tests = [
            {
                "id": f"{'inf' if kind else 'ab'}{j}",
                "cost": round(float(rng.uniform(50.0, 2000.0)), 2),
                "sensitivity": round(float(rng.uniform(0.45, 0.99)), 4),
                "specificity": round(float(rng.uniform(0.90, 0.995)), 4),
            }
            for j, kind in enumerate(kinds)
        ]
        nominal = [list(kinds), [1 - kind for kind in kinds], [1] * n_tests, [0] * n_tests]
        doc = {"tests": tests, "nominal": nominal, "u": [1.0] * K}
        if identifiable(doc, random_point(rng)):
            return doc


def identifiable(model_doc: dict, p, overrides: dict | None = None) -> bool:
    """The oracle's test: the all-tests pattern has positive-definite information."""
    om = oracle.Model(model_doc, overrides)
    full = om.infos(p)[-1] * om.costs[-1]
    return bool(np.linalg.eigvalsh(full)[0] > 1e-8)


def random_point(rng: np.random.Generator, floor: float = 0.0) -> list:
    p = [rng.uniform(0.02, 0.20), rng.uniform(0.05, 0.45), rng.uniform(0.005, 0.08)]
    return [round(max(float(x), floor), 4) for x in p]


def design_support(om: oracle.Model, p) -> tuple | None:
    """Support of the oracle's optimal design at p, or None near a support switch.

    Near a switch two supports are almost equally good and Frank-Wolfe
    needs hundreds to thousands of iterations instead of about ten, so a
    random model that happens to sit there would dominate its seed's
    timings.  That case is kept once, fixed (TIE_POINT_DOC, TIE_DOC),
    instead of at random.
    """
    infos = om.infos(p)
    v, mu, _, _ = oracle.solve(infos, om.u, gap=1e-6)
    x = np.linalg.solve(np.einsum("t,tij->ij", v, infos), om.u)
    g = np.einsum("tij,i,j->t", infos, x, x) / mu
    on = v > 1e-7
    clear_off = on.all() or g[~on].max() <= 1.0 - SEPARATION
    return tuple(np.flatnonzero(on)) if v[on].min() >= SEPARATION and clear_off else None


def separated_point(rng: np.random.Generator, model_doc: dict, overrides=None, floor: float = 0.0):
    """A random point whose optimal design is well separated and has fewer
    than K support points, or None after 20 draws."""
    om = oracle.Model(model_doc, overrides)
    for _ in range(20):
        p = random_point(rng, floor)
        support = design_support(om, p)
        if support is not None and len(support) < K:
            return p
    return None


def model_and_point(rng: np.random.Generator, n_tests: int, floor: float = 0.0):
    while True:
        model = serosurvey_model(rng, n_tests)
        p = separated_point(rng, model, floor=floor)
        if p is not None:
            return model, p


def random_fractions(rng: np.random.Generator, n: int) -> list:
    """n population fractions in whole percent, each at least 5%, summing to 1."""
    extra = rng.multinomial(100 - 5 * n, rng.dirichlet(np.ones(n)))
    return [int(5 + x) / 100 for x in extra]


def latin_slots(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """Slice indices of n points, one point in each of n equal slices of every axis."""
    return np.stack([rng.permutation(n) for _ in range(dims)], axis=1)


def in_slot(rng: np.random.Generator, slot, n: int, lows, highs) -> np.ndarray:
    lows, highs = np.asarray(lows), np.asarray(highs)
    return lows + (highs - lows) * (np.asarray(slot) + rng.uniform(size=len(slot))) / n


def steady_box(model_doc: dict, box: dict) -> bool:
    """The oracle's optimal support is the same, and well separated, at every
    corner and the centre of the box: no support switch crosses it."""
    om = oracle.Model(model_doc)
    points = [list(c) for c in itertools.product(*zip(box["lower"], box["upper"]))]
    points.append([(lo + hi) / 2 for lo, hi in zip(box["lower"], box["upper"])])
    supports = set()
    for p in points:
        supports.add(design_support(om, p))
        if None in supports or len(supports) > 1:
            return False
    return True


def random_box(lower, counts) -> dict:
    upper = [lo + BOX_STEP * (c - 1) for lo, c in zip(lower, counts)]
    return {"lower": [float(x) for x in lower], "upper": [float(x) for x in upper]}


def fixture_model(rtpcr_cost: float) -> dict:
    tests = [dict(t) for t in ROW1_TESTS]
    tests[1]["cost"] = rtpcr_cost
    return {"tests": tests, "nominal": ROW_NOMINAL, "u": [1.0] * K}


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

# local-designs: (subcommand, tests) slots of one round; mostly 3-4 tests.
# Random designs have fewer than K support points: designs with K points
# take several times longer to polish and have a long tail, so a seed that
# drew more of them would run slower.  Three such designs come instead from
# full_support.json, the same in every round.  A round of about 300
# distinct models keeps the seed's share of the figures small.
LOCAL_SLOTS = 8 * (
    [("c-optimal", 3)] * 8 + [("c-optimal", 4)] * 4 + [("c-optimal", 5)] * 2 + [("c-optimal", 6)]
    + [("budget", 3)] * 3 + [("budget", 4)] * 2 + [("budget", 5)]
    + [("groups", 3)] * 3 + [("groups", 4)] * 2 + [("groups", 6)]
    + [("strata", 3)] * 3 + [("strata", 4)] * 2 + [("strata", 5)]
    + [("check-assumptions", 3)] * 3 + [("check-assumptions", 4)] + [("check-assumptions", 6)]
)
FULL_SUPPORT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "full_support.json")

# worst-case: (subcommand, points per axis) slots of one round, on the
# paper's three RT-PCR prices.  Three fixed requests join every round, the
# same for every seed: the published row4 box at its published step (1,845
# points, the largest request) and at step 0.02 (336 points, where the
# grid argmax fails certification and the averaging fallback runs), and a
# 32-point box at an RT-PCR price of 1053 that straddles the parameters
# where the optimal support switches from {001, 011} to {011, 101}; there
# Frank-Wolfe needs tens to thousands of iterations per solve instead of
# about ten.
RTPCR_PRICES = (100.0, 1000.0, 1600.0)
TIE_DOC = {
    "scenario": {"box": {"lower": [0.0673, 0.0754, 0.0131], "upper": [0.0973, 0.1054, 0.0231]}},
    "budget": 1e7,
    "options": {"grid_step": 0.01},
}
WORST_SLOTS = (
    [("worst-case", (5, 5, 3))] * 40
    + [("worst-case", (6, 6, 4))] * 8
    + [("strata", (4, 4, 2))] * 6
)

# monte-carlo: (kind, tests) slots of one round, and the replications per simulate.
MC_SLOTS = 4 * ([("simulate", 3)] * 12 + [("simulate", 4)] * 6 + [("simulate", 5)] * 2
                + [("mle", 3)] * 2 + [("mle", 4)] * 2)
MC_REPLICATIONS = 30


def local_round(rng: np.random.Generator) -> list:
    reqs = []
    for kind, n in LOCAL_SLOTS:
        model, p = model_and_point(rng, n)
        doc = {"model": model, "budget": float(rng.integers(1, 21)) * 1e6, "scenario": {"point": p}}
        flags = []
        if kind == "strata":
            fractions = random_fractions(rng, int(rng.integers(2, 5)))
            points = [p] + [separated_point(rng, model) or p for _ in fractions[1:]]
            doc["scenario"] = {
                "strata": [{"name": f"s{i}", "fraction": f, "point": q} for i, (f, q) in enumerate(zip(fractions, points))]
            }
        elif kind == "groups" or (kind == "check-assumptions" and n == 6):
            fractions = random_fractions(rng, int(rng.integers(2, 4)))
            groups = []
            for i, f in enumerate(fractions):
                q = None
                while q is None:
                    test = model["tests"][int(rng.integers(n))]["id"]
                    overrides = {test: {"sensitivity": round(float(rng.uniform(0.45, 0.99)), 4)}}
                    q = separated_point(rng, model, overrides)
                groups.append({"name": f"g{i}", "fraction": f, "point": q, "overrides": overrides})
            doc["scenario"] = {"groups": groups}
        if kind == "budget":
            flags = ["--moe", repr(round(float(rng.uniform(0.005, 0.03)), 4)),
                     "--alpha", repr(float(rng.choice([0.01, 0.05, 0.1])))]
        reqs.append(Request(kind, doc, flags))
    reqs.append(Request("c-optimal", {"model": fixture_model(1600.0), "scenario": {"point": ROW1_POINT},
                                      "budget": 1e7}, reference="row1"))
    reqs.append(Request("c-optimal", dict(TIE_POINT_DOC, model=fixture_model(1053.0))))
    reqs.append(Request("c-optimal", SINGULAR_DOC, expect_fail=True))
    with open(FULL_SUPPORT, encoding="utf-8") as handle:
        for case in json.load(handle):
            reqs.append(Request("c-optimal", {"model": case["model"], "scenario": {"point": case["point"]},
                                              "budget": 1e7}))
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order]


def worst_round(rng: np.random.Generator) -> list:
    # box corners on one Latin hypercube per box size, so each size class
    # covers the parameter range alike for every seed; a box that a support
    # switch crosses is redrawn inside the same slices (TIE_DOC keeps one)
    lows, highs = (0.0, 0.05, 0.0), (0.15, 0.40, 0.05)
    classes = {}
    for kind, counts in WORST_SLOTS:
        classes[kind, counts] = classes.get((kind, counts), 0) + (1 if kind == "worst-case" else 2)
    slots = {c: iter(latin_slots(rng, n, 3)) for c, n in classes.items()}

    def box(model, kind, counts):
        slot, n = next(slots[kind, counts]), classes[kind, counts]
        for attempt in range(60):
            if attempt == 20:  # the slices may lie where the support switches
                slot, n = [0, 0, 0], 1
            candidate = random_box(in_slot(rng, slot, n, lows, highs).round(4), counts)
            if steady_box(model, candidate):
                return candidate
        raise RuntimeError(f"no box without a support switch for {model['tests'][1]['cost']}")

    reqs = []
    for i, (kind, counts) in enumerate(WORST_SLOTS):
        model = fixture_model(RTPCR_PRICES[i % len(RTPCR_PRICES)])
        doc = {"model": model, "budget": 1e7, "options": {"grid_step": BOX_STEP}}
        if kind == "worst-case":
            doc["scenario"] = {"box": box(model, kind, counts)}
        else:
            fractions = random_fractions(rng, 3)
            doc["scenario"] = {"strata": [
                {"name": "a", "fraction": fractions[0], "box": box(model, kind, counts)},
                {"name": "b", "fraction": fractions[1], "box": box(model, kind, counts)},
                {"name": "c", "fraction": fractions[2], "point": separated_point(rng, model) or ROW1_POINT},
            ]}
        reqs.append(Request(kind, doc))
    for step in (0.01, 0.02):
        reqs.append(Request("worst-case", {"model": fixture_model(100.0), "scenario": {"box": ROW4_BOX},
                                           "budget": 1e7, "options": {"grid_step": step}}, reference="row4"))
    reqs.append(Request("worst-case", dict(TIE_DOC, model=fixture_model(1053.0))))
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order]


def mc_round(rng: np.random.Generator) -> list:
    reqs = []
    for kind, n in MC_SLOTS:
        model, p = model_and_point(rng, n, floor=0.03)
        doc = {"model": model, "scenario": {"point": p}, "budget": mc_budget(rng, model, p),
               "options": {"seed": int(rng.integers(2**31)), "replications": MC_REPLICATIONS}}
        reqs.append(Request(kind, doc))
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order]


def mc_budget(rng: np.random.Generator, model: dict, p: list) -> float:
    """A random budget at which every state probability is 8 standard errors
    from the boundary, so the fitted estimates behave asymptotically."""
    om = oracle.Model(model)
    infos = om.infos(p)
    v, _, _, _ = oracle.solve(infos, om.u)
    cov = np.linalg.inv(np.einsum("t,tij->ij", v, infos))  # times 1/budget
    margins = np.array(list(p) + [1.0 - sum(p)])
    var = np.append(np.diag(cov), np.ones(K) @ cov @ np.ones(K))
    need = float((64.0 * var / margins**2).max())
    return float(np.ceil(max(need, float(rng.uniform(2e6, 2e7))) / 1e4) * 1e4)


ROUNDS = {"local-designs": local_round, "worst-case": worst_round, "monte-carlo": mc_round}


def generate(workload: str, seed: int) -> list:
    """The round of a workload for a seed; the same seed gives the same round."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    reqs = ROUNDS[workload](rng)
    for req in reqs:
        checks.prepare(req)
    return reqs


def write_configs(reqs: list, directory: str) -> None:
    """Write each CLI request's configuration file, as a CLI user would."""
    os.makedirs(directory, exist_ok=True)
    for i, req in enumerate(reqs):
        req.path = os.path.join(directory, f"request-{i:03d}.json")
        with open(req.path, "w", encoding="utf-8") as handle:
            json.dump(req.doc, handle)
