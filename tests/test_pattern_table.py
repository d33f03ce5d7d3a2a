"""The stacked pattern table against the model's definitions.

Random models with one to seven tests are drawn with hypothesis.  Every
table row is checked against outcome_space and conditional_prob, the
Fisher information against a direct sum over outcomes, grid informations
against point informations, and the batched assumption checks against a
loop of per-pattern eigenvalue solves on independently built matrices.
"""

import itertools

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from serodesign import (
    DiseaseModel,
    ParameterBox,
    TestSpec,
    all_patterns,
    check_a1,
    check_a2,
    conditional_prob,
    fisher_info,
    make_pattern,
    mixture_prob,
    outcome_space,
)
from serodesign.model import PD_TOLERANCE, _fisher_info_grid, _pattern_tables

# Derandomized, so every run draws the same models; the bounds keep the
# suite's run time near that of the rest of tier-1.
PROPERTY = settings(
    derandomize=True,
    database=None,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def models(draw, max_tests=7, max_k=4):
    n = draw(st.integers(1, max_tests))
    k = draw(st.integers(1, max_k))
    reliability = st.floats(0.05, 0.95)
    tests = tuple(
        TestSpec(
            id=f"t{j}",
            cost=draw(st.floats(1.0, 1000.0)),
            sensitivity=draw(reliability),
            specificity=draw(reliability),
        )
        for j in range(n)
    )
    rows = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    nominal = draw(st.lists(rows, min_size=k + 1, max_size=k + 1))
    return DiseaseModel(tests=tests, nominal=np.array(nominal), u=np.ones(k))


def interior_points(k, size):
    """``size`` points strictly inside the simplex, shape (size, k)."""
    weights = st.lists(st.floats(0.05, 1.0), min_size=k + 1, max_size=k + 1)

    def normalize(rows):
        w = np.array(rows)
        return (w / w.sum(axis=1, keepdims=True))[:, :k]

    return st.lists(weights, min_size=size, max_size=size).map(normalize)


def deviations(t, model):
    """(outcomes, k) deviations P(y | s) - P(y | reference), by definition."""
    ref = model.k
    return np.array(
        [
            [conditional_prob(y, s, t, model) - conditional_prob(y, ref, t, model) for s in range(ref)]
            for y in outcome_space(t)
        ]
    )


def reference_infos(t, pts, model):
    """Information of pattern t at each row of pts, from per-outcome terms."""
    d = deviations(t, model)
    q_ref = np.array([conditional_prob(y, model.k, t, model) for y in outcome_space(t)])
    mix = q_ref + pts @ d.T
    return np.einsum("my,yi,yj->mij", 1.0 / mix, d, d)


def scale(infos):
    return max(float(np.abs(infos).max()), 1e-300)


@PROPERTY
@given(models())
def test_rows_follow_outcome_space_and_conditional_prob(model):
    table = _pattern_tables(model)
    masks = [m for m in itertools.product((0, 1), repeat=model.n_tests) if any(m)]
    assert [t.mask for t in table.patterns] == masks
    assert [t.cost for t in table.patterns] == [make_pattern(m, model).cost for m in masks]
    assert table.spans[-1].stop == table.q.shape[0] == 3**model.n_tests - 1
    for t in table.patterns:
        rows = table.rows(t)
        expected = [
            [conditional_prob(y, s, t, model) for s in range(model.k + 1)]
            for y in outcome_space(t)
        ]
        assert np.array_equal(table.q[rows], expected)  # the same products, bit for bit


@PROPERTY
@given(st.data())
def test_fisher_info_is_the_sum_over_outcomes(data):
    model = data.draw(models(max_tests=5))
    p = data.draw(interior_points(model.k, 1))[0]
    for t in all_patterns(model):
        expected = sum(
            np.outer(d, d) / mixture_prob(y, t, p, model)
            for y, d in zip(outcome_space(t), deviations(t, model))
        )
        info = fisher_info(t, p, model)
        assert np.array_equal(info, info.T)
        assert np.abs(info - expected).max() <= 1e-12 * scale(expected)


@PROPERTY
@given(st.data())
def test_grid_informations_match_point_informations(data):
    model = data.draw(models())
    pts = data.draw(interior_points(model.k, 4))
    grid = _fisher_info_grid(pts, model)
    assert grid.shape == (len(all_patterns(model)), 4, model.k, model.k)
    for i, p in enumerate(pts):
        point = _fisher_info_grid(p, model)
        assert np.abs(grid[:, i] - point).max() <= 1e-12 * scale(point)


@PROPERTY
@given(st.data())
def test_pattern_subset_in_any_order(data):
    model = data.draw(models())
    patterns = all_patterns(model)
    chosen = data.draw(st.permutations(range(len(patterns))))
    chosen = chosen[: data.draw(st.integers(1, len(chosen)))]
    subset = [patterns[i] for i in chosen]
    pts = data.draw(interior_points(model.k, 3))
    assert np.array_equal(
        _fisher_info_grid(pts[0], model, subset), _fisher_info_grid(pts[0], model)[chosen]
    )
    grid = _fisher_info_grid(pts, model, subset)
    full = _fisher_info_grid(pts, model)[chosen]
    assert np.abs(grid - full).max() <= 1e-12 * scale(full)


@PROPERTY
@given(st.data())
def test_a1_matches_a_loop_of_per_pattern_eigenvalues(data):
    model = data.draw(models())
    p = data.draw(interior_points(model.k, 1))[0]
    patterns = all_patterns(model)
    order = data.draw(st.permutations(range(len(patterns))))
    patterns = [patterns[i] for i in order]
    witness = None
    for t in patterns:
        if np.linalg.eigvalsh(reference_infos(t, p[None, :], model)[0])[0] > PD_TOLERANCE:
            witness = t
            break
    assert check_a1(p, patterns, model) == (witness is not None, witness)


def first_within_roundoff(values, chosen):
    """Indices whose value ties the extreme ``values[chosen]`` to roundoff.

    Patterns with a coin-flip test, or a test every state answers alike,
    carry exactly the information of a smaller pattern, so their
    eigenvalues tie in exact arithmetic and either evaluation may rank
    any of them first.
    """
    tol = 1e-9 * abs(values[chosen])
    return [i for i, v in enumerate(values) if abs(v - values[chosen]) <= tol]


@PROPERTY
@given(st.data())
def test_a2_matches_a_loop_of_per_pattern_eigenvalues(data):
    model = data.draw(models(max_tests=5))
    lower = data.draw(interior_points(model.k, 1))[0] * 0.5
    box = ParameterBox(lower=lower, upper=lower + 0.04)
    pts = box.grid(0.02)
    patterns = all_patterns(model)
    lam = [np.linalg.eigvalsh(reference_infos(t, pts, model))[:, 0] for t in patterns]
    worst = [float(values.min()) for values in lam]
    best = int(np.argmax(worst))
    result = check_a2(box, patterns, model, grid_step=0.02)
    assert result.ok == (worst[best] > PD_TOLERANCE)
    if not result.ok:
        assert abs(result.lambda_min - worst[best]) <= 1e-12 * max(scale(lam), 1.0)
        return
    assert abs(result.lambda_min - worst[best]) <= 1e-12 * worst[best]
    tied = first_within_roundoff(worst, best)
    assert result.pattern in [patterns[i] for i in tied]
    if len(tied) == 1:
        assert result.pattern == patterns[best]
    witness = lam[patterns.index(result.pattern)]
    at = [i for i, p in enumerate(pts) if np.array_equal(p, result.argmin)]
    assert len(at) == 1 and at[0] in first_within_roundoff(witness, int(np.argmin(witness)))
