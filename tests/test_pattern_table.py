"""The stacked pattern table against the model's definitions.

Random models with one to seven tests are drawn with hypothesis.  Every
table row is checked against outcome_space and conditional_prob, the
Fisher information against a direct sum over outcomes, grid informations
against point informations, and the batched assumption checks against a
loop of per-pattern eigenvalue solves on independently built matrices.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from serodesign import (
    DiseaseModel,
    InfeasibleDesignError,
    ParameterBox,
    TestSpec,
    all_patterns,
    check_a1,
    check_a2,
    conditional_prob,
    default_model,
    fisher_info,
    make_pattern,
    mixture_prob,
    outcome_space,
    solve_c_optimal,
    worst_case_design,
)
from serodesign.coptimal import _pattern_infos, _solve_simplex
from serodesign.model import PD_TOLERANCE, _fisher_info_grid, _layout, _pattern_tables

from conftest import ROW1_POINT, ROW4_BOX

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
    d = table.q[:, : model.k] - table.q[:, model.k :]
    assert table.outer.shape == (table.q.shape[0], model.k**2)
    assert np.array_equal(table.outer, np.stack([np.outer(row, row).ravel() for row in d]))


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
    assert grid.flags.c_contiguous
    for i, p in enumerate(pts):
        point = _fisher_info_grid(p, model)
        assert point.flags.c_contiguous
        assert np.abs(grid[:, i] - point).max() <= 1e-12 * scale(point)


@PROPERTY
@given(st.data())
def test_a1_matches_a_loop_of_per_pattern_eigenvalues(data):
    model = data.draw(models())
    p = data.draw(interior_points(model.k, 1))[0]
    witness = None
    for t in all_patterns(model):
        if np.linalg.eigvalsh(reference_infos(t, p[None, :], model)[0])[0] > PD_TOLERANCE:
            witness = t
            break
    assert check_a1(p, model) == (witness is not None, witness)


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
    result = check_a2(box, model, grid_step=0.02)
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


def shares_layout(table, n_tests):
    _, _, index, spans, starts = _layout(n_tests)
    return table.index is index and table.spans is spans and table.starts is starts


def test_models_with_one_test_count_share_one_layout():
    base = default_model()
    four = DiseaseModel(
        tests=base.tests + (TestSpec(id="pcr2", cost=10.0, sensitivity=0.9, specificity=0.9),),
        nominal=np.hstack([base.nominal, base.nominal[:, 1:2]]),
        u=base.u,
    )
    assert _layout(3) is _layout(3)
    for model in (base, default_model(rtpcr_cost=100.0), four):
        assert shares_layout(_pattern_tables(model), model.n_tests)
    assert _layout(4)[0].shape == (4, 3**4 - 1)
    assert _pattern_tables(four).index is not _pattern_tables(base).index


def coin_flips(model, reliability=0.5):
    """``model`` with every test's sensitivity and specificity at ``reliability``."""
    tests = tuple(
        TestSpec(id=t.id, cost=t.cost, sensitivity=reliability, specificity=reliability)
        for t in model.tests
    )
    return DiseaseModel(tests=tests, nominal=model.nominal, u=model.u)


def test_models_sharing_a_layout_keep_their_own_rows_costs_and_rank():
    base = default_model()
    variants = {
        "base": base,
        "group": base.with_test_overrides({"rat": {"sensitivity": 0.68}}),
        "costs": default_model(rtpcr_cost=1053.0),
        "nominal": DiseaseModel(tests=base.tests, nominal=base.nominal[[1, 0, 2, 3]], u=base.u),
        # states 0 and 1 answer every test alike, so no design identifies p
        "twins": DiseaseModel(tests=base.tests, nominal=base.nominal[[0, 0, 2, 3]], u=base.u),
        "coins": coin_flips(base),
    }
    tables = {name: _pattern_tables(model) for name, model in variants.items()}
    for name, model in variants.items():
        table = tables[name]
        assert shares_layout(table, 3), name
        for t in table.patterns:
            expected = [
                [conditional_prob(y, s, t, model) for s in range(model.k + 1)]
                for y in outcome_space(t)
            ]
            assert np.array_equal(table.q[table.rows(t)], expected), name
        costs = [make_pattern(t.mask, model).cost for t in table.patterns]
        assert table.costs.tolist() == costs == [t.cost for t in table.patterns], name
        rank = np.linalg.matrix_rank(table.d)
        assert table.identified == (rank == model.k) == (name not in ("twins", "coins")), name
    for name in ("group", "nominal", "coins"):
        assert not np.array_equal(tables[name].q, tables["base"].q), name
    assert not np.array_equal(tables["costs"].costs, tables["base"].costs)


A1_MESSAGE = (
    "no test pattern has positive-definite information at p; "
    "every design has unbounded variance"
)
A2_MESSAGE = (
    "no pattern has uniformly positive-definite information over the box; "
    "the worst-case variance is unbounded for every design"
)


def test_coin_flip_tests_keep_their_infeasibility_messages():
    model = coin_flips(default_model())
    p = np.array([0.1, 0.3, 0.01])
    with pytest.raises(InfeasibleDesignError) as err:
        solve_c_optimal(p, model)
    assert str(err.value) == A1_MESSAGE
    box = ParameterBox(lower=np.array([0.05, 0.2, 0.0]), upper=np.array([0.09, 0.3, 0.01]))
    with pytest.raises(InfeasibleDesignError) as err:
        worst_case_design(box, model, grid_step=0.02)
    assert str(err.value) == A2_MESSAGE
    with pytest.raises(InfeasibleDesignError) as err:
        _solve_simplex(_pattern_infos(p, model), model)
    assert str(err.value) == "the summed pattern information matrix is singular"


def test_near_coin_flip_tests_fail_the_numeric_gates():
    # 1e-4 from a coin flip the rank rule still calls p identified, but the
    # all-tests information is PD only in exact arithmetic: the solvers'
    # numeric A1 and A2 gates refuse it instead of running a Newton path
    # on a numerically singular problem.
    model = coin_flips(default_model(), 0.5001)
    assert _pattern_tables(model).identified
    least = np.linalg.eigvalsh(_fisher_info_grid(ROW1_POINT, model)[-1])[0]
    assert least < PD_TOLERANCE
    with pytest.raises(InfeasibleDesignError) as err:
        solve_c_optimal(ROW1_POINT, model)
    assert str(err.value) == A1_MESSAGE
    with pytest.raises(InfeasibleDesignError) as err:
        worst_case_design(ROW4_BOX, model, grid_step=0.02)
    assert str(err.value) == A2_MESSAGE


@PROPERTY
@given(st.data())
def test_all_tests_information_dominates_every_pattern(data):
    # A pattern's outcome is a marginal of the all-tests outcome, so
    # I_all(p) - I_t(p) is PSD: the fact both solver gates rest on.
    model = data.draw(models())
    pts = data.draw(interior_points(model.k, 3))
    infos = _fisher_info_grid(pts, model)
    gaps = np.linalg.eigvalsh(infos[-1] - infos)[..., 0]  # (T, m)
    assert gaps.min() >= -1e-12 * scale(infos)
