"""Monte-Carlo harness tests: sampling distribution checks, the MLE
against a brute-force grid oracle and an independent stationarity check,
and the empirical-versus-predicted variance comparison."""

import re

import numpy as np
import pytest
import scipy.stats

from serodesign import (
    ConvergenceError,
    SurveyDataset,
    all_patterns,
    default_model,
    design_from_fractions,
    jarque_bera_pvalue,
    log_likelihood,
    make_pattern,
    mle,
    sample_outcomes,
    simulate_estimates,
    simulation_report,
    solve_c_optimal,
)
from serodesign.model import _pattern_tables
from serodesign import simulate
from serodesign.simulate import MLE_TOL, _sample

from _outcomes import mixture_prob, outcome_rows, outcome_space

P0 = np.array([0.10, 0.30, 0.01])
C = 1e7


def philox_cell(seed, replication, index):
    """numpy's own generator for one (replication, pattern index) cell: the
    seed's Philox key at counter (0, 0, replication, index)."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    counter = np.array([0, 0, replication, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def state_order_mixture(q, p):
    """P(y) = sum_s pi_s P(y | s) of every row of q at p, summed in state
    order, one elementwise product per state."""
    total = np.zeros(q.shape[0])
    for s, pi in enumerate(np.append(p, 1.0 - p.sum())):
        total = total + pi * q[:, s]
    return total


def outcome_table(dataset, model):
    """P(y | state) for every outcome row of the dataset, from the scalar
    oracle, with the counts of those rows."""
    q = np.vstack([outcome_rows(t, model) for t in dataset.patterns])
    return q, np.concatenate(dataset.counts).astype(np.float64)


def project(v):
    """Projection onto {p >= 0, sum(p) <= 1}, by bisection on the shift."""
    x = np.maximum(v, 0.0)
    if x.sum() <= 1.0:
        return x
    lo, hi = 0.0, float(v.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if np.maximum(v - mid, 0.0).sum() > 1.0 else (lo, mid)
    return np.maximum(v - hi, 0.0)


def projected_gradient(dataset, p, model):
    """Unit-step projected-gradient norm of the mean log-likelihood at p."""
    q, counts = outcome_table(dataset, model)
    slopes = q[:, :-1] - q[:, -1:]
    grad = slopes.T @ (counts / (q[:, -1] + slopes @ p)) / counts.sum()
    return float(np.linalg.norm(project(p + grad) - p))


def random_dataset(rng, seed):
    """A survey on the default model at a random RT-PCR price: one to three
    random patterns, 30 to 1e5 participants, and a random state
    distribution with one empty state in a third of the draws."""
    model = default_model(rtpcr_cost=float(rng.uniform(100, 2500)))
    patterns = all_patterns(model)
    chosen = rng.choice(len(patterns), size=int(rng.integers(1, 4)), replace=False)
    v = np.zeros(len(patterns))
    v[chosen] = rng.dirichlet(np.ones(chosen.size))
    state = rng.dirichlet(np.ones(model.k + 1))
    if seed % 3 == 0:
        state[rng.integers(model.k + 1)] = 0.0
        state /= state.sum()
    participants = 10 ** rng.uniform(np.log10(30), 5)
    budget = participants / float(v @ (1.0 / np.array([t.cost for t in patterns])))
    design = design_from_fractions(v, budget, patterns)
    return model, state[:-1], sample_outcomes(design, state[:-1], model, seed=seed)


@pytest.fixture(scope="module")
def row1_solution(model_row1):
    return solve_c_optimal(P0, model_row1, budget=C)


class TestSampling:
    def test_counts_conserved(self, model_row1, row1_solution):
        design = row1_solution.design
        dataset = sample_outcomes(design, P0, model_row1, seed=123)
        expected = {t.mask: int(n) for t, n in zip(design.patterns, design.integer_counts) if n > 0}
        assert {t.mask for t in dataset.patterns} == set(expected)
        for t, counts in zip(dataset.patterns, dataset.counts):
            assert int(counts.sum()) == expected[t.mask]

    def test_reproducible_bitwise(self, model_row1, row1_solution):
        design = row1_solution.design
        d1 = sample_outcomes(design, P0, model_row1, seed=9, replication=4)
        d2 = sample_outcomes(design, P0, model_row1, seed=9, replication=4)
        for c1, c2 in zip(d1.counts, d2.counts):
            assert np.array_equal(c1, c2)
        d3 = sample_outcomes(design, P0, model_row1, seed=9, replication=5)
        assert any(
            not np.array_equal(a, b) for a, b in zip(d1.counts, d3.counts)
        )

    def test_matches_one_multinomial_per_cell_bitwise(self, model_row1):
        # reference: on each cell's stream, numpy's Philox at the seed's key
        # and counter (0, 0, replication, pattern index), one multinomial
        # over the pattern's mixture probabilities
        table = _pattern_tables(model_row1)
        patterns = all_patterns(model_row1)
        uniform = np.full(len(patterns), 1.0 / len(patterns))
        for p in (P0, np.array([0.2, 0.0, 0.3]), np.array([0.0, 0.0, 1.0])):
            for budget in (4e3, 1e5, C):
                design = design_from_fractions(uniform, budget, patterns)
                for seed in (0, 5, 123):
                    for replication in range(3):
                        dataset = sample_outcomes(design, p, model_row1, seed, replication)
                        expected = []
                        for index, (t, n) in enumerate(zip(patterns, design.integer_counts)):
                            if n <= 0:
                                continue
                            q, _ = table.stacked((t,))
                            rng = philox_cell(seed, replication, index)
                            expected.append(rng.multinomial(int(n), state_order_mixture(q, p)))
                        assert len(dataset.counts) == len(expected)
                        for got, want in zip(dataset.counts, expected):
                            assert got.dtype == want.dtype
                            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("replications", [1, 7, 30])
    def test_one_pass_matches_each_replication_bitwise(self, model_row1, replications):
        # the batched count matrix holds, row by row, what sample_outcomes
        # draws for that replication alone, on uniform designs whose small
        # budgets leave patterns empty and on a design over a subset
        patterns = all_patterns(model_row1)
        uniform = np.full(len(patterns), 1.0 / len(patterns))
        designs = [design_from_fractions(uniform, budget, patterns) for budget in (2e3, 4e3, C)]
        assert (designs[0].integer_counts == 0).any() and (designs[1].integer_counts == 0).any()
        subset = [patterns[1], patterns[4], patterns[6]]
        designs.append(design_from_fractions([0.2, 0.5, 0.3], 1e5, subset))
        for design in designs:
            for seed in (0, 5, 123):
                drawn, _, _, counts = _sample(design, P0, model_row1, seed, range(replications))
                assert counts.dtype == np.int64 and counts.shape[0] == replications
                for r, row in enumerate(counts):
                    dataset = sample_outcomes(design, P0, model_row1, seed, replication=r)
                    assert drawn == dataset.patterns
                    assert row.tobytes() == np.concatenate(dataset.counts).tobytes()

    def test_one_pass_from_a_later_replication_matches_each_bitwise(self, model_row1):
        # the generator is re-keyed for every cell, so a pass that starts at
        # replication 5 draws what each replication draws alone
        patterns = all_patterns(model_row1)
        design = design_from_fractions(np.full(len(patterns), 1.0 / len(patterns)), C, patterns)
        replications = range(5, 9)
        for seed in (0, 123):
            drawn, _, _, counts = _sample(design, P0, model_row1, seed, replications)
            assert counts.shape[0] == len(replications)
            for r, row in zip(replications, counts):
                dataset = sample_outcomes(design, P0, model_row1, seed, replication=r)
                assert drawn == dataset.patterns
                assert row.tobytes() == np.concatenate(dataset.counts).tobytes()

    def test_one_seed_sequence_per_pass(self, monkeypatch, model_row1, row1_solution):
        # the seed's one key serves every cell: no SeedSequence per cell
        made = []

        def counting(*args, **kwargs):
            made.append(args)
            return seed_sequence(*args, **kwargs)

        seed_sequence = np.random.SeedSequence
        monkeypatch.setattr(np.random, "SeedSequence", counting)
        _, _, _, counts = _sample(row1_solution.design, P0, model_row1, 7, range(30))
        assert counts.shape[0] == 30
        assert made == [(7,)]

    def test_late_replication_matches_seed_sequence_bitwise(self, model_row1):
        # the last replication a 64-bit counter word holds, at the last
        # pattern index, on a seed of three 32-bit words
        patterns = all_patterns(model_row1)
        design = design_from_fractions(np.full(len(patterns), 1.0 / len(patterns)), C, patterns)
        assert design.integer_counts[-1] > 0
        replication = 2**64 - 1
        dataset = sample_outcomes(design, P0, model_row1, seed=2**70, replication=replication)
        q, ends = _pattern_tables(model_row1).stacked(dataset.patterns)
        mixture = state_order_mixture(q, P0)
        assert len(dataset.counts) == len(patterns)
        for index, (n, start, stop, got) in enumerate(
            zip(design.integer_counts, [0, *ends], ends, dataset.counts)
        ):
            want = philox_cell(2**70, replication, index).multinomial(int(n), mixture[start:stop])
            assert got.tobytes() == want.tobytes()

    def test_budget_buying_no_participant_rejected(self, model_row1):
        full = make_pattern((1, 1, 1), model_row1)
        design = design_from_fractions([1.0], 0.5 * full.cost, [full])
        message = re.escape(
            f"budget {design.budget:g} buys no participant: "
            "the design has no pattern with a positive integer count"
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample_outcomes(design, P0, model_row1, seed=0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulate_estimates(P0, model_row1, design, replications=3, seed=0)

    def test_point_summing_just_above_one(self, model_row1, row1_solution):
        # a parameter may sum to 1 + 1e-9, beyond what numpy's multinomial takes
        p = np.array([0.5, 0.5 + 5e-10, 0.0])
        design = row1_solution.design
        dataset = sample_outcomes(design, p, model_row1, seed=4)
        drawn = design.integer_counts[design.integer_counts > 0]
        assert [int(c.sum()) for c in dataset.counts] == [int(n) for n in drawn]
        estimates = simulate_estimates(p, model_row1, design, replications=3, seed=4)
        assert np.isfinite(estimates).all()

    def test_frequencies_match_mixture_at_scale(self, model_row1):
        # one million participants on the full pattern: a goodness-of-fit
        # test against the mixture distribution passes at the 1% level
        full = make_pattern((1, 1, 1), model_row1)
        design = design_from_fractions([1.0], 1e6 * full.cost, [full])
        assert design.integer_counts[0] == 1_000_000
        dataset = sample_outcomes(design, P0, model_row1, seed=2024)
        expected = np.array(
            [mixture_prob(y, full, P0, model_row1) for y in outcome_space(full)]
        )
        result = scipy.stats.chisquare(dataset.counts[0], f_exp=1e6 * expected)
        assert result.pvalue > 0.01

    def test_degenerate_all_negative(self, model_row1):
        sharp = model_row1.with_test_overrides(
            {t.id: {"specificity": 1.0 - 1e-12} for t in model_row1.tests}
        )
        full = make_pattern((1, 1, 1), sharp)
        design = design_from_fractions([1.0], 1000 * full.cost, [full])
        dataset = sample_outcomes(design, np.zeros(3), sharp, seed=3)
        # all mass on the all-negative outcome, which is the first row
        assert dataset.counts[0][0] == 1000
        assert dataset.counts[0][1:].sum() == 0


class TestMLE:
    def test_noiseless_tests_recover_state_frequencies(self, model_row1):
        sharp = model_row1.with_test_overrides(
            {
                t.id: {"sensitivity": 1.0 - 1e-12, "specificity": 1.0 - 1e-12}
                for t in model_row1.tests
            }
        )
        full = make_pattern((1, 1, 1), sharp)
        design = design_from_fractions([1.0], 20_000 * full.cost, [full])
        dataset = sample_outcomes(design, P0, sharp, seed=5)
        estimate = mle(dataset, sharp)
        # with exact tests each state maps to its nominal outcome row
        ys = outcome_space(full)
        counts = dataset.counts[0]
        total = counts.sum()
        for s in range(sharp.k):
            nominal = tuple(int(x) for x in sharp.nominal[s])
            frequency = counts[ys.index(nominal)] / total
            assert estimate[s] == pytest.approx(frequency, abs=1e-6)

    def test_small_dataset_matches_grid_search(self, model_row1):
        # ten observations across three patterns, fitted against a brute-force
        # profile of the likelihood on a 0.001 grid
        patterns = [
            make_pattern((0, 0, 1), model_row1),
            make_pattern((1, 0, 1), model_row1),
            make_pattern((1, 1, 1), model_row1),
        ]
        dataset = SurveyDataset(
            patterns=tuple(patterns),
            counts=(
                np.array([2, 1]),
                np.array([1, 0, 1, 1]),
                np.array([1, 0, 0, 1, 0, 0, 0, 1]),
            ),
            seed=0,
        )
        estimate = mle(dataset, model_row1)
        q, counts = outcome_table(dataset, model_row1)

        def loglik_grid(centre, axis):
            # the best of the feasible points centre + (a, b, c) over the axis cube
            cube = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
            points = centre + cube
            points = points[(points >= 0).all(axis=1) & (points.sum(axis=1) <= 1.0 + 1e-12)]
            pi = np.hstack([points, 1.0 - points.sum(axis=1, keepdims=True)])
            return points[np.argmax(np.log(pi @ q.T) @ counts)]

        rough = loglik_grid(np.zeros(3), np.arange(0.0, 1.0001, 0.01))
        oracle = loglik_grid(rough, np.arange(-0.02, 0.0201, 0.001))
        assert np.abs(estimate - oracle).max() <= 0.002

    def test_fit_starts_within_a_few_newton_steps(self, monkeypatch, model_row1, row1_solution):
        # every Newton pass projects once, and so does the start; a start
        # far from the estimate, such as the equal-probability point, takes 9
        calls = []
        project = simulate._project_feasible
        monkeypatch.setattr(
            simulate, "_project_feasible", lambda x: calls.append(len(x)) or project(x)
        )
        simulate_estimates(P0, model_row1, row1_solution.design, replications=50, seed=0)
        assert len(calls) <= 6

    def test_pattern_without_participants_is_fitted(self, model_row1):
        # its least-squares weight is sqrt(0); its rows must not turn the start into 0/0
        dataset = SurveyDataset(
            patterns=(make_pattern((0, 0, 1), model_row1), make_pattern((1, 1, 1), model_row1)),
            counts=(np.zeros(2, dtype=np.int64), np.array([30, 5, 2, 9, 4, 1, 3, 46])),
            seed=0,
        )
        estimate = mle(dataset, model_row1)
        assert np.isfinite(estimate).all()
        assert projected_gradient(dataset, estimate, model_row1) <= MLE_TOL

    def test_estimate_dominates_truth(self, model_row1, row1_solution):
        design = row1_solution.design
        for replication in range(5):
            dataset = sample_outcomes(design, P0, model_row1, seed=17, replication=replication)
            estimate = mle(dataset, model_row1)
            assert log_likelihood(dataset, estimate, model_row1) >= log_likelihood(
                dataset, P0, model_row1
            )

    def test_replication_469_is_certified(self, model_row1, row1_solution):
        # an ordinary sample on which projected gradient ascent stopped at a
        # projected gradient of 1.04e-7; the whole 800-replication check
        # raised ConvergenceError
        v = row1_solution.design.fractions
        report = simulation_report(P0, model_row1, v, C, replications=800, seed=27)
        assert report["empirical_variance"] > 0 and np.isfinite(report["ratio"])
        design = design_from_fractions(v, C, all_patterns(model_row1))
        dataset = sample_outcomes(design, P0, model_row1, seed=27, replication=469)
        estimate = mle(dataset, model_row1)
        assert projected_gradient(dataset, estimate, model_row1) <= MLE_TOL

    def test_random_datasets_certified_on_every_face(self):
        rng = np.random.default_rng(20261018)
        on_zero_face = on_sum_face = 0
        for seed in range(200):
            model, p, dataset = random_dataset(rng, seed)
            estimate = mle(dataset, model)
            assert estimate.min() >= 0.0 and estimate.sum() <= 1.0 + 1e-12
            assert projected_gradient(dataset, estimate, model) <= MLE_TOL
            q, counts = outcome_table(dataset, model)
            loglik = [counts @ np.log(q @ np.append(x, 1.0 - x.sum())) for x in (estimate, p)]
            assert loglik[0] >= loglik[1] - 1e-12 * abs(loglik[1])
            on_zero_face += estimate.min() == 0.0
            on_sum_face += estimate.sum() >= 1.0 - 1e-12
        assert on_zero_face >= 10
        assert on_sum_face >= 1

    def test_batched_fit_matches_single_fits(self, model_row1, row1_solution):
        design = row1_solution.design
        batched = simulate_estimates(P0, model_row1, design, replications=40, seed=3)
        single = [
            model_row1.u @ mle(sample_outcomes(design, P0, model_row1, seed=3, replication=r), model_row1)
            for r in range(40)
        ]
        assert np.abs(batched - single).max() <= 1e-12

    def test_replications_order_independent(self, model_row1, row1_solution):
        design = row1_solution.design
        ten = simulate_estimates(P0, model_row1, design, replications=10, seed=12)
        three = simulate_estimates(P0, model_row1, design, replications=3, seed=12)
        assert np.abs(ten[:3] - three).max() <= 1e-12

    def test_step_cap_raises_with_the_last_iterates(self, monkeypatch, model_row1, row1_solution):
        monkeypatch.setattr(simulate, "MLE_MAX_STEPS", 0)
        design = row1_solution.design
        dataset = sample_outcomes(design, P0, model_row1, seed=17, replication=0)
        with pytest.raises(ConvergenceError, match="MLE did not converge") as single:
            mle(dataset, model_row1)
        assert single.value.best.shape == (1, model_row1.k)
        with pytest.raises(ConvergenceError, match="MLE did not converge") as batched:
            simulate_estimates(P0, model_row1, design, replications=5, seed=3)
        assert batched.value.best.shape == (5, model_row1.k)

    def test_estimates_reproducible(self, model_row1, row1_solution):
        design = row1_solution.design
        a = simulate_estimates(P0, model_row1, design, replications=3, seed=11)
        b = simulate_estimates(P0, model_row1, design, replications=3, seed=11)
        assert np.array_equal(a, b)


class TestVarianceCheck:
    def test_row1_ratio_near_one(self, model_row1, row1_solution):
        report = simulation_report(
            P0, model_row1, row1_solution.design.fractions, C, replications=200, seed=0
        )
        assert report["predicted_variance"] == pytest.approx(row1_solution.min_variance, rel=1e-12)
        assert 0.90 <= report["ratio"] <= 1.10

    def test_doubling_budget_halves_variance(self, model_row1, row1_solution):
        v = row1_solution.design.fractions
        ratio_c = simulation_report(P0, model_row1, v, C, replications=1600, seed=21)["ratio"]
        ratio_2c = simulation_report(
            P0, model_row1, v, 2 * C, replications=1600, seed=22
        )["ratio"]
        # predicted variance halves exactly; the empirical ratios agree up to
        # noise, whose standard deviation is about 2 / sqrt(replications),
        # so the 0.15 band is about three of them
        assert 0.85 <= ratio_2c / ratio_c <= 1.15

    def test_uniform_design_is_worse(self, model_row1, row1_solution):
        patterns = all_patterns(model_row1)
        uniform = np.full(len(patterns), 1.0 / len(patterns))
        empirical = simulation_report(P0, model_row1, uniform, C, replications=150, seed=33)[
            "empirical_variance"
        ]
        # suboptimal design cannot beat the optimal predicted variance
        # (beyond two Monte-Carlo standard errors of the variance estimate)
        mc_se = empirical * np.sqrt(2.0 / 149)
        assert empirical >= row1_solution.min_variance - 2 * mc_se

    def test_bias_shrinks_with_budget(self, model_row1, row1_solution):
        v = row1_solution.design.fractions
        small = simulation_report(P0, model_row1, v, C, replications=150, seed=44)
        large = simulation_report(P0, model_row1, v, 4 * C, replications=150, seed=45)
        se_small = np.sqrt(small["empirical_variance"] / 150)
        assert abs(large["bias"]) <= abs(small["bias"]) + 2 * se_small

    def test_too_few_replications_rejected(self, model_row1, row1_solution):
        # the normality test needs 8 estimates
        v = row1_solution.design.fractions
        with pytest.raises(ValueError, match="at least 8 replications"):
            simulation_report(P0, model_row1, v, C, replications=7, seed=0)
        with pytest.raises(ValueError, match="at least 8 replications"):
            simulation_report(P0, model_row1, v, C, replications=1, seed=0)

    def test_design_not_identifying_p_rejected_before_any_draw(self, monkeypatch, model_row1):
        # the antibody test alone does not identify p: its predicted
        # variance is infinite, so there is no ratio to grade
        def no_draw(*args):
            raise AssertionError("sampled a design that cannot estimate u'p")

        monkeypatch.setattr(simulate, "_sample", no_draw)
        v = np.eye(len(all_patterns(model_row1)))[0]
        assert all_patterns(model_row1)[0].label == "001"
        message = "blended information matrix is singular; predicted variance undefined"
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulation_report(P0, model_row1, v, C, replications=20, seed=0)

    def test_normality_of_estimates(self, model_row1, row1_solution):
        estimates = simulate_estimates(
            P0, model_row1, row1_solution.design, replications=500, seed=7
        )
        assert jarque_bera_pvalue(estimates) > 0.01
        # sanity of the test itself: an exponential sample is rejected
        rng = np.random.default_rng(8)
        assert jarque_bera_pvalue(rng.exponential(size=500)) < 0.01


BASE = default_model()
PAIR = make_pattern((1, 0, 1), BASE)
ONE = make_pattern((0, 0, 1), BASE)
DESIGN = design_from_fractions(np.eye(7)[4], C, all_patterns(BASE))

# The three sampling entry points, each at valid arguments unless overridden.
SAMPLERS = {
    "sample": lambda seed=0, replication=0: sample_outcomes(DESIGN, P0, BASE, seed, replication),
    "estimates": lambda seed=0, replications=8: simulate_estimates(P0, BASE, DESIGN, replications, seed),
    "report": lambda seed=0, replications=8: simulation_report(
        P0, BASE, DESIGN.fractions, C, replications, seed
    ),
}

# Each rule on a dataset or a replication count, with its message.
INPUT_ERRORS = {
    "dataset-count-vectors": (
        lambda: SurveyDataset(patterns=(PAIR,), counts=(), seed=0),
        "need one count vector per pattern",
    ),
    "dataset-count-shape": (
        lambda: SurveyDataset(patterns=(PAIR,), counts=([1, 2, 3],), seed=0),
        "pattern 101: expected 4 outcome counts, got shape (3,)",
    ),
    "dataset-negative-count": (
        lambda: SurveyDataset(patterns=(PAIR,), counts=([1, -1, 0, 0],), seed=0),
        "pattern 101: negative outcome count",
    ),
    # counts that an int64 cast would truncate, parse or overflow
    **{
        f"dataset-count-{case}": (
            lambda counts=counts: SurveyDataset(patterns=(ONE,), counts=(counts,), seed=0),
            f"pattern 001: outcome counts must be integers that fit in int64, got {counts!r}",
        )
        for case, counts in [
            ("fraction", [1.5, 0.5]),
            ("text", ["3", "1"]),
            ("past-int64", [2**70, 1]),
            ("nan", [float("nan"), 1.0]),
        ]
    },
    "mle-empty": (
        lambda: mle(SurveyDataset(patterns=(), counts=(), seed=0), BASE),
        "dataset is empty",
    ),
    "mle-no-observations": (
        lambda: mle(SurveyDataset(patterns=(PAIR,), counts=([0, 0, 0, 0],), seed=0), BASE),
        "dataset has no observations",
    ),
    "no-replications": (
        lambda: simulate_estimates(P0, BASE, DESIGN, replications=0, seed=0),
        "need at least 1 replication, got 0",
    ),
    # a seed or replication number that is negative or not an integer, by name
    **{
        f"{call}-{name}-{value}": (
            lambda call=call, name=name, value=value: SAMPLERS[call](**{name: value}),
            f"{name} must be a non-negative integer, got {value!r}",
        )
        for call, names in [
            ("sample", ("seed", "replication")),
            ("estimates", ("seed", "replications")),
            ("report", ("seed", "replications")),
        ]
        for name in names
        for value in (-1, 1.5)
    },
    # a replication past the last that counter word 2 of a cell's Philox
    # stream holds, 2**64 - 1, refused before any draw
    **{
        f"{call}-{name}-2**64": (
            lambda call=call, name=name, value=value: SAMPLERS[call](**{name: value}),
            "replications must be numbered below 2**64, got replication 18446744073709551616",
        )
        for call, name, value in [
            ("sample", "replication", 2**64),
            ("estimates", "replications", 2**64 + 1),
            ("report", "replications", 2**64 + 1),
        ]
    },
    # more replications than one count matrix of the design's 4 outcome
    # columns can hold, refused before it is allocated
    **{
        f"{call}-replications-{value}": (
            lambda call=call, value=value: SAMPLERS[call](replications=value),
            "replications must be at most 288230376151711743 to hold 4 outcome counts "
            f"each in one array, got {value}",
        )
        for call in ("estimates", "report")
        for value in (2**62, 2**63, 2**64 - 1)
    },
    "window-2**64": (
        lambda: _sample(DESIGN, P0, BASE, 0, range(2**64 - 1, 2**64 + 1)),
        "replications must be numbered below 2**64, got replication 18446744073709551616",
    ),
    "normality-too-few-values": (
        lambda: jarque_bera_pvalue(np.arange(7.0)),
        "need at least 8 values for a normality test, got 7",
    ),
}


@pytest.mark.parametrize("case", list(INPUT_ERRORS))
def test_input_error_message(case):
    call, message = INPUT_ERRORS[case]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_constant_values_are_not_normal():
    assert jarque_bera_pvalue(np.full(8, 0.4)) == 0.0
