"""Outcome probabilities of a test pattern, one outcome at a time.

The scalar oracle for the stacked pattern table: it reads a model's tests,
nominal matrix and target dimension, and a pattern's mask, as plain data,
and shares no code with serodesign.  An outcome is a tuple with 0 or 1 at
every conducted test and None at the rest.
"""

import itertools

import numpy as np


def outcome_space(t):
    """All outcomes of pattern t, lexicographic over its conducted tests,
    first test most significant."""
    included = [j for j, m in enumerate(t.mask) if m]
    outcomes = []
    for bits in itertools.product((0, 1), repeat=len(included)):
        y = [None] * len(t.mask)
        for j, b in zip(included, bits):
            y[j] = b
        outcomes.append(tuple(y))
    return outcomes


def conditional_prob(y, state, t, model):
    """P(outcome y | state, pattern t), state in 0..k with k the reference.

    Starts at 1.0 and multiplies in, in test order, each conducted test's
    sensitivity or specificity where y matches the state's nominal
    response, and one minus it where it does not.
    """
    prob = 1.0
    for j, m in enumerate(t.mask):
        if m:
            nominal = model.nominal[state, j]
            test = model.tests[j]
            correct = test.sensitivity if nominal == 1 else test.specificity
            prob *= correct if y[j] == nominal else 1.0 - correct
    return prob


def mixture_prob(y, t, p, model):
    """P(outcome y | pattern t) under state probabilities (p, 1 - sum(p))."""
    p = np.asarray(p, dtype=np.float64)
    total = (1.0 - p.sum()) * conditional_prob(y, model.k, t, model)
    for s in range(model.k):
        total += p[s] * conditional_prob(y, s, t, model)
    return float(total)


def outcome_rows(t, model):
    """(outcomes, k + 1) array of P(y | state) over outcome_space(t)."""
    return np.array(
        [[conditional_prob(y, s, t, model) for s in range(model.k + 1)] for y in outcome_space(t)]
    )
