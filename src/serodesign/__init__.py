"""Budget-constrained optimal designs for multi-test epidemiological surveys.

Given a set of diagnostic tests with costs, sensitivities, and
specificities, this package computes how to split a survey budget across
subsets of tests so that a linear function of the latent disease-state
probabilities is estimated with the smallest possible variance:
locally optimal designs at a guessed parameter, worst-case designs over a
parameter box, budget allocations across strata or observable groups, and
a Monte-Carlo harness that verifies the predicted variance against the
maximum-likelihood pipeline.
"""

from . import allocation, coptimal, minimax, model, simulate
from .allocation import *  # noqa: F403
from .coptimal import *  # noqa: F403
from .minimax import *  # noqa: F403
from .model import *  # noqa: F403
from .simulate import *  # noqa: F403

__version__ = "0.1.0"

# Each public name is declared once, in its module's __all__.
__all__ = sorted(
    name for module in (allocation, coptimal, minimax, model, simulate) for name in module.__all__
)
