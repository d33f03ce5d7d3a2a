import time

import numpy as np
import pytest

from serodesign import DiseaseModel, ParameterBox, TestSpec, default_model, worst_case_design

ROW1_POINT = np.array([0.10, 0.30, 0.01])
ROW4_BOX = ParameterBox(lower=[0.01, 0.10, 0.00], upper=[0.15, 0.50, 0.02])

# Three tests 6e-6 from a coin flip beside one informative test.  A1 holds
# at the point, yet the barrier Hessian of the c-optimal path turns
# singular in floating point before a certificate is reached.
SINGULAR_HESSIAN_CONFIG = {
    "model": {
        "tests": [
            {"id": "a", "cost": 100, "sensitivity": 0.500006, "specificity": 0.500006},
            {"id": "b", "cost": 200, "sensitivity": 0.500006, "specificity": 0.500006},
            {"id": "c", "cost": 300, "sensitivity": 0.500006, "specificity": 0.500006},
            {"id": "d", "cost": 400, "sensitivity": 0.9786, "specificity": 0.9450},
        ],
        "nominal": [[1, 1, 1, 1], [1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1], [1, 1, 1, 0]],
        "u": [1, 1, 1, 1],
    },
    "scenario": {"point": [0.246, 0.427, 0.174, 0.0099]},
    "budget": 1e6,
}


@pytest.fixture(scope="session")
def singular_hessian_model():
    doc = SINGULAR_HESSIAN_CONFIG["model"]
    tests = [TestSpec(**t) for t in doc["tests"]]
    return DiseaseModel(tests=tests, nominal=doc["nominal"], u=doc["u"])


@pytest.fixture(scope="session")
def model_row1():
    return default_model()  # RTPCR at 1600


@pytest.fixture(scope="session")
def model_row2():
    return default_model(rtpcr_cost=1000.0)


@pytest.fixture(scope="session")
def model_row4():
    return default_model(rtpcr_cost=100.0)  # cheap RT-PCR; rows 3 and 4 of the fixtures


@pytest.fixture(scope="session")
def row4_worst_case(model_row4):
    """Worst-case solve over the table1_row4 fixture box; shared because it
    is the most expensive computation in the suite.  Returns (report, elapsed_s)."""
    start = time.perf_counter()
    report = worst_case_design(ROW4_BOX, model_row4, grid_step=0.01, budget=1e7)
    return report, time.perf_counter() - start
