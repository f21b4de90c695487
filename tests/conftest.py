import numpy as np
import pytest

import finsleroid as fl


@pytest.fixture
def ctx3():
    return fl.MetricContext(3)


@pytest.fixture
def ctx2():
    return fl.MetricContext(2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
