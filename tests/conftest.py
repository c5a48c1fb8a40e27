import os

import hypothesis
import numpy as np
import pytest

from concur import SeededRng

hypothesis.settings.register_profile(
    "default", max_examples=50, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
# HYPOTHESIS_PROFILE=ci: ten times the examples, for the fast kernels and
# readers against their slow references
hypothesis.settings.register_profile(
    "ci", hypothesis.settings.get_profile("default"), max_examples=500)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng():
    return SeededRng(20240810)


def binomial_3se(p: float, n: int) -> float:
    return 3.0 * np.sqrt(max(p * (1.0 - p), 1e-12) / n)
