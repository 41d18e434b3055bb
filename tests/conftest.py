import pytest
from hypothesis import settings

from dmy import build_counterexample

# a larger example budget for the property tests that gate soundness claims;
# select it with --hypothesis-profile=ci
settings.register_profile("ci", max_examples=5000)


@pytest.fixture(scope="session")
def bundle():
    """The default construction, built once for the whole run."""
    return build_counterexample(1.01, 0.005, 0.05)
