"""The benchmark's self-tests run on tiny generated inputs of their own."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def _warm_workloads():
    """Overrides the parent conftest's Table-1 warm-up: nothing to generate."""
