import pytest

from latpack import acceptance


@pytest.fixture(scope="session")
def sweep():
    """One run of the acceptance registry, shared by the gate and the CLI tests."""
    return acceptance.acceptance_sweep()
