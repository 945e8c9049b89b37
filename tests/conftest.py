import pytest

from ascpart import CountContext


@pytest.fixture(scope="session")
def ctx():
    """One shared count context; its cached columns only ever get longer."""
    return CountContext()
