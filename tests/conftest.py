import pytest


def pytest_collection_modifyitems(items):
    # A file handle left open fails the test that leaked it. The filters sit
    # here, not in pyproject.toml, so they govern tier-1 only.
    for item in items:
        item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
        item.add_marker(pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"))
