import pytest

from helpers import make_context


@pytest.fixture
def ctx():
    return make_context()
