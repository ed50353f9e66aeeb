import gc

import pytest


@pytest.fixture(autouse=True)
def _collector_left_on():
    """Fail a test that leaves the cyclic garbage collector disabled, and
    turn it back on, so one such test cannot hide another."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
