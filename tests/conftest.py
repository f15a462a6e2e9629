"""A time limit for every test, so one that hangs fails and the run goes on.

The acceptance criteria train real networks for minutes; every other test
finishes in a few seconds, so a minute-scale limit is far above its cost.
"""
import signal

import pytest

ACCEPTANCE_LIMIT_S = 1800
TEST_LIMIT_S = 120


@pytest.fixture(autouse=True)
def time_limit(request):
    limit = (ACCEPTANCE_LIMIT_S if request.node.path.name == "test_acceptance.py"
             else TEST_LIMIT_S)

    def expire(signum, frame):
        raise TimeoutError(f"{request.node.nodeid} ran past its {limit} s time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(limit)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
