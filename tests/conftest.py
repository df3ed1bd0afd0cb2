"""A wall-clock limit for every test.

Each test fails once it has run for `LIMIT_S` seconds, with a message
naming the limit, so a hang (a loop that never ends, say) shows up as
one failed test instead of a stalled run. The limit is a real-time
interval timer (`signal.setitimer`) whose SIGALRM handler fails the
test; the handler that was there before comes back afterwards. The
slowest test takes well under a tenth of the limit."""

import signal

import pytest

LIMIT_S = 120


@pytest.fixture(autouse=True)
def wall_clock_limit(request):
    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past its wall-clock limit of {LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
