"""The wall-clock limit of `conftest.py` is armed for every test and
fails a test that runs past it."""

import signal
import time

import pytest
from conftest import LIMIT_S


def test_each_test_runs_under_the_limit():
    remaining, interval = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= LIMIT_S and interval == 0


def test_a_test_past_the_limit_fails():
    # the timer is cut short here, as if the limit had run out
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    with pytest.raises(pytest.fail.Exception, match="wall-clock limit of"):
        time.sleep(5)
