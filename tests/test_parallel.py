import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from hardsquares.parallel import pmap


def die(_):
    os._exit(1)


def test_dead_worker_raises_promptly():
    def hung(signum, frame):
        raise TimeoutError("pmap still blocked after a worker died")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    start = time.monotonic()
    try:
        with pytest.raises(BrokenProcessPool):
            pmap(die, [0, 1], 2)  # two jobs, so exactly two worker processes
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 10
