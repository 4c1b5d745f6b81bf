import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from hardsquares.parallel import pmap


def die(_):
    os._exit(1)


def pid_and_square(job):
    return os.getpid(), job * job


def test_dead_worker_raises_promptly(monkeypatch):
    def hung(signum, frame):
        raise TimeoutError("pmap still blocked after a worker died")

    # two usable CPUs, so pmap forks on any host rather than run die here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
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


def test_workers_clamped_to_usable_cpus(monkeypatch):
    # one usable CPU on a many-CPU machine (taskset -c 0): no worker is forked,
    # however many threads are asked for
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    results = pmap(pid_and_square, range(5), 10**6)
    assert {pid for pid, _ in results} == {os.getpid()}
    assert results == pmap(pid_and_square, range(5), 1)
