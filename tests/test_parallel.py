import os
import signal
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import pytest

from hardsquares import morse, parallel
from hardsquares.parallel import pmap

import shared


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


def two_cpus(monkeypatch):
    # two usable CPUs, so pmap forks on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_jobs_are_dealt_snake_wise(monkeypatch):
    # rounds of w jobs, every other round dealt from the last worker back
    for cpus, count, shares in (
        (2, 7, [{0, 3, 4}, {1, 2, 5, 6}]),
        (3, 8, [{0, 5, 6}, {1, 4, 7}, {2, 3}]),
    ):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)), raising=False
        )
        results = pmap(pid_and_square, range(count), cpus)
        assert [square for _, square in results] == [i * i for i in range(count)]
        by_pid = {}
        for i, (pid, _) in enumerate(results):
            by_pid.setdefault(pid, set()).add(i)
        assert os.getpid() not in by_pid
        assert sorted(by_pid.values(), key=min) == shares
        assert_no_child_left()


def pairing_breaks_on_one(job):
    if job == 1:
        raise morse.BrokenPairing(f"closed V-path through job {job}")
    return job


def test_worker_exception_keeps_its_type_and_message(monkeypatch):
    two_cpus(monkeypatch)
    with pytest.raises(morse.BrokenPairing, match="^closed V-path through job 1$"):
        pmap(pairing_breaks_on_one, range(4), 2)
    assert_no_child_left()


def first_fails_second_hangs(job):
    if job == 0:
        raise ValueError("job 0 failed")
    time.sleep(60)


def test_worker_exception_stops_the_other_workers(monkeypatch):
    two_cpus(monkeypatch)
    start = time.monotonic()
    with shared.deadline(10, "pmap waited for a worker after another one raised"):
        with pytest.raises(ValueError, match="job 0 failed"):
            pmap(first_fails_second_hangs, [0, 1], 2)
    assert time.monotonic() - start < 10
    assert_no_child_left()


def test_no_child_left_after_success_or_a_dead_worker(monkeypatch):
    two_cpus(monkeypatch)
    assert [square for _, square in pmap(pid_and_square, range(5), 2)] == [
        i * i for i in range(5)
    ]
    assert_no_child_left()
    with pytest.raises(BrokenProcessPool):
        pmap(die, [0, 1], 2)
    assert_no_child_left()


def test_a_pmap_that_succeeds_leaves_the_pool_module_unloaded():
    # pmap needs concurrent.futures.process only to raise BrokenProcessPool,
    # so a fresh interpreter whose workers all succeed never imports it
    script = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from hardsquares.parallel import pmap

def pid(job):
    return os.getpid()

pids = pmap(pid, [0, 1], 2)
assert len(set(pids)) == 2 and os.getpid() not in pids, pids
assert "concurrent.futures.process" not in sys.modules
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(parallel.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def unpicklable(job):
    return lambda: job


def test_a_result_that_cannot_be_pickled_breaks_the_pool(monkeypatch):
    # the worker's stream ends part-way, so pmap trusts its exit status
    two_cpus(monkeypatch)
    start = time.monotonic()
    with shared.deadline(10, "pmap still blocked on a result that cannot be pickled"):
        with pytest.raises(BrokenProcessPool):
            pmap(unpicklable, [0, 1], 2)
    assert time.monotonic() - start < 10
    assert_no_child_left()


def big_ints(count):
    "count ints of about 10 kB each"
    return [(1 << 80_000) | i for i in range(count)]


def test_a_large_result_is_unpickled_as_it_streams(monkeypatch):
    # about 20 MB of results: holding the pickled bytes beside them would
    # peak near twice that
    two_cpus(monkeypatch)
    tracemalloc.start()
    try:
        results = pmap(big_ints, [2000, 0], 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = sum(map(sys.getsizeof, results[0]))
    assert size > 20_000_000
    assert results == [big_ints(2000), []]
    assert peak < 1.5 * size, f"peak {peak / 1e6:.1f} MB for {size / 1e6:.1f} MB of results"
    assert_no_child_left()
