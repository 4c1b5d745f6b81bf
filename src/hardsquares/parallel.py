"""Deterministic process-pool mapping.

Work is split into an ordered list of jobs; results come back in job
order, so reductions are independent of the worker count and outputs are
byte-identical at any parallelism level.  pmap forks at most one worker
per job and per usable CPU, whatever thread count it is asked for.  A
worker that dies (killed, or calling os._exit) makes pmap raise
concurrent.futures.process.BrokenProcessPool instead of waiting forever.
"""

from __future__ import annotations

import os


def default_threads():
    "The number of CPUs this process may run on (its affinity mask)."
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pmap(fn, jobs, threads):
    "Map fn over jobs, in order; forks workers when more than one is usable."
    jobs = list(jobs)
    workers = min(threads, len(jobs), default_threads())
    if workers <= 1:
        return [fn(job) for job in jobs]
    # imported here, so that importing the package does not load the executor
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=ctx) as pool:
        return list(pool.map(fn, jobs))
