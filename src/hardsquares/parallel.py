"""Deterministic process-pool mapping.

Work is split into an ordered list of jobs; results come back in job
order, so reductions are independent of the worker count and outputs are
byte-identical at any parallelism level.  A worker that dies (killed, or
calling os._exit) makes pmap raise
concurrent.futures.process.BrokenProcessPool instead of waiting forever.
"""

from __future__ import annotations

import os


def default_threads():
    return os.cpu_count() or 1


def pmap(fn, jobs, threads):
    "Map fn over jobs, in order; forks worker processes when threads > 1."
    jobs = list(jobs)
    if threads <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    # imported here, so that importing the package does not load the executor
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(min(threads, len(jobs)), mp_context=ctx) as pool:
        return list(pool.map(fn, jobs))
