"""Deterministic process-pool mapping.

Work is split into an ordered list of jobs; results come back in job
order, so reductions are independent of the worker count and outputs are
byte-identical at any parallelism level.  pmap forks at most one worker
per job and per usable CPU, whatever thread count it is asked for, with
plain os.fork: no executor and no pickled jobs, since each worker already
holds the job list.  Each worker runs a fixed share, dealt snake-wise:
job i goes to worker i mod w on even rounds of w jobs and to worker
w - 1 - (i mod w) on odd rounds, so callers that list heavy jobs first
get balanced shares, and which worker runs a job never depends on timing.
A worker pickles one list of its results, or its exception, straight
into a pipe (pickle.dump) and leaves with os._exit; the parent reads the
pipes in worker order, unpickling from each as it reads (pickle.load), so
neither side holds a whole payload as bytes beside the objects it
stands for.  The parent re-raises a worker's exception with its type.  A
worker that dies (killed, or calling os._exit) before sending all of its
results, or whose results cannot be pickled, ends its stream early and
exits non-zero; pmap then raises
concurrent.futures.process.BrokenProcessPool instead of waiting forever
or trusting the truncated stream.  That module is imported only to
raise, so a pmap that succeeds never loads it.  Every worker is reaped
before pmap returns or raises, and killed first when pmap raises.  As
with any fork, the calling process must run no other threads;
hardsquares starts none.
"""

from __future__ import annotations

import os


def default_threads():
    "The number of CPUs this process may run on (its affinity mask)."
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shares(count, workers):
    "Job indices of each worker: dealt in rounds of workers, every other round reversed."
    shares = [[] for _ in range(workers)]
    for i in range(count):
        turn, k = divmod(i, workers)
        shares[workers - 1 - k if turn % 2 else k].append(i)
    return shares


def _work(fn, jobs, share, read_end, write_end):
    """A forked worker's whole life: run its share of the jobs and pickle the
    results, or the exception, into the pipe.  Never returns; exits 0 only
    once the whole stream is written."""
    code = 1
    try:
        import pickle

        os.close(read_end)
        try:
            outcome = True, [fn(jobs[i]) for i in share]
        except BaseException as exc:  # KeyboardInterrupt too: pmap re-raises it
            outcome = False, exc
        with open(write_end, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def pmap(fn, jobs, threads):
    "Map fn over jobs, in order; forks workers when more than one is usable."
    jobs = list(jobs)
    workers = min(threads, len(jobs), default_threads())
    if workers <= 1:
        return [fn(job) for job in jobs]
    # imported here, so that the serial path and importing the package load neither
    import pickle
    import signal

    shares = _shares(len(jobs), workers)
    children = {}  # pid -> read end of its pipe, until the worker is reaped
    try:
        for share in shares:
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(fn, jobs, share, read_end, write_end)
            os.close(write_end)
            children[pid] = read_end
        results = [None] * len(jobs)
        for pid, share in zip(list(children), shares):
            with open(children[pid], "rb", closefd=False) as pipe:
                try:
                    done, value = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError) as exc:
                    # a truncated stream: the exit status says why
                    done, value = False, exc
            _, status = os.waitpid(pid, 0)
            os.close(children.pop(pid))
            # a worker exits 0 only after writing its whole stream
            if status:
                from concurrent.futures.process import BrokenProcessPool

                raise BrokenProcessPool(
                    f"worker {pid} ended with status {os.waitstatus_to_exitcode(status)}"
                    " before sending its results"
                )
            if not done:
                raise value
            for i, result in zip(share, value):
                results[i] = result
        return results
    finally:
        # left only when pmap raises: stop the rest of the workers, then reap them
        for pid, read_end in children.items():
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
