"""One pass over a workload's job list, in a fresh interpreter.

    python3 perfbench/worker.py --workload table5 --seed 1 --threads 2 \
        --spawned <time.monotonic() of the parent just before it started us>

Prints one JSON object: the set-up time (from the parent's spawn to the
first timed job), each job's answer and duration, the pass's wall time and
the peak resident memory of this process and of its pool workers.  With
--trace 1 it also carries the per-layer metrics and every recorded span.
With --setup-only it stops before the first job and prints only set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_program():
    "Import hardsquares from this checkout's src/, never from elsewhere."
    sys.path.insert(0, SRC)
    import hardsquares

    origin = os.path.dirname(os.path.dirname(os.path.abspath(hardsquares.__file__)))
    if origin != SRC:
        raise ImportError(f"hardsquares was imported from {origin}, not {SRC}")
    return hardsquares


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_program()
    import workloads

    jobs = workloads.job_list(args.workload, args.seed)
    runner = workloads.Runner(args.threads)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    results = []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        t0 = time.perf_counter()
        value = error = None
        try:
            if tracer:
                value = tracer.call("job", runner.run, i, job)
            else:
                value = runner.run(job)
        except Exception as exc:  # a failed job is counted, the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        results.append(
            {
                "job": list(job),
                "seconds": time.perf_counter() - t0,
                "value": value,
                "error": error,
            }
        )
    wall_s = time.perf_counter() - start
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_kb / 1024,
        "results": results,
    }
    if tracer:
        out["layers"] = tracer.metrics(wall_s)
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
