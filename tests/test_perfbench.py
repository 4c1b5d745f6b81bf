import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs():
    # perfbench/tracing.py patches hardsquares by name, so a traced function
    # that is renamed or removed fails here as an AttributeError, without a
    # full perfbench run.  A fresh interpreter keeps the patches out of the
    # other tests.
    script = (
        "import sys\n"
        f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {os.path.join(ROOT, 'perfbench')!r}]\n"
        "import tracing\n"
        "tracing.Tracer().install()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


# A few small jobs of each workload's kinds, enough to move every metric
# tracing.EXERCISED names for it.
SMALL_JOBS = {
    "table5": [("build", 3, 3, 3), ("betti", 3, 2, 3), ("betti", 3, 3, 3)],
    "direct": [("direct", 3, 3, 3)],
    "census": [("census", 3, 2, 3), ("census", 3, 3, 3)],
}


def traced_small_run(workload):
    """Problems and per-layer metrics of SMALL_JOBS[workload], traced in a
    fresh interpreter, so the caches start cold as in a perfbench pass."""
    script = (
        "import json, sys, time\n"
        f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {os.path.join(ROOT, 'perfbench')!r}]\n"
        "import tracing, workloads\n"
        "from check import Checker\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "runner = workloads.Runner(2)\n"
        f"jobs = {SMALL_JOBS[workload]!r}\n"
        "start = time.perf_counter()\n"
        "values = [tracer.call('job', runner.run, i, job) for i, job in enumerate(jobs)]\n"
        "layers = tracer.metrics(time.perf_counter() - start)\n"
        f"problems = [m + ' is 0' for m in tracing.EXERCISED[{workload!r}] if not layers[m]]\n"
        "checker = Checker()\n"
        "for job, value in zip(jobs, values):\n"
        "    why = checker.problem(job, value)\n"
        "    if why:\n"
        "        problems.append(f'{job}: {why}')\n"
        "print(json.dumps([problems, layers]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(SMALL_JOBS))
def test_exercised_metrics_move(workload):
    # a traced perfbench run fails when an exercised metric reads 0 or an
    # answer is wrong; this runs the same bindings on small jobs
    problems, _ = traced_small_run(workload)
    assert problems == []


def test_traced_cache_counts_repeat():
    # each pool worker has its own cached_structure LRU, so the hit/miss
    # split depends on which worker runs which job; pmap's fixed shares
    # make it the same in every run
    keys = ("apexgraph.structure_hits", "apexgraph.structure_misses")
    runs = []
    for _ in range(2):
        _, layers = traced_small_run("table5")
        runs.append([layers[key] for key in keys])
    assert runs[0] == runs[1]
    assert all(runs[0])
