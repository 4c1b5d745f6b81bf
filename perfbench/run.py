"""The repository benchmark: exact hard-squares homology on three workloads.

    python3 perfbench/run.py --workload {table5,direct,census} --seed N \
        --seconds S --trace {0,1} [--reference FILE]

Every pass runs the workload's whole job list in a fresh interpreter
(perfbench/worker.py), so the LRU caches start cold and memory and set-up
belong to that pass alone.  Every answer is checked exactly (check.py).

--trace 0 runs passes until --seconds have gone by and at least two
passes have run, and reports the end-to-end metrics as medians over the
passes.  set-up is also sampled by interpreters that stop before the first
job, a batch of them before each pass and another after the last; setup_s
is the fastest of all samples.

--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of the traced one (tracing.py); its spans are written to
perfbench/out/.  trace.overhead_s is traced minus untraced wall time.

The last line of standard output is the result object; the line before it
records the environment and any failed jobs.  The exit code is 0 only when
every answer is right.  --reference FILE replaces published Betti vectors
({"n,p,q": [b0, ...]}), which is how the checker itself is tested.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 10  # set-up-only interpreters before each pass, and after the last
MIN_PASSES = 2
THREADS = 2


class PassFailed(RuntimeError):
    "A worker interpreter exited abnormally or printed no result."


def run_worker(workload, seed, threads, trace=False, setup_only=False):
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--threads", str(threads),
        "--trace", "1" if trace else "0",
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    # its own process group, so that stop_group also reaches the pool workers
    proc = subprocess.Popen(
        cmd + ["--spawned", repr(spawned)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate()
    finally:
        stop_group(proc)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(
            f"worker exited with {proc.returncode}: {stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def stop_group(proc, grace_s=5.0):
    "Kill whatever is left of the worker's process group and wait for it to end."
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        proc.wait()
        return
    proc.wait()
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def probe_setup(workload, seed, threads):
    return [
        run_worker(workload, seed, threads, setup_only=True)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]


def judge(passes, checker):
    "(attempted, failed, first few failure lines) over every job of every pass."
    attempted = failed = 0
    problems = []
    for ps in passes:
        for res in ps["results"]:
            attempted += 1
            job = tuple(res["job"])
            why = res["error"] or checker.problem(job, res["value"])
            if why:
                failed += 1
                if len(problems) < 10:
                    problems.append(f"{job}: {why}")
    return attempted, failed, problems


def end_to_end(passes, setups):
    """Medians over passes; slowest_job_s is the largest per-job median.

    setup_s is the fastest of all set-up samples, which are spread over the
    whole run: a busy host only ever adds time to a set-up, and the host's
    speed changes by a quarter from one span of seconds to the next, so the
    fastest sample is the one least inflated.  A slower set-up raises every
    sample, the fastest too.
    """
    per_job = {}
    for p in passes:
        for r in p["results"]:
            per_job.setdefault(tuple(r["job"]), []).append(r["seconds"])
    return {
        "setup_s": (min(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "slowest_job_s": (max(statistics.median(t) for t in per_job.values()), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(workload, seed, plain, traced):
    import tracing

    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    missing = [m for m in tracing.EXERCISED[workload] if not layers[m]]
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "spans": traced["spans"]}, fh)
    return {name: (layers[name], unit) for name, unit in tracing.METRICS}, missing


def _terminate(signum, frame):
    # SystemExit unwinds through run_worker, which stops the worker's group
    sys.exit(128 + signum)


def main(argv=None):
    import workloads

    signal.signal(signal.SIGTERM, _terminate)

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", help="JSON file of replacement Betti vectors")
    args = ap.parse_args(argv)

    from worker import import_program

    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import the program from this checkout: {exc}", file=sys.stderr)
        return 2
    from check import Checker, load_overrides

    checker = Checker(load_overrides(args.reference) if args.reference else None)
    nproc = len(os.sched_getaffinity(0))
    threads = min(THREADS, nproc)
    w, seed = args.workload, args.seed

    missing = []
    setups = []
    try:
        if args.trace:
            plain = run_worker(w, seed, threads)
            traced = run_worker(w, seed, threads, trace=True)
            passes = [plain, traced]
            metrics, missing = per_layer(w, seed, plain, traced)
        else:
            passes = []
            deadline = time.monotonic() + args.seconds
            while len(passes) < MIN_PASSES or time.monotonic() < deadline:
                setups += probe_setup(w, seed, threads)
                passes.append(run_worker(w, seed, threads))
            setups += probe_setup(w, seed, threads)
            setups += [p["setup_s"] for p in passes]
            metrics = end_to_end(passes, setups)
    except PassFailed as exc:
        print(str(exc), file=sys.stderr)
        return 1

    attempted, failed, problems = judge(passes, checker)
    for name in missing:
        problems.append(f"traced metric {name} is 0 on {w}: a layer binding was missed")
    correct = failed == 0 and not missing
    info = {
        "workload": w,
        "seed": seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_samples_s": setups,
        "nproc": nproc,
        "threads": threads,
        "python": platform.python_version(),
        "failed_share": failed / attempted,
        "problems": problems,
    }
    print(json.dumps(info))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
