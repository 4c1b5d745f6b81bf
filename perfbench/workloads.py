"""The benchmark's workloads: fixed job lists and how one job is run.

Every job is a fixed (n, p, q) instance.  The seed only permutes the order
in which jobs run, so every seed asks for the same answers.

table5  the job list of `hardsquares table --max-n 5`: build the Morse
        complex of (n, n, n) for n = 2..5, then restrict it to each board
        p <= q <= n and take GF(2) Betti numbers (19 boards).  Morse build,
        restriction and integer-coefficient reduction.
direct  oracle.direct_betti on five instances: the full cubical complex with
        no gradient.  Enumeration, cubical boundaries and unit-coefficient
        reduction; no Morse build and no worker pool.
census  grid.f_vector plus morse.critical_counts for every board
        2 <= p <= q <= 5 and 2 <= n <= min(6, pq): counts cells without
        building them, so no homology or reduction at all.
"""

from __future__ import annotations

import random

NAMES = ("table5", "direct", "census")

DIRECT_INSTANCES = ((3, 3, 3), (4, 2, 4), (4, 3, 3), (5, 2, 4), (4, 3, 4))


def _table5_groups():
    groups = []
    for n in range(2, 6):
        boards = [
            (p, q)
            for p in range(2, n + 1)
            for q in range(p, n + 1)
            if n <= p * q
        ]
        groups.append((n, boards))
    return groups


def job_list(workload, seed):
    """Jobs as (kind, n, p, q) tuples, in the order the seed gives.

    table5 keeps each build before the boards restricted from it: the seed
    permutes the order of the builds and the order of boards within each.
    """
    rng = random.Random(seed)
    if workload == "table5":
        groups = _table5_groups()
        rng.shuffle(groups)
        jobs = []
        for n, boards in groups:
            rng.shuffle(boards)
            jobs.append(("build", n, n, n))
            jobs.extend(("betti", n, p, q) for p, q in boards)
        return jobs
    if workload == "direct":
        jobs = [("direct",) + inst for inst in DIRECT_INSTANCES]
    elif workload == "census":
        jobs = [
            ("census", n, p, q)
            for p in range(2, 6)
            for q in range(p, 6)
            for n in range(2, min(6, p * q) + 1)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


class Runner:
    """Runs jobs in list order, holding the one Morse complex table5 reuses."""

    def __init__(self, threads):
        self.threads = threads
        self.complex = None

    def run(self, job):
        "The job's answer as JSON-ready data."
        from hardsquares import grid, morse, oracle

        kind, n, p, q = job
        if kind == "build":
            self.complex = None
            self.complex = morse.build_morse_complex(n, p, q, threads=self.threads)
            return list(self.complex.counts)
        if kind == "betti":
            if self.complex is None or self.complex.n != n:
                raise RuntimeError(f"no Morse complex built for n={n}")
            sub = self.complex.restrict(p, q)
            return {"betti": list(sub.betti("gf2")), "morse": list(sub.counts)}
        if kind == "direct":
            return list(oracle.direct_betti(n, p, q))
        if kind == "census":
            return {
                "f": list(grid.f_vector(n, p, q, threads=self.threads)),
                "morse": list(morse.critical_counts(n, p, q)),
            }
        raise ValueError(f"unknown job kind {kind!r}")
