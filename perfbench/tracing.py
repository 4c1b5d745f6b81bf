"""Per-layer spans and counts, recorded around the public calls into each layer.

Tracer.install() replaces each traced function of hardsquares with a
wrapper, under every name it is reachable by: the defining module and every
module that bound it at import time (oracle binds reduce_complex and rank;
morse binds boundary, relabel, relabel_sign and cached_structure).  Names
imported lazily inside a function body (homology.betti's reduce_complex,
the pmap of build_morse_complex and f_vector) are read from the defining
module on each call, so patching that module covers them.

A span is a dict: id, name, start, end, parent span id, job index.  Spans
of iterators (the boundary stream into reduce_complex, critical_sets) carry
a "busy" time: the time spent inside next(), which the consumer's self time
excludes.  Functions called up to hundreds of thousands of times per pass
(boundary, relabel, relabel_sign, cached_structure, each enumerated cell)
are counted, not timed.  Counts made inside pool workers are sent back
with each result.
"""

from __future__ import annotations

import os
import sys
import time

clock = time.perf_counter

# name, unit; the order of the traced run's output
METRICS = (
    ("reduce.reduce_s", "s"),
    ("reduce.stream_s", "s"),
    ("reduce.cells_in", "count"),
    ("reduce.cells_out", "count"),
    ("reduce.entries_in", "count"),
    ("reduce.cancel_ratio", "ratio"),
    ("homology.betti_s", "s"),
    ("homology.validate_d2_s", "s"),
    ("homology.rank_s", "s"),
    ("homology.rank_cells", "count"),
    ("morse.build_s", "s"),
    ("morse.flow_s", "s"),
    ("morse.critical_sets_s", "s"),
    ("morse.assemble_s", "s"),
    ("morse.restrict_s", "s"),
    ("morse.critical_counts_s", "s"),
    ("morse.critical_cells", "count"),
    ("grid.f_vector_s", "s"),
    ("grid.boundary_calls", "count"),
    ("grid.relabel_calls", "count"),
    ("grid.relabel_sign_calls", "count"),
    ("grid.cells_enumerated", "count"),
    ("apexgraph.structure_hits", "count"),
    ("apexgraph.structure_misses", "count"),
    ("apexgraph.structure_hit_ratio", "ratio"),
    ("oracle.direct_s", "s"),
    ("oracle.cells", "count"),
    ("parallel.pmap_s", "s"),
    ("parallel.jobs", "count"),
    ("parallel.serial_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

# Metrics each workload must move; a zero here means a binding was missed.
EXERCISED = {
    "table5": (
        "reduce.reduce_s", "reduce.stream_s", "reduce.cells_in",
        "reduce.cells_out", "reduce.entries_in", "reduce.cancel_ratio",
        "homology.betti_s", "homology.validate_d2_s", "homology.rank_s",
        "morse.build_s", "morse.flow_s", "morse.critical_sets_s",
        "morse.assemble_s", "morse.restrict_s", "morse.critical_cells",
        "grid.boundary_calls", "grid.relabel_calls", "grid.relabel_sign_calls",
        "apexgraph.structure_hits", "apexgraph.structure_misses",
        "apexgraph.structure_hit_ratio", "parallel.pmap_s", "parallel.jobs",
        "parallel.serial_s",
    ),
    "direct": (
        "reduce.reduce_s", "reduce.stream_s", "reduce.cells_in",
        "reduce.cells_out", "reduce.entries_in", "reduce.cancel_ratio",
        "homology.rank_s", "grid.f_vector_s", "grid.boundary_calls",
        "grid.cells_enumerated", "oracle.direct_s", "oracle.cells",
        "parallel.serial_s",
    ),
    "census": (
        "morse.critical_sets_s", "morse.critical_counts_s",
        "morse.critical_cells", "grid.f_vector_s",
        "apexgraph.structure_hits", "apexgraph.structure_misses",
        "apexgraph.structure_hit_ratio", "parallel.pmap_s", "parallel.jobs",
        "parallel.serial_s",
    ),
}

# The tracer of this process; pool workers reach it through their forked copy.
_active = None


class _InWorker:
    """Picklable wrapper for a pmap job function: returns (result, counts).

    Inside a forked pool worker the counts are the worker's own increments
    during the job; in the tracing process itself they are None, because
    the increments already landed in the tracer.
    """

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, job):
        tracer = _active
        if os.getpid() == tracer.pid:
            return self.fn(job), None
        before = tracer.snapshot()
        result = self.fn(job)
        after = tracer.snapshot()
        return result, {k: after[k] - before[k] for k in after}


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.spans = []
        self.open = []
        self.job = None
        self.tallies = {}
        self.worker_cache = [0, 0]  # structure hits, misses inside pool workers
        self._structure = None
        self._cache_start = None

    # -- recording ------------------------------------------------------

    def tally(self, name):
        "The one-element list holding a count, created at zero."
        return self.tallies.setdefault(name, [0])

    def _new_span(self, name):
        span = {
            "id": len(self.spans),
            "name": name,
            "start": clock(),
            "end": None,
            "parent": self.open[-1] if self.open else None,
            "job": self.job,
        }
        self.spans.append(span)
        return span

    def _begin(self, name):
        span = self._new_span(name)
        self.open.append(span["id"])
        return span

    def _end(self, span):
        self.open.pop()
        span["end"] = clock()

    def call(self, name, fn, job_index, *args):
        "Run fn(*args) as the root span of one job."
        self.job = job_index
        return self.timed(name, fn)(*args)

    def timed(self, name, fn):
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(span)

        return traced

    def counted(self, name, fn):
        box = self.tally(name)

        def traced(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        return traced

    def pull(self, name, iterable, items=None):
        """Iterate, recording the time spent inside next() as busy time.

        The span is opened when pull is called, so its parent is the caller
        that created the iterator, not whoever first pulls from it.
        """
        span = self._new_span(name)
        span["busy"] = 0.0
        box = self.tally(items) if items else [0]

        def gen():
            it = iter(iterable)
            busy = 0.0
            n = 0
            try:
                while True:
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        busy += clock() - t0
                        return
                    busy += clock() - t0
                    n += 1
                    yield item
            finally:
                span["busy"] += busy
                span["end"] = clock()
                box[0] += n

        return gen()

    def counted_iter(self, name, fn):
        box = self.tally(name)

        def traced(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                box[0] += n

        return traced

    def snapshot(self):
        "Current tallies plus the structure cache's hits and misses."
        info = self._structure.cache_info()
        out = {name: box[0] for name, box in self.tallies.items()}
        out["apexgraph.structure_hits"] = info.hits
        out["apexgraph.structure_misses"] = info.misses
        return out

    def merge(self, delta):
        for name, value in delta.items():
            if name == "apexgraph.structure_hits":
                self.worker_cache[0] += value
            elif name == "apexgraph.structure_misses":
                self.worker_cache[1] += value
            else:
                self.tally(name)[0] += value

    # -- wrappers with extra bookkeeping --------------------------------

    def _reduce(self, fn):
        cells_in = self.tally("reduce.cells_in")
        cells_out = self.tally("reduce.cells_out")
        cancelled = self.tally("reduce.cancelled")

        def traced(counts, triples, *args, **kwargs):
            span = self._begin("reduce.reduce_complex")
            try:
                stream = self.pull("reduce.stream", triples, "reduce.entries_in")
                out = fn(counts, stream, *args, **kwargs)
            finally:
                self._end(span)
            seeds, counts2, _ = out
            cells_in[0] += sum(counts)
            cells_out[0] += sum(counts2)
            cancelled[0] += sum(counts) - sum(counts2) - seeds
            return out

        return traced

    def _rank(self, fn):
        timed = self.timed("homology.rank", fn)
        cells = self.tally("homology.rank_cells")

        def traced(matrix, *args, **kwargs):
            cells[0] += matrix.cols
            return timed(matrix, *args, **kwargs)

        return traced

    def sized(self, span, tally, size, fn):
        "Add size(result) to a tally after each call; time it when span is set."
        call = self.timed(span, fn) if span else fn
        box = self.tally(tally)

        def traced(*args, **kwargs):
            out = call(*args, **kwargs)
            box[0] += size(out)
            return out

        return traced

    def _critical_sets(self, fn):
        def traced(*args, **kwargs):
            return self.pull("morse.critical_sets", fn(*args, **kwargs))

        return traced

    def _pmap(self, fn):
        jobs_box = self.tally("parallel.jobs")

        def traced(work, jobs, threads):
            jobs = list(jobs)
            jobs_box[0] += len(jobs)
            span = self._begin("parallel.pmap")
            try:
                parts = fn(_InWorker(work), jobs, threads)
            finally:
                self._end(span)
            out = []
            for result, delta in parts:
                if delta:
                    self.merge(delta)
                out.append(result)
            return out

        return traced

    # -- installation ---------------------------------------------------

    def install(self):
        "Patch every traced function under every name hardsquares binds it to."
        global _active
        import hardsquares  # noqa: F401  (loads every layer module)
        from hardsquares import apexgraph, grid, homology, morse, oracle, parallel, reduce

        plan = (
            (reduce, "reduce_complex", self._reduce),
            (homology, "betti", lambda f: self.timed("homology.betti", f)),
            (homology, "validate_d2", lambda f: self.timed("homology.validate_d2", f)),
            (homology, "rank", self._rank),
            (morse, "build_morse_complex", lambda f: self.sized(
                "morse.build_morse_complex", "morse.critical_cells",
                lambda mc: sum(mc.counts), f)),
            (morse, "critical_counts", lambda f: self.sized(
                "morse.critical_counts", "morse.critical_cells", sum, f)),
            (morse, "critical_sets", self._critical_sets),
            (grid, "f_vector", lambda f: self.timed("grid.f_vector", f)),
            (grid, "boundary", lambda f: self.counted("grid.boundary_calls", f)),
            (grid, "relabel", lambda f: self.counted("grid.relabel_calls", f)),
            (grid, "relabel_sign", lambda f: self.counted("grid.relabel_sign_calls", f)),
            (grid, "enumerate_cells", lambda f: self.counted_iter("grid.cells_enumerated", f)),
            (apexgraph, "cached_structure", lambda f: self.counted("apexgraph.structure_calls", f)),
            (oracle, "direct_betti", lambda f: self.timed("oracle.direct_betti", f)),
            (oracle, "check_cap", lambda f: self.sized(
                None, "oracle.cells", lambda out: out[1], f)),
            (parallel, "pmap", self._pmap),
        )
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "hardsquares" or name.startswith("hardsquares.")
        ]
        self._structure = apexgraph.cached_structure
        for home, attr, wrap in plan:
            orig = getattr(home, attr)
            new = wrap(orig)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, new)
        morse.MorseComplex.restrict = self.timed(
            "morse.restrict", morse.MorseComplex.restrict
        )
        info = self._structure.cache_info()
        self._cache_start = (info.hits, info.misses)
        _active = self

    # -- per-layer metrics ------------------------------------------------

    def metrics(self, wall_s):
        """Per-layer metrics of the traced pass, keyed by METRICS names.

        A layer's self time is its span time minus what its child spans and
        the iterators it pulled from cover.
        """
        by_id = self.spans
        total = {}
        busy = {}
        busy_under = {}
        child_time = {}
        for span in self.spans:
            name = span["name"]
            if "busy" in span:
                busy[name] = busy.get(name, 0.0) + span["busy"]
                if span["parent"] is not None:
                    key = (name, by_id[span["parent"]]["name"])
                    busy_under[key] = busy_under.get(key, 0.0) + span["busy"]
                continue
            dur = span["end"] - span["start"]
            total[name] = total.get(name, 0.0) + dur
            if span["parent"] is not None:
                key = (name, by_id[span["parent"]]["name"])
                child_time[key] = child_time.get(key, 0.0) + dur
        count = {name: box[0] for name, box in self.tallies.items()}
        info = self._structure.cache_info()
        hits = info.hits - self._cache_start[0] + self.worker_cache[0]
        misses = info.misses - self._cache_start[1] + self.worker_cache[1]
        calls = count.get("apexgraph.structure_calls", 0)
        if calls != hits + misses:
            raise RuntimeError(
                f"cached_structure saw {hits + misses} lookups but only {calls}"
                " went through the traced name: a binding was missed"
            )
        cells_in = count.get("reduce.cells_in", 0)
        build = total.get("morse.build_morse_complex", 0.0)
        flow = child_time.get(("parallel.pmap", "morse.build_morse_complex"), 0.0)
        sets_in_build = busy_under.get(
            ("morse.critical_sets", "morse.build_morse_complex"), 0.0
        )
        pmap_s = total.get("parallel.pmap", 0.0)
        values = {
            "reduce.reduce_s": total.get("reduce.reduce_complex", 0.0)
            - busy.get("reduce.stream", 0.0),
            "reduce.stream_s": busy.get("reduce.stream", 0.0),
            "reduce.cells_in": cells_in,
            "reduce.cells_out": count.get("reduce.cells_out", 0),
            "reduce.entries_in": count.get("reduce.entries_in", 0),
            "reduce.cancel_ratio": count.get("reduce.cancelled", 0) / cells_in
            if cells_in
            else 0.0,
            "homology.betti_s": total.get("homology.betti", 0.0),
            "homology.validate_d2_s": total.get("homology.validate_d2", 0.0),
            "homology.rank_s": total.get("homology.rank", 0.0),
            "homology.rank_cells": count.get("homology.rank_cells", 0),
            "morse.build_s": build,
            "morse.flow_s": flow,
            "morse.critical_sets_s": busy.get("morse.critical_sets", 0.0),
            "morse.assemble_s": build - flow - sets_in_build,
            "morse.restrict_s": total.get("morse.restrict", 0.0),
            "morse.critical_counts_s": total.get("morse.critical_counts", 0.0),
            "morse.critical_cells": count.get("morse.critical_cells", 0),
            "grid.f_vector_s": total.get("grid.f_vector", 0.0),
            "grid.boundary_calls": count.get("grid.boundary_calls", 0),
            "grid.relabel_calls": count.get("grid.relabel_calls", 0),
            "grid.relabel_sign_calls": count.get("grid.relabel_sign_calls", 0),
            "grid.cells_enumerated": count.get("grid.cells_enumerated", 0),
            "apexgraph.structure_hits": hits,
            "apexgraph.structure_misses": misses,
            "apexgraph.structure_hit_ratio": hits / (hits + misses)
            if hits + misses
            else 0.0,
            "oracle.direct_s": total.get("oracle.direct_betti", 0.0),
            "oracle.cells": count.get("oracle.cells", 0),
            "parallel.pmap_s": pmap_s,
            "parallel.jobs": count.get("parallel.jobs", 0),
            "parallel.serial_s": wall_s - pmap_s,
            "trace.wall_s": wall_s,
        }
        return values
