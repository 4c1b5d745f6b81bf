"""Homology-preserving shrinking of sparse integer chain complexes.

Cancelling a pair of cells (a, b) with [db : a] = +-1 quotients out an
acyclic two-cell subcomplex, so homology over every coefficient field is
unchanged.  When every 1-cell boundary is empty or of the form x - y
(true of cubical and of Morse complexes), the map sending each vertex to
1 is an augmentation, so a vertex can be split off as a free generator of
H_0; a cascade of free-coface cancellations seeded by such vertex
removals then eats most of the complex with zero fill-in.  What survives
is left to homology.rank, whose column elimination works over every
field.
"""

from __future__ import annotations

from collections import deque


def reduce_complex(counts, triples):
    """Shrink a chain complex without changing its homology.

    counts: cells per dimension.  triples: iterable of (degree, row, col,
    value) boundary entries.  Coreduction runs only when every 1-cell
    boundary is empty or x - y; otherwise the complex is returned whole.

    Returns (seed_vertices, remaining_counts, remaining_triples), the
    triples of each degree in column order, where seed_vertices counts
    free H_0 generators split off during coreduction:
    beta_j = seeds*[j == 0] + (remaining formula over any field).
    """
    offs = [0]
    for m in counts:
        offs.append(offs[-1] + m)
    total = offs[-1]
    bnd = [dict() for _ in range(total)]
    cob = [[] for _ in range(total)]
    for d, r, c, v in triples:
        gr = offs[d - 1] + r
        gc = offs[d] + c
        bnd[gc][gr] = v
        cob[gr].append(gc)
    alive = bytearray(b"\x01") * total

    seeds = 0
    edges = bnd[offs[1]:offs[2]] if len(counts) > 1 else ()
    if counts and all(not col or sorted(col.values()) == [-1, 1] for col in edges):
        seeds = _coreduce(counts[0], bnd, cob, alive)

    remap = {}
    counts2 = [0] * len(counts)
    for d in range(len(counts)):
        for g in range(offs[d], offs[d + 1]):
            if alive[g]:
                remap[g] = counts2[d]
                counts2[d] += 1
    tris2 = [[] for _ in range(len(counts))]
    for d in range(1, len(counts)):
        tri = tris2[d]
        for g in range(offs[d], offs[d + 1]):
            if alive[g]:
                c = remap[g]
                for gr, v in bnd[g].items():
                    tri.append((remap[gr], c, v))
    return seeds, counts2, tris2


def _coreduce(nvert, bnd, cob, alive):
    "Zero-fill cancellation cascade; returns the number of seeded vertices."
    queue = deque(g for g in range(len(bnd)) if len(bnd[g]) == 1)

    def drop_row(x):
        # x is dead: remove its row from the boundaries of its cofaces
        for c in cob[x]:
            if alive[c]:
                col = bnd[c]
                if x in col:
                    del col[x]
                    if len(col) == 1:
                        queue.append(c)
        cob[x] = []

    def cascade():
        while queue:
            b = queue.popleft()
            if not alive[b] or len(bnd[b]) != 1:
                continue
            ((a, lam),) = bnd[b].items()
            if lam not in (1, -1):
                continue  # left for rank
            alive[a] = 0
            alive[b] = 0
            bnd[b].clear()
            bnd[a].clear()
            drop_row(b)
            drop_row(a)

    seeds = 0
    cascade()
    for v in range(nvert):
        if alive[v]:
            alive[v] = 0
            seeds += 1
            drop_row(v)
            cascade()
    return seeds
