"""Homology-preserving shrinking of sparse integer chain complexes.

Cancelling a pair of cells (a, b) with [db : a] = +-1 quotients out an
acyclic two-cell subcomplex, so homology over every coefficient field is
unchanged.  When every 1-cell boundary is empty or of the form x - y
(true of cubical and of Morse complexes), the map sending each vertex to
1 is an augmentation, so a vertex can be split off as a free generator of
H_0; a cascade of free-coface cancellations seeded by such vertex
removals then eats most of the complex with zero fill-in.  What survives
is left to homology.rank, whose column elimination works over every
field.  The input is one stream of (degree, row, col, value) entries:
homology.betti streams a ChainComplex's column arrays as they are
stored, and the direct route of oracle streams the cubical complex as it
enumerates it.

The working set is flat: the boundary rows of every entry sit in an
int32 array and their values in an int64 array, in stream order, each
column is a begin/end slice of them, and a per-column count of live rows
stands in for deleting rows, as every row dies exactly once.  This is why
the entries of one column must arrive consecutively.  The cofaces of
every row are counted as the entries stream and, once the stream has
ended, placed in one int32 array too (compressed sparse rows: the
cofaces of row x are cob[cstart[x]:cstart[x + 1]]).  The fill walks the columns in id order, which is the
order they arrived in because, within a degree, columns must arrive in
ascending id order; so the cascade meets the cofaces of a row in arrival
order.  Every index array is int32: storing a cell id or an entry
offset of 2**31 or more raises OverflowError.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import accumulate, compress
from operator import sub


def reduce_complex(counts, triples):
    """Shrink a chain complex without changing its homology.

    counts: cells per dimension.  triples: iterable of (degree, row, col,
    value) boundary entries, the entries of each column consecutive, the
    columns of each degree in ascending id order, and each (degree, row,
    col) at most once; a column whose entries are split, or that arrives
    after a higher column of its degree, raises ValueError.  Coreduction
    runs only when every 1-cell boundary is empty or x - y; otherwise the
    complex is returned whole.

    Returns (seed_vertices, remaining_counts, remaining_triples), the
    triples of each degree in column order and, within a column, in the
    order they arrived, where seed_vertices counts free H_0 generators
    split off during coreduction:
    beta_j = seeds*[j == 0] + (remaining formula over any field).
    """
    offs = [0]
    for m in counts:
        offs.append(offs[-1] + m)
    total = offs[-1]
    rows = array("i")
    vals = array("q")
    begin = array("i", bytes(4 * total))
    end = array("i", bytes(4 * total))
    sizes = array("i", bytes(4 * total))  # cofaces of each row
    add_row = rows.append
    add_val = vals.append
    last = [-1] * len(counts)  # the last column of each degree so far
    deg = col = gc = None
    for d, r, c, v in triples:
        if c != col or d != deg:
            if gc is not None:
                end[gc] = len(rows)
            deg, col = d, c
            gc = offs[d] + c
            if end[gc]:
                raise ValueError(f"the entries of {d}-cell column {c} are not consecutive")
            if c < last[d]:
                raise ValueError(
                    f"{d}-cell column {last[d]} arrives before {d}-cell column {c}:"
                    " the columns of a degree must arrive in ascending id order"
                )
            last[d] = c
            begin[gc] = len(rows)
        gr = offs[d - 1] + r
        add_row(gr)
        add_val(v)
        sizes[gr] += 1
    if gc is not None:
        end[gc] = len(rows)
    alive = bytearray(b"\x01") * total

    seeds = 0
    edges = range(offs[1], offs[2]) if len(counts) > 1 else ()
    if counts and all(
        begin[g] == end[g] or sorted(vals[begin[g]:end[g]]) == [-1, 1] for g in edges
    ):
        cstart, cob = _cofaces(sizes, offs[1], rows, begin, end)
        live = array("i", map(sub, end, begin))
        seeds = _coreduce(counts[0], rows, vals, begin, live, cstart, cob, alive)
        del sizes, cstart, cob, live  # freed before the output is built

    remap = [None] * total  # new id of each live cell
    counts2 = []
    for d in range(len(counts)):
        live_cells = compress(range(offs[d], offs[d + 1]), alive[offs[d]:offs[d + 1]])
        k = -1
        for k, g in enumerate(live_cells):
            remap[g] = k
        counts2.append(k + 1)
    tris2 = [[] for _ in range(len(counts))]
    for d in range(1, len(counts)):
        add = tris2[d].append
        for g in range(offs[d], offs[d + 1]):
            c = remap[g]
            if c is not None:
                for i in range(begin[g], end[g]):
                    r = remap[rows[i]]
                    if r is not None:
                        add((r, c, vals[i]))
    return seeds, counts2, tris2


def _cofaces(sizes, first_col, rows, begin, end):
    """Coface columns of every row, in compressed sparse rows.

    sizes holds each cell's number of cofaces.  Returns (cstart, cob): the cofaces of row x are cob[cstart[x]:cstart[x + 1]],
    in ascending column id, which is the order they arrived in.  Each row's
    pointer starts at the end of its share of cob; the columns are walked
    from the top down, each placed just below what is already there, so
    the pointers end at each row's first coface.
    """
    total = len(sizes)
    ptr = list(accumulate(sizes))  # a list: its items are read faster than an array's
    cob = array("i", bytes(4 * len(rows)))
    cols = range(total - 1, first_col - 1, -1)
    for g, b, e in zip(cols, reversed(begin[first_col:]), reversed(end[first_col:])):
        for x in rows[b:e]:
            k = ptr[x] - 1
            cob[k] = g
            ptr[x] = k
    cstart = array("i", ptr)
    cstart.append(len(rows))
    return cstart, cob


def _coreduce(nvert, rows, vals, begin, live, cstart, cob, alive):
    "Zero-fill cancellation cascade; returns the number of seeded vertices."
    queue = deque(g for g in range(len(live)) if live[g] == 1)
    push = queue.append

    def drop_row(x):
        # x is dead: remove its row from the boundaries of its cofaces
        for c in cob[cstart[x]:cstart[x + 1]]:
            if alive[c]:
                k = live[c] - 1
                live[c] = k
                if k == 1:
                    push(c)

    def cascade():
        while queue:
            b = queue.popleft()
            if not alive[b] or live[b] != 1:
                continue
            i = begin[b]
            while not alive[rows[i]]:
                i += 1
            lam = vals[i]
            if lam != 1 and lam != -1:
                continue  # left for rank
            a = rows[i]
            alive[a] = 0
            alive[b] = 0
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
