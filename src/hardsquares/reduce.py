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
enumerates it.  The output is what survives, renumbered, in the column
arrays of homology.ChainComplex, one (starts, rows, vals) per degree, so
no entry becomes a tuple on either side.

The working set is flat: the boundary rows of every entry sit in an
int32 array and their values in a signed-byte array, in stream order,
each column is a begin/end slice of them, and a per-column count of live
rows stands in for deleting rows, as every row dies exactly once.  This
is why the entries of one column must arrive consecutively.  One byte
holds every value of the cubical complexes of the direct route and of
the Morse complexes of the table, all +-1; the first value past +-127
widens the values to an int64 array, once, and a value past +-2**63
raises OverflowError, so a value is never cut.  The cofaces of
every row are counted as the entries stream and, once the stream has
ended, placed in one int32 array too (compressed sparse rows: the
cofaces of row x are cob[cstart[x]:cstart[x + 1]]).  The fill walks
the columns in id order, which is the order they arrived in because,
within a degree, columns must arrive in ascending id order; so the
cascade meets the cofaces of a row in arrival order.  The new id of
each live cell, the number of live cells of its degree before it, is an
int32 array too; the live columns are copied out of the working set a
run of adjacent slices at a time, then their rows are renumbered, and
their dead rows left out, by one itemgetter per block of 4,096 entries.
The live-row counts give the output's column starts, and the output's
values are int64 whatever the working set held.  Every index array
is int32: storing a cell id or an entry offset of 2**31 or more raises
OverflowError.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import accumulate, compress
from operator import itemgetter, sub


def reduce_complex(counts, triples):
    """Shrink a chain complex without changing its homology.

    counts: cells per dimension.  triples: iterable of (degree, row, col,
    value) boundary entries, the entries of each column consecutive, the
    columns of each degree in ascending id order, and each (degree, row,
    col) at most once; a column whose entries are split, or that arrives
    after a higher column of its degree, raises ValueError.  Coreduction
    runs only when every 1-cell boundary is empty or x - y; otherwise the
    complex is returned whole.

    Returns (seed_vertices, remaining_counts, remaining_columns), where
    seed_vertices counts free H_0 generators split off during coreduction:
    beta_j = seeds*[j == 0] + (remaining formula over any field).
    remaining_columns[j] holds what is left of d_j, renumbered, as the
    (starts, rows, vals) arrays of homology.ChainComplex: array('i')
    column starts, one more than the columns left, array('i') rows and
    array('q') values, the rows of each column in the order they arrived.
    """
    offs = [0]
    for m in counts:
        offs.append(offs[-1] + m)
    total = offs[-1]
    rows = array("i")
    vals = array("b")  # widened to array("q") by the first value past +-127
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
        try:
            add_val(v)
        except OverflowError:
            vals = array("q", vals)
            add_val = vals.append
            add_val(v)
        sizes[gr] += 1
    if gc is not None:
        end[gc] = len(rows)
    alive = bytearray(b"\x01") * total

    seeds = 0
    edges = range(offs[1], offs[2]) if len(counts) > 1 else ()
    live = array("i", map(sub, end, begin))  # the live rows of each live column
    if counts and all(
        begin[g] == end[g] or sorted(vals[begin[g]:end[g]]) == [-1, 1] for g in edges
    ):
        cstart, cob = _cofaces(sizes, offs[1], rows, begin, end)
        seeds = _coreduce(counts[0], rows, vals, begin, live, cstart, cob, alive)
        del cstart, cob  # freed before the output is built
    del sizes

    remap = array("i")  # the new id of each live cell: the live cells before it in its degree
    counts2 = []
    for d in range(len(counts)):
        before = array("i", accumulate(alive[offs[d]:offs[d + 1]], initial=0))
        counts2.append(before.pop())
        remap += before
    columns = [(array("i", bytes(4 * (counts2[0] + 1))), array("i"), array("q"))] if counts else []
    for d in range(1, len(counts)):
        lo, hi = offs[d], offs[d + 1]
        here = alive[lo:hi]
        # the live columns' entries, copied a run of adjacent slices at a time
        rows2, vals2 = array("i"), array(vals.typecode)
        run_b = run_e = 0
        for b, e in zip(compress(begin[lo:hi], here), compress(end[lo:hi], here)):
            if b != run_e:
                rows2 += rows[run_b:run_e]
                vals2 += vals[run_b:run_e]
                run_b = b
            run_e = e
        rows2 += rows[run_b:run_e]
        vals2 += vals[run_b:run_e]
        starts = array("i", accumulate(compress(live[lo:hi], here), initial=0))
        mask = alive if starts[-1] != len(rows2) else None  # some live column has dead rows
        columns.append((starts, *_renumbered(rows2, vals2, remap, mask)))
    return seeds, counts2, columns


_BLOCK = 4096  # the ids one itemgetter looks up


def _renumbered(rows, vals, remap, alive):
    """rows through remap as array('i') and vals as array('q'), a block at a time.

    alive is None when every row is live; otherwise the entries whose row
    is dead are left out.
    """
    rows2 = array("i")
    vals2 = array("q") if alive is not None else array("q", vals)
    for i in range(0, len(rows), _BLOCK):
        block = rows[i : i + _BLOCK]
        if len(block) > 1:
            get = itemgetter(*block)
        else:  # itemgetter of one index returns the item, not a 1-tuple
            get = lambda seq, x=block[0]: (seq[x],)
        if alive is not None:
            keep = bytes(get(alive))
            rows2.extend(compress(get(remap), keep))
            vals2.extend(compress(vals[i : i + _BLOCK], keep))
        else:
            rows2.extend(get(remap))
    return rows2, vals2


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
