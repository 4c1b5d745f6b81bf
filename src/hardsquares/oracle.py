"""The direct route, the cell cap, and the planar closed forms.

direct_betti builds the full cubical complex with no use of the gradient
pairing, so it can be compared against the Morse route: the cell counts
are the f-vector, and one enumeration numbers the cells and streams
their boundaries into the reduction, one cell's entries at a time.  The
map from cells to ids keeps a cell only until the stream passes the last
first corner whose cells can have it as a facet, which the cell's first
piece and the squares its other pieces leave free decide exactly
(_triple_stream): on (4,3,4) it holds at most 53,232 of the 216,216
cells.  build_chain_complex materializes the same complex for small
instances.  check_cap refuses, with CellCapExceeded, a complex whose
f-vector total exceeds the cell cap.  conf_plane_betti gives the
closed-form Betti numbers of the planar labeled configuration space, the
expected values in the stabilized regime.  classify_regime labels each
degree solid, liquid, or gas-consistent by comparing against those
values.
"""

from __future__ import annotations

from . import grid
from .homology import ChainComplex, betti_of_stream

DEFAULT_CELL_CAP = 2_000_000


class CellCapExceeded(RuntimeError):
    "The requested complex, or its cells of dimension dim, outnumber the cell cap."

    def __init__(self, n, p, q, total, cap, dim=None):
        cells = "cells" if dim is None else f"{dim}-cells"
        super().__init__(
            f"complex for n={n}, p={p}, q={q} has {total} {cells},"
            f" over the cap of {cap}"
        )
        self.total = total
        self.cap = cap


def _facet_roles(p, q):
    """Per-piece tables for the id window of _triple_stream.

    Returns (masks, firsts, buckets).  buckets holds one empty list per
    board square, in lexicographic order, for the cells kept until the
    stream's first corner passes that square.  masks[piece] is the bit
    mask of the board squares a piece covers, square (c, r) at bit
    (c - 1) * q + r - 1.  firsts[piece], for a first piece at corner
    (c, r), is (own, asks): own the bucket of (c, r), asks a (mask of
    squares that must be free, bucket) pair for each later first corner
    that can ask for the cell, latest first: (c + 1, r) when the piece
    has no left extension and c < p, its squares {c + 1} x (r - down .. r);
    (c, r + 1) when it has no down extension and r < q, its squares
    (c - left .. c) x {r + 1}.
    """
    bit = {(c, r): 1 << (c - 1) * q + r - 1 for c, r in grid.board_squares(p, q)}
    buckets = {square: [] for square in bit}
    masks = {}
    firsts = {}
    for (c, r), own in buckets.items():
        for left in (0, 1) if c > 1 else (0,):
            for down in (0, 1) if r > 1 else (0,):
                pc = grid.Piece(c, r, left, down)
                masks[pc] = sum(map(bit.__getitem__, pc.squares()))
                asks = []
                if not left and c < p:
                    need = sum(bit[c + 1, y] for y in range(r - down, r + 1))
                    asks.append((need, buckets[c + 1, r]))
                if not down and r < q:
                    need = sum(bit[x, r + 1] for x in range(c - left, c + 1))
                    asks.append((need, buckets[c, r + 1]))
                firsts[pc] = (own, tuple(asks))
    return masks, firsts, list(buckets.values())


def _triple_stream(n, p, q, counts):
    """(dim, facet id, cell id, sign) entries, numbering cells as they stream.

    ids maps each cell, a tuple of pieces, to its number in its dimension.
    Every facet comes before its cell (an earlier apex, or an earlier
    extension option of the same apex), so its id is known, and the
    entries of one cell come together, in ascending cell ids, as
    reduce_complex needs.  A cell's dimension is half its number of
    facets.  counts is the f-vector; cells numbered by dimension that
    differ from it raise.

    ids keeps a cell only while a later cell can still name it as a facet.
    A facet collapses one extension: it keeps every corner, or moves the
    corner of one piece one square left or down.  So a cell X whose first
    piece is (c, r, left, down) is a facet only of cells Y whose first
    corner is (c, r); or (c + 1, r), when Y's first piece is
    (c + 1, r, 1, down) collapsed to its far end and Y's other pieces are
    X's, which needs left == 0, c < p and the squares
    {c + 1} x (r - down .. r) free of X's other pieces; or (c, r + 1),
    likewise, which needs down == 0, r < q and the squares
    (c - left .. c) x {r + 1} free.  Each condition holds exactly when
    that Y is a cell.  Cells stream in lexicographic order of their first
    corner, and (c, r) < (c, r + 1) < (c + 1, r), so X goes into the
    bucket of the latest of these corners whose Y exists, and a bucket's
    ids are dropped once the stream's first corner passes its corner:
    no later cell can ask for them.  The test is one table lookup on the
    first piece (_facet_roles) and, when a later corner may ask, the sum
    of the pieces' square masks (disjoint, so the sum is their union).
    A facet whose id was dropped too early would raise KeyError.
    """
    masks, firsts, buckets = _facet_roles(p, q)
    square_mask = masks.__getitem__
    ids = {}
    done = 0  # the buckets before buckets[done] are dropped
    here = None  # the bucket of the stream's first corner
    numbered = [0] * len(counts)
    for cell in grid.enumerate_cells(n, p, q):
        facets = grid.boundary(cell)
        d = len(facets) >> 1
        if d >= len(counts) or numbered[d] == counts[d]:
            raise AssertionError(f"more {d}-cells than the f-vector {counts} has")
        c = numbered[d]
        numbered[d] = c + 1
        for facet, sign in facets:
            yield (d, ids[facet], c, sign)
        ids[cell] = c
        if cell:  # every cell but the one cell of n = 0
            bucket, asks = firsts[cell[0]]
            if bucket is not here:
                here = bucket
                while buckets[done] is not here:
                    for old in buckets[done]:
                        del ids[old]
                    buckets[done].clear()
                    done += 1
            if asks:
                taken = sum(map(square_mask, cell))
                for need, later in asks:
                    if not need & taken:
                        bucket = later
                        break
            bucket.append(cell)
    if numbered != list(counts):
        raise AssertionError(f"cells by dimension {numbered}, f-vector {counts}")


def check_cap(n, p, q, cap=DEFAULT_CELL_CAP, threads=1):
    """f-vector and total size, raising CellCapExceeded over the integer cap.

    threads goes to grid.f_vector, whose pool the count may use.
    """
    fv = grid.f_vector(n, p, q, threads=threads)
    total = sum(fv)
    if total > cap:
        raise CellCapExceeded(n, p, q, total, cap)
    return fv, total


def build_chain_complex(n, p, q, cap=DEFAULT_CELL_CAP):
    "The full cubical chain complex, materialized (small instances only)."
    counts, _ = check_cap(n, p, q, cap)
    tris = [[] for _ in counts]
    for d, r, c, v in _triple_stream(n, p, q, counts):
        tris[d].append((r, c, v))
    return ChainComplex.from_triples(counts, tris)


def direct_betti(n, p, q, field="gf2", cap=DEFAULT_CELL_CAP, threads=1):
    """Betti numbers computed from the full complex, no gradient involved.

    The cell counts are the f-vector of the cap check, counted with threads
    workers; the boundary entries are streamed from one enumeration into
    homology.betti_of_stream, so the complex is never materialized.
    """
    counts, _ = check_cap(n, p, q, cap, threads)
    return betti_of_stream(counts, _triple_stream(n, p, q, counts), field)


def conf_plane_betti(n):
    """Betti numbers of n labeled points in the plane.

    The Poincare polynomial is the product of (1 + k t) for k < n, so
    beta_j is the elementary symmetric polynomial e_j(1, ..., n-1).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    coeffs = [1]
    for k in range(1, n):
        nxt = coeffs + [0]
        for i in range(len(coeffs)):
            nxt[i + 1] += k * coeffs[i]
        coeffs = nxt
    return tuple(coeffs)


def classify_regime(n, p, q, betti_vec):
    """Per-degree labels: solid, liquid, or gas-consistent.

    solid means the homology vanishes; gas-consistent means it matches the
    planar configuration space numerically (a necessary condition for the
    inclusion to be an isomorphism, which is all a Betti table can see).
    """
    plane = conf_plane_betti(n) if n >= 1 else (1,)
    labels = []
    for j, b in enumerate(betti_vec):
        expected = plane[j] if j < len(plane) else 0
        if b == 0:
            labels.append("solid")
        elif b == expected:
            labels.append("gas-consistent")
        else:
            labels.append("liquid")
    return labels
