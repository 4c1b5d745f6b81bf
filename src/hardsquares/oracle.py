"""The direct route, the cell cap, and the planar closed forms.

direct_betti builds the full cubical complex with no use of the gradient
pairing, so it can be compared against the Morse route: the cell counts
are the f-vector, and one enumeration numbers the cells and streams
their boundaries into the reduction, one cell's entries at a time; the
map from cells to ids holds only the window of cells that later cells
can still have as facets.  build_chain_complex
materializes the same complex for small instances.  check_cap refuses,
with CellCapExceeded, a complex whose f-vector total exceeds the cell
cap.  conf_plane_betti gives the closed-form Betti numbers of the planar
labeled configuration space, the expected values in the stabilized
regime.  classify_regime labels each degree solid, liquid, or
gas-consistent by comparing against those values.
"""

from __future__ import annotations

from collections import deque

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


def _triple_stream(n, p, q, counts):
    """(dim, facet id, cell id, sign) entries, numbering cells as they stream.

    ids maps each cell, a tuple of pieces, to its number in its dimension.
    Every facet comes before its cell (an earlier apex, or an earlier
    extension option of the same apex), so its id is known, and the
    entries of one cell come together, in ascending cell ids, as
    reduce_complex needs.  A cell's dimension is half its number of
    facets.  counts is the f-vector; cells numbered by dimension that
    differ from it raise.

    The id map is windowed.  A facet collapses one extension, which keeps
    each corner or moves one corner one square left or down, so the cells
    whose first piece has its corner at (c, r) are facets only of cells
    whose first corner is (c, r), (c, r + 1) or (c + 1, r).  Cells stream
    in lexicographic apex order, so once the stream's first corner passes
    (c + 1, r), the ids of those cells are dropped.  A facet whose id was
    dropped too early would raise KeyError.
    """
    ids = {}
    window = deque()  # (first corner one square right, its cells), oldest first
    here = None
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
            if cell[0][:2] != here:
                here = cell[0][:2]
                while window and window[0][0] < here:
                    for old in window.popleft()[1]:
                        del ids[old]
                window.append(((here[0] + 1, here[1]), []))
            window[-1][1].append(cell)
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
