"""Cubical cells for hard unit squares on a rectangular board.

A configuration of n labeled unit squares snaps onto a cell of a cubical
complex: each square touches a rectangle of 1, 2, or 4 board squares, and
the cell is the plain tuple of such rectangles (Piece), the index of a
piece being the label of the square it stands for.  The board belongs to
the complex, not to the cell.  The cell belongs to the hard-squares
complex exactly when no two pieces share a board square; its dimension
(cell_dim) is the total number of extensions.

This module provides the cell encoding, membership predicates, the signed
cubical boundary, deterministic apex-major enumeration, and f-vectors.
The f-vector never lists corner sets: the option graph of a corner set is
a union of paths along the anti-diagonals c + r = d (board_diagonals), so
a transfer from diagonal to diagonal sums the products of their path
polynomials, one transfer per pool chunk.  The module owns the complex's
structural check, check_cell: the facets of a cell are cells, and
d o d = 0 on it.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple


class Piece(NamedTuple):
    """One labeled square's rectangle of board squares.

    (col, row) is the upper-right corner square, counted from 1.  A piece
    with left=1 also covers (col-1, row); with down=1 it also covers
    (col, row-1); with both it covers a 2x2 block.
    """

    col: int
    row: int
    left: int
    down: int

    def squares(self):
        "All board squares covered by this piece."
        return [
            (c, r)
            for c in range(self.col - self.left, self.col + 1)
            for r in range(self.row - self.down, self.row + 1)
        ]


def cell_dim(cell):
    "Dimension of a cell: the total number of extensions of its pieces."
    return sum(pc.left + pc.down for pc in cell)


def snap(x):
    """Round a coordinate to the barycenter coordinate of its grid cell.

    Integers are fixed; any other value maps to the half-integer at the
    center of the enclosing unit interval.  Idempotent.
    """
    f = math.floor(x)
    return f if x == f else f + 0.5


def pieces_overlap(a, b):
    """Whether two pieces share a board square (closed interval test)."""
    return (
        a.col - a.left <= b.col
        and b.col - b.left <= a.col
        and a.row - a.down <= b.row
        and b.row - b.down <= a.row
    )


def is_valid_cell(cell):
    """Whether no two pieces overlap, i.e. the cell is a hard-squares cell."""
    for i in range(len(cell)):
        for j in range(i + 1, len(cell)):
            if pieces_overlap(cell[i], cell[j]):
                return False
    return True


def apex_of(cell):
    """The ordered tuple of upper-right corner squares, one per piece.

    On a 0-cell this is the identity viewed as a list of board squares.
    """
    return tuple((pc.col, pc.row) for pc in cell)


@lru_cache(maxsize=None)
def _collapses(pc):
    """(corner, far) endpoint pieces of each extension of a piece, left first.

    Memoized for boundary: there are at most four pieces per board square.
    """
    c, r, left, down = pc
    out = []
    if left:
        out.append((Piece(c, r, 0, down), Piece(c - 1, r, 0, down)))
    if down:
        out.append((Piece(c, r, left, 0), Piece(c, r - 1, left, 0)))
    return tuple(out)


def boundary(cell):
    """Signed facets of a cell.

    Each facet collapses one extension of one piece to an endpoint: the
    corner endpoint keeps the corner, the far endpoint shifts it one square
    left or down.  Signs alternate along the fixed coordinate order
    x1,y1,x2,y2,...; the two endpoints of one coordinate get opposite signs.
    Facets share their collapsed Piece objects (_collapses).
    """
    out = []
    t = 0
    for k, pc in enumerate(cell):
        if pc.left or pc.down:
            head, tail = cell[:k], cell[k + 1 :]
            for corner, far in _collapses(pc):
                sign = -1 if t & 1 else 1
                out.append((head + (corner,) + tail, sign))
                out.append((head + (far,) + tail, -sign))
                t += 1
    return out


def check_cell(cell):
    """Raise AssertionError unless every facet of cell is a valid cell and
    the boundary of its boundary is zero."""
    acc = {}
    for facet, s in boundary(cell):
        assert is_valid_cell(facet), f"invalid facet of {cell}"
        for f2, s2 in boundary(facet):
            acc[f2] = acc.get(f2, 0) + s * s2
    assert not any(acc.values()), f"d o d != 0 at {cell}"


def cell_vertices(cell):
    """All 0-faces of the closed cell, as cells of 1x1 pieces.

    Works for any ambient cell; no disjointness is assumed.
    """
    options = []
    for pc in cell:
        cols = (pc.col - 1, pc.col) if pc.left else (pc.col,)
        rows = (pc.row - 1, pc.row) if pc.down else (pc.row,)
        options.append([Piece(c, r, 0, 0) for c in cols for r in rows])
    return itertools.product(*options)


def relabel(cell, perm):
    """Reorder the pieces: new piece k is old piece perm[k]."""
    return tuple(cell[j] for j in perm)


def relabel_sign(cell, perm):
    """Orientation sign relating a cell's boundary to its relabeling's.

    The boundary signs follow the position of each free coordinate in the
    x1,y1,...,xn,yn order, so reordering pieces permutes the free
    coordinates; this returns the parity of that permutation.  Pieces j < l
    whose order flips add e_j * e_l inversions, e the number of extensions,
    so the parity is that of perm restricted to the pieces with odd e.
    """
    odd = [j for j in perm if (cell[j].left + cell[j].down) & 1]
    inversions = sum(b < a for i, a in enumerate(odd) for b in odd[i + 1 :])
    return -1 if inversions & 1 else 1


def board_squares(p, q):
    """Board squares in lexicographic (col, row) order."""
    return [(c, r) for c in range(1, p + 1) for r in range(1, q + 1)]


def board_diagonals(p, q):
    """The squares of each anti-diagonal c + r = d, d = 2 .. p + q, by column."""
    return [
        [(c, d - c) for c in range(max(1, d - q), min(p, d - 1) + 1)]
        for d in range(2, p + q + 1)
    ]


def enumerate_apexes(n, p, q):
    """All labeled apexes: injective n-tuples of board squares, lex order."""
    return itertools.permutations(board_squares(p, q), n)


_EXTENSIONS = ((0, 0), (1, 0), (0, 1), (1, 1))


def cells_with_apex(apex):
    """All cells whose apex is the given labeled corner tuple.

    Backtracks over per-piece extension choices, pruning overlaps; order is
    deterministic in the (none, left, down, both) option sequence per piece.
    """
    n = len(apex)
    out = []
    chosen = []

    def place(k):
        if k == n:
            out.append(tuple(chosen))
            return
        c, r = apex[k]
        for left, down in _EXTENSIONS:
            if (left and c < 2) or (down and r < 2):
                continue
            pc = Piece(c, r, left, down)
            if any(pieces_overlap(pc, other) for other in chosen):
                continue
            chosen.append(pc)
            place(k + 1)
            chosen.pop()

    place(0)
    return out


def enumerate_cells(n, p, q):
    """Every cell of the hard-squares complex exactly once.

    Cells come grouped by apex, apexes in lexicographic order of their
    corner lists, and within an apex in the order of cells_with_apex.
    Empty stream when n > p*q.

    The n! labelings of one corner set have the same cells up to
    relabeling, so each set's cells are built once, for its sorted apex,
    which comes first among its labelings.  A labeled apex takes them with
    its pieces reordered, sorted by the tuple of per-piece option indices
    left + 2*down: the (none, left, down, both) order of the backtracking.
    Those tuples differ between the cells of one apex, so cells are never
    compared, and the cells share their Piece objects.
    """
    built = {}  # sorted apex -> (its cells, their option-index tuples)
    for apex in enumerate_apexes(n, p, q):
        corners = tuple(sorted(apex))
        if corners == apex:
            cells = cells_with_apex(apex)
            options = [tuple(pc.left + 2 * pc.down for pc in cell) for cell in cells]
            built[corners] = cells, options
            yield from cells
        else:
            cells, options = built[corners]
            take = itemgetter(*map(corners.index, apex))
            for _, cell in sorted(zip(map(take, options), map(take, cells))):
                yield cell


@lru_cache(maxsize=None)
def _path_poly(k):
    "Coefficients by size of the independent sets of a k-vertex path."
    return tuple(math.comb(k - m + 1, m) for m in range(0, (k + 1) // 2 + 1))


def _poly_add_mul(acc, a, b):
    "acc += a * b on coefficient lists, lengthening acc as needed."
    size = len(a) + len(b) - 1
    if len(acc) < size:
        acc.extend([0] * (size - len(acc)))
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            acc[j] += x * y


def _poly_mul(a, b):
    out = []
    _poly_add_mul(out, a, b)
    return out


def _fvector_chunk(args):
    """Cell counts by dimension over the corner sets whose lexicographically
    smallest square is squares[first], squares = board_squares(p, q).

    A transfer over the anti-diagonals c + r = d (board_diagonals).  The
    paths of diagonal d depend only on the squares of diagonals d - 2 .. d
    (apexgraph.diagonal_paths), so a state is the occupied squares of the
    last two diagonals, and it holds, by the number of squares placed, the
    sum over its partial corner sets of the product of their path
    polynomials.  Each step places a subset of the next diagonal's squares
    that come lexicographically after squares[first], together with
    squares[first] itself on its own diagonal, and never more than n
    squares in all.
    """
    n, p, q, first = args
    from .apexgraph import diagonal_paths

    start = board_squares(p, q)[first]
    # (squares of diagonal d - 1, squares of diagonal d) -> {placed: polynomial}
    states = {((), ()): {0: [1]}}
    for diagonal in board_diagonals(p, q):
        forced = (start,) if start in diagonal else ()
        free = [s for s in diagonal if s > start]
        step = {}
        for (older, old), by_placed in states.items():
            fewest = min(by_placed)
            for k in range(len(free) + 1):
                if fewest + len(forced) + k > n:
                    break
                for extra in itertools.combinations(free, k):
                    chosen = forced + extra
                    factor = [1]
                    for path in diagonal_paths(chosen, {*older, *old, *chosen}):
                        factor = _poly_mul(factor, _path_poly(len(path)))
                    target = step.setdefault((old, chosen), {})
                    for placed, poly in by_placed.items():
                        placed += len(chosen)
                        if placed <= n:
                            _poly_add_mul(target.setdefault(placed, []), poly, factor)
        states = step
    total = [0]
    for by_placed in states.values():
        _poly_add_mul(total, by_placed.get(n, ()), (1,))
    return total


def f_vector(n, p, q, threads=1):
    """Cell counts of the hard-squares complex by dimension.

    Counts per apex via the path decomposition of its conflict graph, so
    the complex itself is never materialized: the cells of one corner set
    are counted by the product of its path polynomials.  Unordered corner
    sets are counted once and scaled by n!.  One pool job per smallest
    square, each an anti-diagonal transfer (_fvector_chunk).
    """
    if n > p * q:
        return ()
    if n == 0:
        return (1,)
    from .parallel import pmap

    jobs = [(n, p, q, first) for first in range(0, p * q - n + 1)]
    total = [0]
    for part in pmap(_fvector_chunk, jobs, threads):
        _poly_add_mul(total, part, (1,))
    scale = math.factorial(n)
    while total and total[-1] == 0:
        total.pop()
    return tuple(x * scale for x in total)


def sliding_puzzle_counts(p, q):
    """Closed-form vertex and edge counts for the n = p*q - 1 complex.

    With every board square but one occupied, the complex is a graph: its
    vertices are the (p*q)! aligned positions and its edges the single
    slides of a piece into the hole.
    """
    cells = p * q
    edges = p * (q - 1) + q * (p - 1)
    return math.factorial(cells), edges * math.factorial(cells - 1)


def cell_json(cell):
    """JSON-ready form of one cell: {pieces: [[col, row, left, down], ...], dim}."""
    pieces = [[pc.col, pc.row, pc.left, pc.down] for pc in cell]
    return {"pieces": pieces, "dim": cell_dim(cell)}
