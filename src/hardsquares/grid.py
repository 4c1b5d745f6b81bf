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
A cell also packs into one int (pack, unpack), whose signed facets
packed_boundary gives with boundary's order and signs, for the Morse
layer's V-path walker.

The f-vector never lists corner sets: the option graph of a corner set is
a union of paths along the anti-diagonals c + r = d (board_diagonals), so
a transfer from diagonal to diagonal sums the products of their path
polynomials.  One transfer covers the board, run as two pool jobs: a
forward half from the first diagonal up to a meeting diagonal m and a
backward half from the last diagonal down to m - 1, both keyed by the
squares of diagonals m - 1 and m.  The jobs fork only on boards whose
transfer works through enough window subsets to pay for the fork
(_FORK_SUBSETS); smaller transfers run both halves in the caller.  Each
transfer state packs its polynomials, one per number of squares placed,
into a single int of pq + 2n + 1-bit lanes (Kronecker substitution):
every count is below 2^(pq + 2n), so lanes never carry, and a diagonal
step is one big-int mask, multiply and shift.  The halves meet by
multiplying the states of each key; both halves counted the key's
squares, so each product is shifted down by that many blocks before
block n, the corner sets of n squares, is read.  No lane of block n
carries: a product term passes lane 2n of its block, or the width of a
lane, only when it has more than n squares, which puts it above block n,
where the mask drops it.  The module owns the complex's structural
check, check_cell: the facets of a cell are cells, d o d = 0 on it, and
the two endpoints of each extension have opposite signs.
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


# one Piece object per (col, row, left, down) for cells_with_apex and
# _collapses: the cells and facets they build share pieces, so a dict
# lookup of a cell or facet compares its pieces by identity
_piece = lru_cache(maxsize=None)(Piece)


@lru_cache(maxsize=None)
def _collapses(pc):
    """(corner, far) endpoint pieces of each extension of a piece, left first.

    Memoized for boundary: there are at most four pieces per board square.
    """
    c, r, left, down = pc
    out = []
    if left:
        out.append((_piece(c, r, 0, down), _piece(c - 1, r, 0, down)))
    if down:
        out.append((_piece(c, r, left, 0), _piece(c, r - 1, left, 0)))
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
    sign = 1
    for k, pc in enumerate(cell):
        if pc[2] or pc[3]:  # left or down
            head, tail = cell[:k], cell[k + 1 :]
            for corner, far in _collapses(pc):
                out.append((head + (corner,) + tail, sign))
                out.append((head + (far,) + tail, -sign))
                sign = -sign
    return out


# A cell is also one int, its code: with width bits per coordinate, piece k
# is the field of 2 * width + 2 bits at bit k * (2 * width + 2) holding, from
# its lowest bit up, left, col, down and row.  Each option bit sits just
# below the coordinate its far endpoint decrements.


def pack(cell, width):
    "The code of a cell whose coordinates fit in width bits."
    field = 2 * width + 2
    code = 0
    for k, (c, r, left, down) in enumerate(cell):
        code |= (left | c << 1 | down << width + 1 | r << width + 2) << k * field
    return code


def unpack(code, n, width):
    "The cell of n pieces with a given code, made of the shared Piece objects."
    field = 2 * width + 2
    low = (1 << width) - 1
    out = []
    for _ in range(n):
        out.append(_piece(code >> 1 & low, code >> width + 2 & low, code & 1, code >> width + 1 & 1))
        code >>= field
    return tuple(out)


def option_bits(n, width):
    "The left and down bits of all n pieces of a code, as one mask."
    field = 2 * width + 2
    return sum((1 | 1 << width + 1) << k * field for k in range(n))


def packed_boundary(code, options):
    """boundary on codes: the signed facets' codes, in boundary's order.

    options is option_bits of the code's n and width.  The set option bits,
    lowest first, are the extensions in boundary's coordinate order; each
    gives its corner facet (the bit cleared) and then its far facet (the
    coordinate above the bit decremented too, twice the bit).
    """
    out = []
    sign = 1
    ext = code & options
    while ext:
        bit = ext & -ext
        ext ^= bit
        corner = code ^ bit
        out.append((corner, sign))
        out.append((corner - 2 * bit, -sign))
        sign = -sign
    return out


def check_cell(cell):
    """Raise AssertionError unless every facet of cell is a valid cell, the
    boundary of its boundary is zero, and the corner and far facets of each
    collapsed extension, listed one after the other by boundary, have
    opposite signs (d o d = 0 still holds, and GF(2) sees no change, when
    both get the same sign)."""
    facets = boundary(cell)
    acc = {}
    for facet, s in facets:
        assert is_valid_cell(facet), f"invalid facet of {cell}"
        for f2, s2 in boundary(facet):
            acc[f2] = acc.get(f2, 0) + s * s2
    assert not any(acc.values()), f"d o d != 0 at {cell}"
    for (_, s), (_, t) in zip(facets[::2], facets[1::2]):
        assert s == -t, f"corner and far facets of one extension have one sign at {cell}"


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
            pc = _piece(c, r, left, down)
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
def _path_poly(k, lane):
    "Independent sets of a k-vertex path: comb(k - m + 1, m) of size m, in lane m."
    return sum(math.comb(k - m + 1, m) << lane * m for m in range((k + 1) // 2 + 1))


def _paths_factor(paths, lane):
    "The packed product of the path polynomials of paths (_path_poly)."
    factor = 1
    for path in paths:
        factor *= _path_poly(len(path), lane)
    return factor


def _fvector_half(args):
    """One half of the anti-diagonal transfer behind f_vector.

    args is (n, p, q, m, forward), m the meeting diagonal, counted from 0
    in board_diagonals(p, q).  The paths of diagonal d depend only on the
    squares of diagonals d - 2 .. d (apexgraph.diagonal_paths), so a
    state is the occupied squares of two neighbouring diagonals, and it
    holds, by the number of squares placed, the sum over its partial
    corner sets of the product of their path polynomials.  The forward
    half places diagonals 0 .. m, multiplying in the paths of each
    diagonal as it places it.  The backward half places the last diagonal
    down to m - 1, and multiplies in the paths of diagonal d + 2 as it
    places d, once the two diagonals below d + 2 are known.  Each half
    returns its states keyed by (squares of diagonal m - 1, squares of
    diagonal m), a diagonal outside the board being empty: the forward
    half has multiplied in the paths of diagonals 0 .. m, the backward
    half those of m + 1 onwards, and both have counted the squares of
    diagonals m - 1 and m.  No state holds more than n squares.

    A state's polynomial is one int: the coefficient of dimension j with k
    squares placed sits in lane (2n + 1) * k + j, a lane being
    pq + 2n + 1 bits, so each count k has a block of 2n + 1 lanes.  A
    coefficient counts pairs of a partial corner set and a set of its
    options, fewer than 2^(pq + 2n), so no lane carries into the next.  A
    diagonal's path polynomials are packed the same way (_path_poly), and
    one multiplication and a shift by k blocks, k the squares it places,
    advance a whole state.  A term's dimension is at most twice its
    squares, a square having at most two options, so block i times that
    factor has dimension at most 2(i + k): it passes lane 2n of its block,
    and spills into the next, only when i + k > n, which would put it above
    block n anyway.  So the state is masked to blocks 0 .. n - k before the
    multiplication, and the product needs no mask.  Going backward, the paths of diagonal d + 2 see of diagonal d
    only the squares down-left of theirs, so one state's factors are
    cached by the chosen squares among those.
    """
    n, p, q, m, forward = args
    from .apexgraph import diagonal_paths

    lane = p * q + 2 * n + 1
    block = (2 * n + 1) * lane
    keep = (1 << block * (n + 1)) - 1
    diagonals = board_diagonals(p, q)
    # once d is placed, forward: (squares of d - 1, squares of d) -> packed
    # polynomial; backward: (squares of d, squares of d + 1) -> packed polynomial
    states = {((), ()): 1}
    for d in range(m + 1) if forward else range(len(diagonals) - 1, m - 2, -1):
        free = diagonals[d] if 0 <= d < len(diagonals) else []
        step = {}
        for (low, high), poly in states.items():
            # the fewest squares placed: the block of the lowest set bit
            fewest = ((poly & -poly).bit_length() - 1) // block
            placed = {*low, *high}
            # going backward: the squares down-left of high's, and the
            # factors of this state by the chosen squares among them
            corners = {(c - 1, r - 1) for c, r in high}
            factors = {}
            for k in range(min(len(free), n - fewest) + 1):
                shift = block * k
                part = poly & keep >> shift
                for chosen in itertools.combinations(free, k):
                    if forward:
                        # the paths of d, below it high and low
                        key = (high, chosen)
                        factor = _paths_factor(diagonal_paths(chosen, placed.union(chosen)), lane)
                    else:
                        # the paths of d + 2, below it low and chosen; of d
                        # they see only the corners
                        key = (chosen, low)
                        seen = tuple(s for s in chosen if s in corners)
                        factor = factors.get(seen)
                        if factor is None:
                            factor = _paths_factor(diagonal_paths(high, placed.union(seen)), lane)
                            factors[seen] = factor
                    step[key] = step.get(key, 0) + (part * factor << shift)
        states = step
    return states


def _windows(p, q):
    """The squares in each window of the transfer over a p x q board.

    A step that places diagonal d works through the subsets of a window of
    three diagonals: d - 2 .. d going forward, d .. d + 2 going backward.
    Window e holds diagonals e - 2 .. e, for e = 0 .. D + 1 on a board of D
    diagonals, a diagonal outside the board being empty: the forward half
    meeting at m takes windows 0 .. m and the backward half the rest, so
    the two halves share out the windows of one transfer over the board.
    """
    widths = [len(d) for d in board_diagonals(p, q)]

    def width(d):
        return widths[d] if 0 <= d < len(widths) else 0

    return [width(e - 2) + width(e - 1) + width(e) for e in range(len(widths) + 2)]


def _meeting_diagonal(p, q):
    """The meeting diagonal of f_vector's two halves on a p x q board.

    m is the diagonal that gives the two halves the closest numbers of
    window subsets (_windows), 2 to the squares in each window, taking the
    lower m on a tie.
    """
    work = [2**w for w in _windows(p, q)]
    return min(range(len(work) - 2), key=lambda m: abs(sum(work[: m + 1]) - sum(work[m + 1 :])))


# The fewest window subsets of at most n squares (_window_subsets) at which
# f_vector runs its two halves in two processes rather than in the caller.
# Measured on a 2-core VM with Python 3.11, 150 interleaved pairs of
# f_vector calls per board in one process, forked against serial: forking
# lost a median 2.3 ms on (7,4,5) (4,784 subsets, 25.7 ms serially), broke
# even on (5,5,5) (6,462 subsets, 28.5 ms; 0.2 ms lost, faster in 71 of 150
# pairs) and won 3.3 ms on (6,5,5) (10,196 subsets, 48.7 ms).  A two-worker
# pmap of trivial jobs costs 3.5-4.5 ms there.
_FORK_SUBSETS = 8_000


def _window_subsets(n, p, q):
    "The transfer's work: subsets of at most n squares of each window (_windows), summed."
    return sum(sum(math.comb(w, k) for k in range(min(n, w) + 1)) for w in _windows(p, q))


def _fvector_counts(n, p, q, m, threads=1):
    """Corner sets of n squares times their option sets, by dimension: the
    f-vector before the n! labelings.

    Two pool jobs, the halves of the transfer meeting at diagonal m
    (_fvector_half), passed threads once the transfer's work
    (_window_subsets) reaches the break-even _FORK_SUBSETS and run in the
    caller below it, where a fork costs more than the split saves.  The
    halves' polynomials of one key multiply into the sum over the corner
    sets through that key's squares, but the squares of diagonals m - 1 and
    m are counted in both halves: a corner set of n squares lands in block
    n + o of the product, o the key's squares, so the product is shifted
    down o blocks, and block n is kept.  No lane below that block carries, as the
    only terms that pass lane 2n of their block or the width of a lane have
    more than n squares, and so lie above block n + o before the shift and
    are masked off after it.
    """
    from .parallel import pmap

    lane = p * q + 2 * n + 1
    block = (2 * n + 1) * lane
    one_block = (1 << block) - 1
    if _window_subsets(n, p, q) < _FORK_SUBSETS:
        threads = 1
    ahead, behind = pmap(_fvector_half, [(n, p, q, m, True), (n, p, q, m, False)], threads)
    top = 0
    for key, poly in ahead.items():
        other = behind.get(key)
        if other:
            top += (poly * other >> block * (n + len(key[0]) + len(key[1]))) & one_block
    total = [(top >> lane * j) & ((1 << lane) - 1) for j in range(2 * n + 1)]
    while total and total[-1] == 0:
        total.pop()
    return total


def f_vector(n, p, q, threads=1):
    """Cell counts of the hard-squares complex by dimension.

    Counts per apex via the path decomposition of its conflict graph, so
    the complex itself is never materialized: the cells of one corner set
    are counted by the product of its path polynomials.  Unordered corner
    sets are counted once and scaled by n!.  One transfer over the
    anti-diagonals counts them, split at a meeting diagonal picked from
    the board (_meeting_diagonal) into a forward and a backward half, two
    pool jobs, forked on threads workers only where that pays
    (_FORK_SUBSETS), whose states are single ints packing a polynomial in
    the dimension for each number of squares placed, 0 .. n: lanes of
    pq + 2n + 1 bits hold counts below 2^(pq + 2n) without carrying, and
    the blocks that would land above n, the only ones a too-high
    dimension spills into, are masked off at every step.  The halves meet
    on the squares of the two diagonals at the meeting point, which both
    count, so each product of matching states is shifted down by those
    squares' blocks before block n is read (_fvector_counts).  Raises
    ValueError when n, p or q is negative.
    """
    for name, value in (("n", n), ("p", p), ("q", q)):
        if value < 0:
            raise ValueError(f"{name} must be at least 0, got {value}")
    if n > p * q:
        return ()
    if n == 0:
        return (1,)
    scale = math.factorial(n)
    return tuple(x * scale for x in _fvector_counts(n, p, q, _meeting_diagonal(p, q), threads))


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
