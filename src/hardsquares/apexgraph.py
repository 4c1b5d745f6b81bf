"""Conflict graphs on the extension options of an apex.

Every cell with a given apex is determined by which pieces extend left and
which extend down.  Each available option is a vertex, placed at the
midpoint of the board edge it would extend across, and two options that
cannot be taken together are joined by an edge.  The resulting graph is
always a disjoint union of paths running along anti-diagonals, which makes
the cells with one apex equivalent to products of independent sets on
paths.  check_half_squares states the half-square allocation behind the
vanishing bound once, for verify and the tests.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .grid import Piece, apex_of


class ApexVertex(NamedTuple):
    """One extension option of one piece.

    axis 0 is the width option (extend left, vertex on a vertical board
    edge); axis 1 is the height option (extend down, vertex on a horizontal
    edge).  Coordinates are stored doubled so half-integers stay exact.
    """

    col2: int
    row2: int
    owner: int
    axis: int

    @property
    def position(self):
        return (self.col2 / 2, self.row2 / 2)


def diagonal_paths(corners, cs):
    """The paths of the option graph on one anti-diagonal c + r = d.

    corners are the occupied squares of that diagonal in column order, and
    cs holds every occupied square of diagonals d - 2 .. d (more does no
    harm).  Nothing else matters: an option needs the square one left or
    one down free (diagonal d - 1), and a path breaks on the squares up-left
    (c - 1, r + 1) and down-left (c - 1, r - 1), on diagonals d and d - 2.
    Returns a list of paths, each a tuple of ((col, row), axis) slots.
    """
    paths = []
    run = []
    for c, r in corners:
        has_v = c > 1 and (c - 1, r) not in cs
        has_h = r > 1 and (c, r - 1) not in cs
        if has_v:
            # linked to the height option of the piece up-left of it
            if run and (c - 1, r + 1) not in cs:
                paths.append(tuple(run))
                run = []
            run.append(((c, r), 0))
        if has_h:
            # linked to the width option of the same piece when the
            # square diagonally down-left is occupied
            if run and not (has_v and (c - 1, r - 1) in cs):
                paths.append(tuple(run))
                run = []
            run.append(((c, r), 1))
        if not has_v and not has_h and run:
            paths.append(tuple(run))
            run = []
    if run:
        paths.append(tuple(run))
    return paths


def path_structure(corners):
    """Decompose the option graph of a corner set into ordered paths.

    Returns a tuple of paths; each path is a tuple of ((col, row), axis)
    option slots in global order (ascending coordinate sum, then column).
    Every path lies on one anti-diagonal, so this is diagonal_paths of each
    occupied diagonal in turn.  Only the set of corners matters, not their
    labels.
    """
    cs = set(corners)
    by_diag = {}
    for c, r in cs:
        by_diag.setdefault(c + r, []).append((c, r))
    paths = []
    for d in sorted(by_diag):
        paths += diagonal_paths(sorted(by_diag[d]), cs)
    return tuple(paths)


@lru_cache(maxsize=100_000)
def cached_structure(corners):
    "path_structure memoized on a sorted corner tuple."
    return path_structure(corners)


@lru_cache(maxsize=None)
def fibonacci(k):
    "F(1) = F(2) = 1."
    a, b = 1, 1
    for _ in range(k - 1):
        a, b = b, a + b
    return a


@lru_cache(maxsize=None)
def path_strings(k):
    "All bit strings of length k with no consecutive ones, lex order."
    if k == 0:
        return ("",)
    out = []

    def grow(prefix, last):
        if len(prefix) == k:
            out.append(prefix)
            return
        grow(prefix + "0", 0)
        if not last:
            grow(prefix + "1", 1)

    grow("", 0)
    return tuple(out)


class ApexGraph:
    """The option graph of one labeled apex, with its path decomposition."""

    def __init__(self, apex, board):
        p, q = board
        apex = tuple(apex)
        if len(set(apex)) != len(apex):
            raise ValueError("apex corners must be pairwise distinct")
        for c, r in apex:
            if not (1 <= c <= p and 1 <= r <= q):
                raise ValueError(f"corner {(c, r)} off the {p}x{q} board")
        self.apex = apex
        self._owner = {corner: k for k, corner in enumerate(apex)}
        slot_paths = cached_structure(tuple(sorted(apex)))

        vertices = []
        paths = []
        for slots in slot_paths:
            ids = []
            for (c, r), axis in slots:
                if axis == 0:
                    v = ApexVertex(2 * c - 1, 2 * r, self._owner[(c, r)], 0)
                else:
                    v = ApexVertex(2 * c, 2 * r - 1, self._owner[(c, r)], 1)
                ids.append(len(vertices))
                vertices.append(v)
            paths.append(tuple(ids))
        self.vertices = tuple(vertices)
        self.paths = tuple(paths)
        self.edges = tuple(
            (path[i], path[i + 1]) for path in self.paths for i in range(len(path) - 1)
        )

    def independent_set_count(self):
        "Product of Fibonacci counts over the paths."
        count = 1
        for path in self.paths:
            count *= fibonacci(len(path) + 2)
        return count

    def encode(self, cell):
        """Bit strings, one per path, recording which options a cell takes."""
        if apex_of(cell) != self.apex:
            raise ValueError("cell does not have this apex")
        bits = []
        for path in self.paths:
            s = []
            for i in path:
                v = self.vertices[i]
                pc = cell[v.owner]
                s.append("1" if (pc.left if v.axis == 0 else pc.down) else "0")
            bits.append("".join(s))
        return tuple(bits)

    def decode(self, bits):
        """The cell taking exactly the selected options; rejects conflicts."""
        if len(bits) != len(self.paths):
            raise ValueError("one bit string per path required")
        left = [0] * len(self.apex)
        down = [0] * len(self.apex)
        for path, s in zip(self.paths, bits):
            if len(s) != len(path):
                raise ValueError("bit string length must match path length")
            if "11" in s:
                raise ValueError(f"{s!r} selects two conflicting options")
            for i, bit in zip(path, s):
                if bit == "1":
                    v = self.vertices[i]
                    if v.axis == 0:
                        left[v.owner] = 1
                    else:
                        down[v.owner] = 1
        return tuple(
            Piece(c, r, left[k], down[k]) for k, (c, r) in enumerate(self.apex)
        )

    def iter_cells(self):
        "All cells with this apex, in lexicographic bit-pattern order."
        import itertools

        for bits in itertools.product(*(path_strings(len(p)) for p in self.paths)):
            yield self.decode(bits)

    def half_squares(self):
        """Disjoint sets of half-squares, one set per vertex.

        Half-squares are (col, row, half) with half "ul" or "lr", the two
        triangles cut by the up-right to down-left diagonal of a board
        square.  Cardinalities are 4 for a singleton path, 3 for a path
        endpoint, and 2 otherwise.
        """
        slots = {(v.col2, v.row2) for v in self.vertices}
        alloc = {}
        for path in self.paths:
            for pos, i in enumerate(path):
                v = self.vertices[i]
                c = (v.col2 + 1) // 2
                r = (v.row2 + 1) // 2
                first = pos == 0
                last = pos == len(path) - 1
                if v.axis == 0:
                    # vertical edge between squares (c-1, r) and (c, r)
                    hs = {(c - 1, r, "lr"), (c, r, "ul")}
                    if first:
                        hs.add((c - 1, r, "ul"))
                    if last:
                        if (2 * c, 2 * r - 1) in slots:
                            hs.add((c - 1, r - 1, "ul"))
                        else:
                            hs.add((c, r, "lr"))
                else:
                    # horizontal edge between squares (c, r-1) and (c, r)
                    hs = {(c, r - 1, "ul"), (c, r, "lr")}
                    if last:
                        hs.add((c, r - 1, "lr"))
                    if first:
                        if (2 * c - 1, 2 * r) in slots:
                            hs.add((c - 1, r - 1, "lr"))
                        else:
                            hs.add((c, r, "ul"))
                alloc[v] = frozenset(hs)
        return alloc

    def to_json(self):
        return {
            "vertices": [
                {"position": list(v.position), "owner": v.owner, "axis": "xy"[v.axis]}
                for v in self.vertices
            ],
            "edges": [list(e) for e in self.edges],
            "paths": [list(p) for p in self.paths],
        }


def check_half_squares(graph, p, q):
    """Raise AssertionError unless graph.half_squares() is an allocation
    behind the vanishing bound on the p x q board.

    Each vertex gets 4 half-squares on a singleton path, 3 at a path end
    and 2 inside a path; the sets are pairwise disjoint, every half-square
    is (col, row, "ul" or "lr") on the board, and there are at most 2pq.
    """
    alloc = graph.half_squares()
    seen = set()
    for path in graph.paths:
        for pos, i in enumerate(path):
            hs = alloc[graph.vertices[i]]
            expected = 2 + (pos == 0) + (pos == len(path) - 1)
            assert len(hs) == expected, f"half-square count at {graph.apex}"
            assert not (hs & seen), f"overlapping half-squares at {graph.apex}"
            for c, r, half in hs:
                assert 1 <= c <= p and 1 <= r <= q and half in ("ul", "lr"), (
                    f"half-square off the board at {graph.apex}"
                )
            seen |= hs
    assert len(seen) <= 2 * p * q, f"more half-squares than the board at {graph.apex}"
