import itertools
import random

import pytest

from hardsquares import grid
from hardsquares.apexgraph import ApexGraph, check_half_squares, fibonacci, path_structure
from hardsquares.grid import Piece


def positions(graph):
    return [v.position for v in graph.vertices]


def brute_force_edges(corners):
    """Edges by direct application of the two conflict rules to all pairs."""
    cs = set(corners)
    vertices = []
    for c, r in sorted(cs):
        if c > 1 and (c - 1, r) not in cs:
            vertices.append(((c, r), 0))
        if r > 1 and (c, r - 1) not in cs:
            vertices.append(((c, r), 1))
    # global order: ascending coordinate sum, then column
    vertices.sort(key=lambda v: (v[0][0] + v[0][1], 2 * v[0][0] - (v[1] == 0)))
    vset = set(vertices)
    edges = set()
    for (c, r) in cs:
        # same-piece conflict: width and height both covered by (c-1, r-1)
        if ((c, r), 0) in vset and ((c, r), 1) in vset:
            if (c - 1, r - 1) in cs:
                edges.add(frozenset((((c, r), 0), ((c, r), 1))))
        # cross-piece conflict between (c, r) width and (c-1, r+1) height
        if (c - 1, r + 1) in cs and (c - 1, r) not in cs and c > 1:
            edges.add(frozenset((((c, r), 0), ((c - 1, r + 1), 1))))
    return vertices, edges


def test_empty_graph():
    g = ApexGraph(((1, 1),), (2, 2))
    assert g.vertices == () and g.paths == () and g.edges == ()
    assert g.independent_set_count() == 1


def test_two_vertex_path():
    g = ApexGraph(((1, 2), (2, 1)), (2, 2))
    assert positions(g) == [(1.0, 1.5), (1.5, 1.0)]
    assert len(g.edges) == 1
    assert [len(p) for p in g.paths] == [2]
    assert g.independent_set_count() == 3
    assert len(grid.cells_with_apex(((1, 2), (2, 1)))) == 3


def test_two_singleton_paths():
    g = ApexGraph(((2, 1), (2, 2)), (2, 2))
    assert positions(g) == [(1.5, 1.0), (1.5, 2.0)]
    assert g.edges == ()
    assert [len(p) for p in g.paths] == [1, 1]
    assert g.independent_set_count() == 4


def test_structure_matches_brute_force():
    # vertices, edge set, degree <= 2, acyclicity: exhaustive over corner
    # sets with n <= 5 on boards up to 5x5
    squares = grid.board_squares(5, 5)
    rng = random.Random(3)
    for n in range(1, 6):
        combos = itertools.combinations(squares, n)
        for combo in combos:
            paths = path_structure(combo)
            flat = [slot for path in paths for slot in path]
            verts, edges = brute_force_edges(combo)
            assert flat == verts, combo
            path_edges = {
                frozenset((path[i], path[i + 1]))
                for path in paths
                for i in range(len(path) - 1)
            }
            assert path_edges == edges, combo
            degree = {}
            for a, b in edges:
                degree[a] = degree.get(a, 0) + 1
                degree[b] = degree.get(b, 0) + 1
            assert all(d <= 2 for d in degree.values())


def test_bijection_counts_exhaustive():
    for p, q in [(2, 2), (3, 3), (4, 4), (2, 4), (1, 4)]:
        squares = grid.board_squares(p, q)
        for n in range(1, 5):
            for combo in itertools.combinations(squares, n):
                g = ApexGraph(combo, (p, q))
                cells = grid.cells_with_apex(combo)
                assert g.independent_set_count() == len(cells), combo


def test_iter_cells_matches_backtracking():
    for combo in itertools.combinations(grid.board_squares(3, 3), 3):
        g = ApexGraph(combo, (3, 3))
        got = sorted(g.iter_cells())
        want = sorted(grid.cells_with_apex(combo))
        assert got == want


def test_encode_decode_roundtrip():
    for cell in grid.enumerate_cells(2, 3, 3):
        g = ApexGraph(grid.apex_of(cell), (3, 3))
        bits = g.encode(cell)
        assert sum(s.count("1") for s in bits) == grid.cell_dim(cell)
        assert g.decode(bits) == cell


def test_encode_zero_cell_and_example():
    cell = (Piece(1, 1, 0, 0), Piece(2, 2, 0, 0))
    g = ApexGraph(grid.apex_of(cell), (2, 2))
    assert g.encode(cell) == ("00",)
    g = ApexGraph(((1, 2), (2, 1)), (2, 2))
    cell = g.decode(("10",))
    # first vertex in global order is the height option of the piece at (1, 2)
    assert cell == (Piece(1, 2, 0, 1), Piece(2, 1, 0, 0))


def test_encode_decode_in_own_apex_graph():
    cell = (Piece(2, 2, 0, 1), Piece(1, 1, 0, 0))
    g = ApexGraph(grid.apex_of(cell), (2, 2))
    bits = g.encode(cell)
    assert sum(s.count("1") for s in bits) == 1
    assert g.decode(bits) == cell


def test_decode_rejects_conflicts():
    g = ApexGraph(((1, 2), (2, 1)), (2, 2))
    with pytest.raises(ValueError):
        g.decode(("11",))
    with pytest.raises(ValueError):
        g.decode(("0",))


def test_face_relation_is_subset_relation():
    for n, p, q in [(2, 2, 2), (3, 3, 3)]:
        by_apex = {}
        for cell in grid.enumerate_cells(n, p, q):
            by_apex.setdefault(grid.apex_of(cell), []).append(cell)
        for apex, cells in by_apex.items():
            g = ApexGraph(apex, (p, q))
            coded = [(cell, g.encode(cell)) for cell in cells]
            for (e, be) in coded:
                faces = set(closure(e))
                for (f, bf) in coded:
                    subset = all(
                        all(x <= y for x, y in zip(sf, se))
                        for sf, se in zip(bf, be)
                    )
                    assert (f in faces) == subset


def closure(cell):
    out = {cell}
    frontier = [cell]
    while frontier:
        nxt = []
        for c in frontier:
            for f, _ in grid.boundary(c):
                if f not in out:
                    out.add(f)
                    nxt.append(f)
        frontier = nxt
    return out


def test_fibonacci():
    assert [fibonacci(k) for k in range(1, 9)] == [1, 1, 2, 3, 5, 8, 13, 21]


def test_half_squares_singleton_example():
    g = ApexGraph(((2, 2),), (2, 2))
    assert [len(p) for p in g.paths] == [1, 1]
    check_half_squares(g, 2, 2)  # 4 half-squares each, disjoint
    a, b = g.half_squares().values()
    assert len(a | b) == 8  # total area 4 = board area


def test_half_squares_exhaustive():
    for p, q in [(2, 2), (3, 3), (4, 4), (2, 4)]:
        squares = grid.board_squares(p, q)
        for n in range(1, 5):
            for combo in itertools.combinations(squares, n):
                check_half_squares(ApexGraph(combo, (p, q)), p, q)


def test_half_squares_random_larger():
    rng = random.Random(5)
    squares = grid.board_squares(5, 5)
    for _ in range(400):
        n = rng.randint(1, 6)
        combo = tuple(sorted(rng.sample(squares, n)))
        check_half_squares(ApexGraph(combo, (5, 5)), 5, 5)


def test_graph_validation():
    with pytest.raises(ValueError):
        ApexGraph(((1, 1), (1, 1)), (2, 2))
    with pytest.raises(ValueError):
        ApexGraph(((3, 1),), (2, 2))


def test_to_json():
    g = ApexGraph(((1, 2), (2, 1)), (2, 2))
    data = g.to_json()
    assert data["vertices"][0] == {"position": [1.0, 1.5], "owner": 0, "axis": "y"}
    assert data["edges"] == [[0, 1]]
    assert data["paths"] == [[0, 1]]
