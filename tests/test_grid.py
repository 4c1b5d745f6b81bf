import itertools
import math
import operator
import pickle
import random

import pytest

from hardsquares import grid, morse, parallel
from hardsquares.grid import Piece

from reference import FVECTORS


# the f-vector of (6,6,6), as the per-corner-set count gave it
F666 = (
    1402410240, 12020659200, 45620294400, 100973174400, 144484300800,
    140015416320, 93581359200, 43107131520, 13447673280, 2738327040,
    341288640, 23322240, 704160,
)


def arr(*pieces):
    return tuple(Piece(*pc) for pc in pieces)


def test_snap():
    assert grid.snap(3) == 3
    assert grid.snap(2.3) == 2.5
    assert grid.snap(4.999) == 4.5
    assert grid.snap(-1.25) == -1.5
    for x in (0.1, 2.0, 7.75, -3.5):
        assert grid.snap(grid.snap(x)) == grid.snap(x)


def test_pieces_overlap():
    assert grid.pieces_overlap(Piece(1, 1, 0, 0), Piece(1, 1, 0, 0))
    assert not grid.pieces_overlap(Piece(1, 1, 0, 0), Piece(2, 1, 0, 0))
    assert grid.pieces_overlap(Piece(2, 2, 1, 1), Piece(1, 1, 0, 0))


def test_overlap_matches_square_sets():
    pieces = []
    for c in range(1, 4):
        for r in range(1, 4):
            for left in (0, 1):
                for down in (0, 1):
                    if (left and c < 2) or (down and r < 2):
                        continue
                    pieces.append(Piece(c, r, left, down))
    for a in pieces:
        for b in pieces:
            expected = bool(set(a.squares()) & set(b.squares()))
            assert grid.pieces_overlap(a, b) == expected


def test_is_valid_cell():
    assert grid.is_valid_cell(arr((1, 1, 0, 0), (2, 2, 0, 0)))
    assert not grid.is_valid_cell(arr((2, 2, 0, 1), (2, 1, 0, 0)))
    assert grid.is_valid_cell(arr((2, 2, 0, 1), (1, 1, 0, 0)))


def test_apex_of():
    cell = arr((1, 1, 0, 0), (2, 2, 0, 0))
    assert grid.apex_of(cell) == ((1, 1), (2, 2))
    cell = arr((2, 2, 0, 1), (1, 1, 0, 0))
    assert grid.apex_of(cell) == ((2, 2), (1, 1))
    assert grid.apex_of(arr((2, 2, 1, 1))) == ((2, 2),)


def test_boundary_of_vertex_is_empty():
    assert grid.boundary(arr((1, 1, 0, 0), (2, 2, 0, 0))) == []


def test_boundary_of_edge_signs():
    cell = arr((2, 1, 1, 0))
    facets = grid.boundary(cell)
    assert facets == [
        (arr((2, 1, 0, 0)), 1),
        (arr((1, 1, 0, 0)), -1),
    ]


def test_boundary_squares_to_zero_on_two_cells():
    two_cells = [c for c in grid.enumerate_cells(2, 2, 2) if grid.cell_dim(c) == 2]
    assert len(two_cells) == 4
    for cell in two_cells:
        grid.check_cell(cell)


def test_boundary_squares_to_zero_everywhere_small():
    for n, p, q in [(2, 2, 2), (2, 2, 3), (3, 2, 3), (3, 3, 3), (2, 1, 4)]:
        for cell in grid.enumerate_cells(n, p, q):
            if grid.cell_dim(cell) >= 2:
                grid.check_cell(cell)


def test_enumeration_counts():
    from collections import Counter

    counts = Counter(grid.cell_dim(cell) for cell in grid.enumerate_cells(2, 2, 2))
    assert (counts[0], counts[1], counts[2]) == (12, 16, 4)
    assert grid.f_vector(1, 2, 2) == (4, 4, 1)
    assert grid.f_vector(3, 2, 2) == (24, 24)


def test_enumeration_is_apex_major_lex():
    apexes = []
    for cell in grid.enumerate_cells(2, 2, 3):
        apex = grid.apex_of(cell)
        if not apexes or apexes[-1] != apex:
            apexes.append(apex)
    assert apexes == sorted(apexes)
    assert len(apexes) == len(set(apexes))


def test_enumeration_order_is_pinned():
    # enumerate_cells builds each corner set's cells once and relabels
    # them; the stream must still be the per-apex backtracking, cell for
    # cell.  n = 5 stops at 3 x 3: (5, 3, 4) has 2.1 million cells.
    instances = [
        (n, p, q)
        for p in range(1, 5)
        for q in range(1, 5)
        for n in range(min(4, p * q) + 2)
        if n < 5 or p * q <= 9
    ]
    assert (5, 2, 4) in instances and (5, 3, 3) in instances
    for n, p, q in instances:
        reference = (
            c
            for a in itertools.permutations(grid.board_squares(p, q), n)
            for c in grid.cells_with_apex(a)
        )
        pairs = itertools.zip_longest(grid.enumerate_cells(n, p, q), reference)
        assert all(itertools.starmap(operator.eq, pairs)), (n, p, q)


def test_enumeration_edge_cases():
    assert list(grid.enumerate_cells(3, 1, 2)) == []
    empty = list(grid.enumerate_cells(0, 2, 2))
    assert len(empty) == 1 and empty[0] == ()
    assert grid.f_vector(0, 3, 3) == (1,)
    assert grid.f_vector(5, 2, 2) == ()


@pytest.mark.parametrize(
    "args, name", [((-1, 2, 2), "n"), ((2, -1, 3), "p"), ((2, 3, -1), "q")]
)
def test_f_vector_refuses_negative_arguments(args, name):
    with pytest.raises(ValueError, match=f"^{name} "):
        grid.f_vector(*args)


def test_facets_come_before_their_cell():
    # oracle numbers cells as they stream, which needs every facet first
    instances = [
        (0, 2, 2), (1, 1, 1), (2, 1, 4), (3, 1, 3), (2, 4, 1), (2, 2, 2),
        (3, 2, 2), (4, 2, 2), (3, 2, 3), (3, 3, 2), (2, 3, 3), (5, 2, 3),
    ]
    for n, p, q in instances:
        seen = set()
        for cell in grid.enumerate_cells(n, p, q):
            for facet, _ in grid.boundary(cell):
                assert facet in seen, (n, p, q, cell, facet)
            seen.add(cell)
        assert len(seen) == sum(grid.f_vector(n, p, q)), (n, p, q)


def test_f_vector_against_reference():
    for (n, p, q), expected in FVECTORS.items():
        assert grid.f_vector(n, p, q) == expected, (n, p, q)


def euler(counts):
    return sum(x if i % 2 == 0 else -x for i, x in enumerate(counts))


def test_f_vector_beyond_the_brute_force():
    # no reference lists these: the vertices are the injective placements,
    # and the Euler characteristic is that of the Morse complex
    for (n, p, q), chi in {
        (6, 6, 6): 0,
        (6, 5, 6): 720,
        (7, 4, 5): -5040,
        (8, 4, 4): 80640,
    }.items():
        fv = grid.f_vector(n, p, q)
        assert fv[0] == math.perm(p * q, n), (n, p, q)
        assert euler(fv) == euler(morse.critical_counts(n, p, q)) == chi, (n, p, q)
        if (n, p, q) == (6, 6, 6):
            assert fv == F666


# perfbench's census boards: 2 <= p <= q <= 5, 2 <= n <= min(6, pq)
CENSUS = [
    (n, p, q)
    for p in range(2, 6)
    for q in range(p, 6)
    for n in range(2, min(6, p * q) + 1)
]


def test_f_vector_is_two_pool_jobs(monkeypatch):
    # each f-vector is one pmap call of two jobs, the halves of one
    # transfer, so a census pass runs 96 jobs; two threads ship each half's
    # states back pickled, which the stand-in does without forking.  The
    # transfer passes threads on only from the break-even up, and runs
    # smaller transfers in the caller
    calls = []

    def pmap(fn, jobs, threads):
        calls.append((len(jobs), threads))
        if threads == 1:
            return [fn(job) for job in jobs]
        return [pickle.loads(pickle.dumps(fn(job))) for job in jobs]

    monkeypatch.setattr(parallel, "pmap", pmap)
    forked = set()
    for n, p, q in CENSUS + [(7, 4, 5)]:
        calls.clear()
        one = grid.f_vector(n, p, q, threads=1)
        two = grid.f_vector(n, p, q, threads=2)
        assert one == two, (n, p, q)
        passed = 2 if grid._window_subsets(n, p, q) >= grid._FORK_SUBSETS else 1
        assert calls == [(2, 1), (2, passed)], (n, p, q, calls)
        if passed == 2:
            forked.add((n, p, q))
    assert len(CENSUS) == 48
    # the largest census board forks; (7,4,5), 4,784 subsets, and the rest
    # run in the caller
    assert forked == {(6, 5, 5)}


def test_f_vector_matches_enumeration():
    for n in range(0, 4):
        for p in range(1, 4):
            for q in range(1, 4):
                counts = []
                for cell in grid.enumerate_cells(n, p, q):
                    d = grid.cell_dim(cell)
                    if d >= len(counts):
                        counts.extend([0] * (d + 1 - len(counts)))
                    counts[d] += 1
                assert tuple(counts) == grid.f_vector(n, p, q), (n, p, q)


def test_f_vector_bounds_and_vertex_count():
    for n in range(0, 5):
        for p in range(1, 5):
            for q in range(1, 5):
                fv = grid.f_vector(n, p, q)
                if n > p * q:
                    assert fv == ()
                    continue
                assert len(fv) <= min(p * q - n, 2 * n) + 1
                assert fv[0] == math.perm(p * q, n)
                if fv:
                    assert fv[-1] > 0


def test_full_subcomplex_property():
    # a cell is valid iff all of its 0-faces are valid, over ambient cells
    for p, q in [(2, 2), (3, 2), (3, 3)]:
        pieces = []
        for c in range(1, p + 1):
            for r in range(1, q + 1):
                for left in (0, 1):
                    for down in (0, 1):
                        if (left and c < 2) or (down and r < 2):
                            continue
                        pieces.append(Piece(c, r, left, down))
        for combo in itertools.product(pieces, repeat=2):
            cell = tuple(combo)
            vertex_ok = all(
                grid.is_valid_cell(v) for v in grid.cell_vertices(cell)
            )
            assert grid.is_valid_cell(cell) == vertex_ok


def test_relabel_commutes_with_apex_and_validity():
    rng = random.Random(11)
    cells = [c for c in grid.enumerate_cells(3, 3, 3)]
    for _ in range(200):
        cell = rng.choice(cells)
        perm = tuple(rng.sample(range(3), 3))
        image = grid.relabel(cell, perm)
        assert grid.is_valid_cell(image)
        assert grid.apex_of(image) == tuple(grid.apex_of(cell)[j] for j in perm)


def test_relabel_sign_law():
    rng = random.Random(7)
    for _ in range(500):
        p = rng.randint(2, 5)
        q = rng.randint(2, 5)
        n = rng.randint(1, min(5, p * q))
        apex = tuple(rng.sample(grid.board_squares(p, q), n))
        cells = [c for c in grid.cells_with_apex(apex) if grid.cell_dim(c) >= 1]
        if not cells:
            continue
        cell = rng.choice(cells)
        perm = tuple(rng.sample(range(n), n))
        sign = grid.relabel_sign(cell, perm)
        relabeled = {f: s for f, s in grid.boundary(grid.relabel(cell, perm))}
        transported = {
            grid.relabel(f, perm): s * sign * grid.relabel_sign(f, perm)
            for f, s in grid.boundary(cell)
        }
        assert relabeled == transported


def test_sliding_puzzle_counts():
    assert grid.sliding_puzzle_counts(2, 2) == (24, 24)
    assert grid.sliding_puzzle_counts(2, 3) == (720, 840)
    for p, q in [(2, 2), (2, 3)]:
        f0, f1 = grid.sliding_puzzle_counts(p, q)
        fv = grid.f_vector(p * q - 1, p, q)
        assert (fv[0], fv[1]) == (f0, f1)
        assert len(fv) == 2  # a graph: no extension beyond single dominoes


def test_cells_json():
    # the JSON form of each cell, as the complex-json export writes it after its id
    cells = [grid.cell_json(cell) for cell in grid.enumerate_cells(1, 2, 2)]
    assert len(cells) == 9
    assert cells[0]["pieces"] == [[1, 1, 0, 0]]
    assert list(cells[0]) == ["pieces", "dim"]
    assert sum(1 for c in cells if c["dim"] == 2) == 1
    for cell, c in zip(grid.enumerate_cells(1, 2, 2), cells):
        assert c["pieces"] == [list(pc) for pc in cell]
        assert c["dim"] == grid.cell_dim(cell)
