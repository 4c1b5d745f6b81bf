import hashlib
import itertools
import math
import os
import random
import signal
from array import array

import pytest

from hardsquares import grid, morse, oracle, parallel
from hardsquares.apexgraph import ApexGraph, cached_structure, path_strings
from hardsquares.grid import Piece
from hardsquares.homology import rank

import shared


def test_match_string_base_cases():
    assert morse.match_string("0") == "1"
    assert morse.match_string("1") == "0"
    assert morse.match_string("00") == "10"
    assert morse.match_string("10") == "00"
    assert morse.match_string("01") is None
    assert morse.match_string("010") is None
    assert morse.match_string("0101") == "0100"
    assert morse.match_string("0100") == "0101"


def test_match_string_rejects_invalid():
    with pytest.raises(ValueError):
        morse.match_string("110")
    with pytest.raises(ValueError):
        morse.match_string("0x1")


def test_match_string_properties():
    for k in range(1, 13):
        unmatched = []
        for s in path_strings(k):
            m = morse.match_string(s)
            if m is None:
                unmatched.append(s)
                continue
            assert sum(a != b for a, b in zip(s, m)) == 1
            assert "11" not in m
            assert morse.match_string(m) == s
        if k % 3 == 1:
            assert unmatched == []
        else:
            assert unmatched == [morse.critical_string(k)]


def test_critical_string():
    assert morse.critical_string(1) is None
    assert morse.critical_string(2) == "01"
    assert morse.critical_string(3) == "010"
    assert morse.critical_string(5) == "01001"
    assert morse.critical_string(6) == "010010"


def test_match_cell_examples():
    # two singleton paths: the first (lower diagonal) flips first
    zero = (Piece(2, 1, 0, 0), Piece(2, 2, 0, 0))
    partner = morse.match_cell(zero)
    assert partner == (Piece(2, 1, 1, 0), Piece(2, 2, 0, 0))
    assert morse.match_cell(partner) == zero

    # single 2-path carrying the unmatched pattern 01
    crit = (Piece(1, 2, 0, 0), Piece(2, 1, 1, 0))
    assert morse.match_cell(crit) is None
    status, _ = morse.cell_status(crit)
    assert status == "critical"


def test_match_cell_equivariance_exhaustive_small():
    for n, p, q in [(2, 2, 2), (3, 2, 3), (3, 3, 3)]:
        perms = list(itertools.permutations(range(n)))
        for combo in itertools.combinations(grid.board_squares(p, q), n):
            for cell in grid.cells_with_apex(combo):
                partner = morse.match_cell(cell)
                for perm in perms:
                    image = morse.match_cell(grid.relabel(cell, perm))
                    if partner is None:
                        assert image is None
                    else:
                        assert image == grid.relabel(partner, perm)


def test_match_cell_equivariance_random_larger():
    rng = random.Random(23)
    for _ in range(300):
        p = rng.randint(2, 5)
        q = rng.randint(2, 5)
        n = rng.randint(2, min(5, p * q))
        apex = tuple(rng.sample(grid.board_squares(p, q), n))
        cells = grid.cells_with_apex(apex)
        cell = rng.choice(cells)
        perm = tuple(rng.sample(range(n), n))
        partner = morse.match_cell(cell)
        image = morse.match_cell(grid.relabel(cell, perm))
        if partner is None:
            assert image is None
        else:
            assert image == grid.relabel(partner, perm)


def test_pairing_properties_exhaustive():
    for n, p, q in [(2, 2, 2), (2, 2, 3), (3, 2, 3), (3, 3, 3), (2, 1, 4)]:
        for combo in itertools.combinations(grid.board_squares(p, q), n):
            morse.check_corner_set(combo, (p, q))


def test_critical_cell_for():
    assert morse.critical_cell_for(((1, 1), (1, 2)), (2, 2)) is not None
    assert grid.cell_dim(morse.critical_cell_for(((1, 1), (1, 2)), (2, 2))) == 0
    assert morse.critical_cell_for(((2, 1), (2, 2)), (2, 2)) is None


def test_critical_counts():
    assert morse.critical_counts(2, 2, 2) == (4, 4)
    assert morse.critical_counts(1, 1, 1) == (1,)
    assert morse.critical_counts(7, 2, 3) == ()
    assert morse.critical_counts(0, 3, 2) == (1,)


def test_critical_sets_match_decoded_cells():
    # critical_sets finds candidates by a search over the anti-diagonals
    # and dimensions by path lengths mod 3; decode each cell of every set.
    # The diagonal order is not symmetric in c and r, so p > q boards too.
    instances = [
        (n, p, q) for q in range(1, 5) for p in range(1, 5) for n in range(p * q + 1)
    ]
    for n, p, q in instances + [(5, 5, 5), (6, 4, 4)]:
        board = (p, q)
        expected = []
        for combo in itertools.combinations(grid.board_squares(p, q), n):
            cell = morse.critical_cell_for(combo, board)
            if cell is not None:
                expected.append((combo, grid.cell_dim(cell)))
        assert list(morse.critical_sets(n, p, q)) == expected, (n, p, q)


def test_critical_set_counts_on_n6_boards():
    for (n, p, q), count in {(6, 5, 5): 406, (6, 5, 6): 467, (6, 6, 6): 530}.items():
        corners = [c for c, _ in morse.critical_sets(n, p, q)]
        assert len(corners) == count, (n, p, q)
        assert all(a < b for a, b in zip(corners, corners[1:])), (n, p, q)


def test_critical_sets_look_up_only_survivors(monkeypatch):
    # the search prunes every non-critical set before its path structure is
    # looked up: one lookup per critical set, not one per C(25, 5) set
    real = morse.cached_structure
    calls = []

    def counted(corners):
        calls.append(corners)
        return real(corners)

    monkeypatch.setattr(morse, "cached_structure", counted)
    assert len(list(morse.critical_sets(5, 5, 5))) == 158
    assert len(calls) == 158


def test_transposed_boards_agree():
    # transposing the board swaps left and down, so (n, p, q) and (n, q, p)
    # have isomorphic complexes, though the pairing treats them differently
    def euler(counts):
        return sum((-1) ** j * x for j, x in enumerate(counts))

    for q in range(2, 5):
        for p in range(1, q):
            for n in range(min(4, p * q) + 1):
                fv = grid.f_vector(n, p, q)
                assert grid.f_vector(n, q, p) == fv, (n, p, q)
                for a, b in [(p, q), (q, p)]:
                    assert euler(morse.critical_counts(n, a, b)) == euler(fv), (n, a, b)
                assert (
                    morse.build_morse_complex(n, p, q).betti("gf2")
                    == morse.build_morse_complex(n, q, p).betti("gf2")
                ), (n, p, q)


def test_critical_cells_have_no_2x2_and_no_isolated_vertex():
    for n, p, q in [(2, 3, 3), (3, 3, 3), (4, 4, 4), (5, 5, 5)]:
        area = p * q
        for corners, dim in morse.critical_sets(n, p, q):
            cell = morse.critical_cell_for(corners, (p, q))
            assert all(not (pc.left and pc.down) for pc in cell)
            assert dim <= n and 3 * dim <= area
            assert all(len(path) != 1 for path in cached_structure(corners))


def test_morse_boundary_of_zero_cell():
    cell = morse.critical_cell_for(((1, 1), (1, 2)), (2, 2))
    assert morse.morse_boundary(cell) == {}


def test_morse_boundary_rejects_non_critical():
    cell = (Piece(2, 1, 0, 0), Piece(2, 2, 0, 0))
    with pytest.raises(ValueError):
        morse.morse_boundary(cell)


def test_morse_matrix_rank_222():
    mc = shared.morse_complex(2, 2, 2)
    assert mc.counts == (4, 4)
    assert len(rank(mc.chain_complex().matrix(1), "gf2")) == 3


def test_morse_d2_zero():
    from hardsquares.homology import validate_d2

    for n, p, q in [(3, 3, 3), (4, 3, 3), (4, 3, 4)]:
        validate_d2(shared.morse_complex(n, p, q).chain_complex())


def test_equivariant_assembly_matches_per_cell_flows():
    for n, p, q in [(2, 2, 2), (3, 2, 2), (3, 2, 3), (3, 3, 3), (4, 3, 3), (4, 3, 4)]:
        mc = shared.morse_complex(n, p, q)
        labeled = shared.labeled_cells(mc)
        idx = {}
        for d, cells in enumerate(labeled):
            for i, cell in enumerate(cells):
                idx[cell] = (d, i)
        for d in range(1, len(labeled)):
            tris = []
            for i, cell in enumerate(labeled[d]):
                for target, coeff in sorted(morse.morse_boundary(cell).items()):
                    dd, r = idx[target]
                    assert dd == d - 1
                    tris.append((r, i, coeff))
            # stored column-major, rows ascending within each column
            tris.sort(key=lambda e: (e[1], e[0]))
            assert tris == list(mc.chain_complex().matrix(d).entries)


def pinned_text(mc):
    """The text the build pins hash: the labeled cells, then each degree's
    triples sorted by (row, col)."""
    cc = mc.chain_complex()
    triples = [sorted(cc.matrix(d).entries) for d in range(len(mc.counts))]
    return repr((shared.labeled_cells(mc), triples))


BUILD_555_SHA256 = "278fecb7d6bb80739196df1d1347daef97208620037cdbe7e06629d954d9fed5"


@pytest.mark.parametrize("threads", [1, 2])
def test_build_is_pinned_byte_for_byte(threads):
    # a wrong sign or row id in the labeling tables changes these bytes even
    # where d o d = 0 still holds
    mc = morse.build_morse_complex(5, 5, 5, threads=threads)
    digest = hashlib.sha256(pinned_text(mc).encode()).hexdigest()
    assert digest == BUILD_555_SHA256


SMALL_BUILDS_SHA256 = "41d825e2211056b5db1bb4fdfbd7ba73048e76f16d3a21fb96ec5ae44660934c"


@pytest.mark.parametrize("threads", [1, 2])
def test_builds_are_byte_identical_at_each_thread_count(threads, monkeypatch):
    # every build with n, p, q <= 4, plus (6,4,4), where flows run one corner
    # set per pool job; two usable CPUs, so threads=2 forks on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    sizes = [(n, p, q) for n in range(5) for p in range(1, 5) for q in range(1, 5)]
    digest = hashlib.sha256()
    for n, p, q in sizes + [(6, 4, 4)]:
        mc = morse.build_morse_complex(n, p, q, threads=threads)
        digest.update(pinned_text(mc).encode())
    assert digest.hexdigest() == SMALL_BUILDS_SHA256


def _cyclic_pairing(monkeypatch):
    """Patch the walker's pairing so both corner facets of one (2,2,2) square
    pair up with it: a V-path from either goes through the square to the other.
    """
    square = next(c for c in grid.enumerate_cells(2, 2, 2) if grid.cell_dim(c) == 2)
    corners = {f for f, _ in grid.boundary(square)[::2]}
    real = morse._Walker.pair

    def cyclic(walker, code):
        if grid.unpack(code, walker.n, walker.width) in corners:
            return code ^ grid.pack(square, walker.width)
        return real(walker, code)

    monkeypatch.setattr(morse._Walker, "pair", cyclic)
    return square


def test_closed_v_path_raises(monkeypatch):
    square = _cyclic_pairing(monkeypatch)

    def hung(signum, frame):
        raise TimeoutError("the flow still runs on a cyclic pairing")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        with pytest.raises(morse.BrokenPairing, match="closed V-path"):
            morse.flow_boundary(square)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_build_refuses_over_cell_cap(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a refused build must not flow")

    monkeypatch.setattr(parallel, "pmap", no_pool)
    with pytest.raises(oracle.CellCapExceeded) as err:
        morse.build_morse_complex(3, 3, 3, cap=83)
    assert (err.value.total, err.value.cap) == (84, 83)
    monkeypatch.undo()
    assert sum(morse.build_morse_complex(3, 3, 3, cap=84).counts) == 84


def test_restrict_identity_and_examples():
    mc3 = shared.morse_complex(3, 3, 3)
    same = mc3.restrict(3, 3)
    assert same.counts == mc3.counts
    assert [list(b) for b in same.boundaries] == [list(b) for b in mc3.boundaries]
    assert mc3.restrict(2, 2).betti("gf2") == (2, 2)
    assert shared.morse_complex(4, 4, 4).restrict(3, 3).betti("gf2") == (1, 12, 11)


def test_restrict_refuses_a_kept_column_with_a_dropped_row():
    mc = shared.morse_complex(3, 3, 3)

    def fits(cell):
        return all(pc.col <= 2 and pc.row <= 2 for pc in cell)

    # point the first entry of a 1-cell column kept on 2 x 2 at a 0-cell dropped there
    cells = shared.labeled_cells(mc)
    starts, rows, vals = mc.boundaries[1]
    col = next(c for c, cell in enumerate(cells[1]) if fits(cell) and starts[c] < starts[c + 1])
    rows = array("i", rows)
    rows[starts[col]] = next(r for r, cell in enumerate(cells[0]) if not fits(cell))
    boundaries = [mc.boundaries[0], (starts, rows, vals), *mc.boundaries[2:]]
    broken = morse.MorseComplex(mc.n, mc.board, mc.sets, boundaries)
    with pytest.raises(AssertionError, match="restriction dropped the boundary of a kept cell"):
        broken.restrict(2, 2)
    assert mc.restrict(2, 2).counts == (6, 6)


def test_restrict_rejects_larger_board():
    with pytest.raises(ValueError):
        shared.morse_complex(2, 2, 2).restrict(3, 2)


def test_restriction_equals_direct_build():
    for n in range(2, 5):
        full = shared.morse_complex(n, n, n)
        full_cells = shared.labeled_cells(full)
        for p in range(1, n + 1):
            for q in range(p, n + 1):
                sub = full.restrict(p, q)
                direct = shared.morse_complex(n, p, q)
                assert sub.counts == direct.counts, (n, p, q)
                assert sub.sets == direct.sets
                # the full complex's labeled cells that fit, in id order
                assert [
                    c for cs in full_cells for c in cs
                    if all(pc.col <= p and pc.row <= q for pc in c)
                ] == [c for cs in shared.labeled_cells(direct) for c in cs]
                assert [list(b) for b in sub.boundaries] == [
                    list(b) for b in direct.boundaries
                ]


def test_verify_acyclic():
    assert morse.verify_acyclic(2, 2, 2)
    assert morse.verify_acyclic(3, 3, 3)
    for p in range(1, 5):
        for q in range(1, 5):
            assert morse.verify_acyclic(1, p, q)


def test_verify_acyclic_rejects_cyclic_pairing(monkeypatch):
    _cyclic_pairing(monkeypatch)
    assert not morse.verify_acyclic(2, 2, 2)


def test_morse_counts_dominate_betti():
    for n, p, q in [(2, 2, 2), (3, 2, 3), (3, 3, 3), (4, 3, 3)]:
        mc = shared.morse_complex(n, p, q)
        bv = shared.morse_betti(n, p, q)
        for j, b in enumerate(bv):
            assert mc.counts[j] >= b


def test_empty_and_trivial_complexes():
    assert morse.build_morse_complex(5, 2, 2).betti("gf2") == ()
    assert morse.build_morse_complex(0, 2, 2).betti("gf2") == (1,)
    assert shared.morse_betti(4, 2, 2) == (24,)


def test_build_checks_d2(monkeypatch):
    sets = dict(morse.critical_sets(3, 3, 3))
    real = morse._flow_chunk
    dropped = []

    def corrupt(args):
        cell, flow = real(args)
        if sets[args[-1]] == 2 and not dropped:
            dropped.append(flow[0])
            flow = flow[1:]
        return cell, flow

    monkeypatch.setattr(morse, "_flow_chunk", corrupt)
    with pytest.raises(AssertionError, match="d o d != 0"):
        morse.build_morse_complex(3, 3, 3, threads=1)
    assert dropped


def test_d2_checked_once_per_build(monkeypatch):
    from hardsquares import homology

    real = homology.validate_d2
    calls = []

    def counting(cc):
        calls.append(cc.counts)
        return real(cc)

    for module in (homology, morse):
        monkeypatch.setattr(module, "validate_d2", counting, raising=False)
    mc = morse.build_morse_complex(3, 3, 3, threads=1)
    assert calls == [mc.counts]
    for p, q in ((2, 2), (2, 3), (3, 3)):
        mc.restrict(p, q).betti("gf2")
    assert calls == [mc.counts]


def test_every_producer_returns_a_plain_tuple_of_pieces():
    def plain(cell):
        return type(cell) is tuple and all(type(pc) is Piece for pc in cell)

    n, p, q = 3, 3, 3
    cells = list(grid.enumerate_cells(n, p, q))
    apex = ((2, 1), (1, 2), (3, 3))
    graph = ApexGraph(apex, (p, q))
    with_apex = grid.cells_with_apex(apex)
    produced = cells + with_apex + list(graph.iter_cells())
    produced += [graph.decode(graph.encode(cell)) for cell in with_apex]
    for cell in cells:
        produced += [f for f, _ in grid.boundary(cell)]
        produced.append(grid.relabel(cell, (2, 0, 1)))
        partner = morse.match_cell(cell)
        produced += [] if partner is None else [partner]
    critical = list(morse.iter_critical_cells(n, p, q))
    produced += critical
    produced += [morse.critical_cell_for(c, (p, q)) for c, _ in morse.critical_sets(n, p, q)]
    for cell in critical:
        produced += list(morse.morse_boundary(cell))
    assert all(map(plain, produced))

    # a restriction lists the parent's own corner-set tuples, not copies
    mc = shared.morse_complex(n, p, q)
    own = {corners: corners for sets in mc.sets for corners in sets}
    sub = mc.restrict(2, 3)
    assert sum(sub.counts) > 0
    assert all(own[corners] is corners for sets in sub.sets for corners in sets)


def test_complex_holds_corner_sets_not_labeled_cells():
    def holds_piece(value):
        if isinstance(value, Piece):
            return True
        return isinstance(value, (list, tuple)) and any(map(holds_piece, value))

    for n, p, q in [(0, 2, 2), (2, 2, 2), (3, 3, 3), (4, 3, 4), (5, 2, 2)]:
        mc = shared.morse_complex(n, p, q)
        sets = list(morse.critical_sets(n, p, q))
        assert len(mc.sets) == len(mc.counts)
        for d, corner_sets in enumerate(mc.sets):
            assert corner_sets == [corners for corners, dim in sets if dim == d]
            assert mc.counts[d] == len(corner_sets) * math.factorial(n)
        assert not any(holds_piece(value) for value in vars(mc).values())
