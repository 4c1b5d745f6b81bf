import tracemalloc

import pytest

from hardsquares import grid, oracle
from hardsquares.homology import validate_d2

import shared


def test_direct_betti_examples():
    assert shared.direct_betti(2, 2, 2) == (1, 1)
    assert shared.direct_betti(3, 2, 3) == (1, 7)
    assert shared.direct_betti(1, 3, 3) == (1,)
    assert shared.direct_betti(0, 2, 2) == (1,)
    assert oracle.direct_betti(5, 2, 2) == ()


def test_direct_betti_multiple_fields():
    for field in ("gf2", "gf3", "gf7", "rational"):
        assert oracle.direct_betti(3, 3, 3, field) == (1, 3, 2)


def test_cell_cap():
    with pytest.raises(oracle.CellCapExceeded) as err:
        oracle.direct_betti(3, 3, 3, cap=100)
    assert err.value.total == sum(grid.f_vector(3, 3, 3))
    assert err.value.cap == 100


def test_direct_betti_enumerates_once(monkeypatch):
    pulled = [0]
    enumerate_cells = grid.enumerate_cells

    def counting(*args):
        for cell in enumerate_cells(*args):
            pulled[0] += 1
            yield cell

    monkeypatch.setattr(grid, "enumerate_cells", counting)
    assert oracle.direct_betti(3, 3, 3) == (1, 3, 2)
    assert pulled[0] == sum(grid.f_vector(3, 3, 3))


def test_direct_betti_checks_cells_against_f_vector(monkeypatch):
    f_vector = grid.f_vector
    for dim, delta in ((0, 1), (0, -1), (2, 1), (2, -1)):

        def off_by_one(*args, **kwargs):
            fv = list(f_vector(*args, **kwargs))
            fv[dim] += delta
            return tuple(fv)

        monkeypatch.setattr(grid, "f_vector", off_by_one)
        for build in (oracle.direct_betti, oracle.build_chain_complex):
            with pytest.raises(AssertionError):
                build(2, 2, 2)


def test_direct_betti_peak_memory():
    # the boundary stream holds only a window of cell ids, and the reduction
    # keeps rows and cofaces in flat int32 arrays; holding an id or a coface
    # list for every cell at once takes about 11 MB here
    tracemalloc.start()
    try:
        assert oracle.direct_betti(4, 3, 3) == (1, 12, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_direct_betti_peak_memory_keeps_a_narrow_window():
    # the id window keeps a cell only while a cell of a later first corner
    # can still name it as a facet, and the reduction holds each +-1 value
    # in one byte: about 25 MB traced here, against 41 MB when every id is
    # kept until the stream passes the square right of the cell's first
    # corner and values take 8 bytes; a window that never drops a bucket
    # fails this bound too
    tracemalloc.start()
    try:
        assert oracle.direct_betti(4, 3, 4) == (1, 6, 29)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28_000_000


def test_chain_complex_build():
    cc = oracle.build_chain_complex(2, 2, 2)
    assert cc.counts == (12, 16, 4)
    validate_d2(cc)
    m = cc.matrix(1)
    assert m.rows == 12 and m.cols == 16
    assert all(v in (1, -1) for _, _, v in m.entries)


def test_conf_plane_betti():
    assert oracle.conf_plane_betti(1) == (1,)
    assert oracle.conf_plane_betti(5) == (1, 10, 35, 50, 24)
    assert oracle.conf_plane_betti(6) == (1, 15, 85, 225, 274, 120)
    with pytest.raises(ValueError):
        oracle.conf_plane_betti(0)


def test_classify_regime():
    labels = oracle.classify_regime(5, 3, 4, (1, 10, 249))
    assert labels == ["gas-consistent", "gas-consistent", "liquid"]
    assert oracle.classify_regime(6, 2, 3, (720, 0)) == ["liquid", "solid"]
    assert oracle.classify_regime(6, 5, 6, (1, 15, 85))[2] == "gas-consistent"
    assert oracle.classify_regime(4, 2, 2, (24,)) == ["liquid"]


def test_beta0_is_1_in_the_connected_range():
    # connectivity holds whenever both sides are at least 2 and at least
    # two board squares stay free
    for n, p, q in [(2, 2, 2), (2, 2, 3), (3, 2, 3), (3, 3, 3), (2, 3, 3)]:
        assert p * q - n >= 2
        assert shared.direct_betti(n, p, q)[0] == 1


def test_oracle_agrees_with_morse_n5_small_boards():
    # n = 5 boards with area at most 8
    for p, q in [(1, 5), (1, 6), (1, 7), (1, 8), (2, 3), (3, 2), (2, 4), (4, 2)]:
        assert shared.direct_betti(5, p, q) == shared.morse_betti(5, p, q), (p, q)


def test_direct_agrees_with_morse_small():
    for n, p, q in [(2, 2, 2), (3, 2, 3), (2, 3, 3), (3, 3, 3), (1, 1, 1), (2, 1, 4)]:
        assert shared.direct_betti(n, p, q) == shared.morse_betti(n, p, q)
