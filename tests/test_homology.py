import pytest

from hardsquares import reduce
from hardsquares.homology import (
    AuditFailure,
    ChainComplex,
    SparseMatrix,
    audit,
    betti,
    euler,
    parse_field,
    rank,
    trim,
    validate_d2,
)
from hardsquares.reduce import reduce_complex

import shared


def dense(rows):
    entries = []
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v:
                entries.append((r, c, v))
    width = len(rows[0]) if rows else 0
    return SparseMatrix(len(rows), width, tuple(entries))


def test_parse_field():
    assert parse_field("gf2") == ("gf", 2)
    assert parse_field("gf13") == ("gf", 13)
    assert parse_field("rational") == ("rational", 0)
    with pytest.raises(ValueError):
        parse_field("gf4")
    with pytest.raises(ValueError):
        parse_field("gf1")
    with pytest.raises(ValueError):
        parse_field("float")


def test_rank_trivial():
    zero = SparseMatrix(3, 4, ())
    eye = dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for field in ("gf2", "gf3", "rational"):
        assert rank(zero, field) == 0
        assert rank(eye, field) == 3


def test_rank_depends_on_field():
    m = dense([[2, 0], [0, 3]])
    assert rank(m, "gf2") == 1
    assert rank(m, "gf3") == 1
    assert rank(m, "gf5") == 2
    assert rank(m, "rational") == 2

    m = dense([[1, 2], [3, 6]])
    for field in ("gf2", "gf5", "rational"):
        assert rank(m, field) == 1
    assert rank(m, "gf3") == 1


def test_rank_random_matches_fraction_free():
    import random

    rng = random.Random(9)
    from fractions import Fraction

    def reference_rank(rows, width):
        mat = [[Fraction(x) for x in row] for row in rows]
        r = 0
        for c in range(width):
            piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
            if piv is None:
                continue
            mat[r], mat[piv] = mat[piv], mat[r]
            for i in range(len(mat)):
                if i != r and mat[i][c]:
                    f = mat[i][c] / mat[r][c]
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
            r += 1
        return r

    for _ in range(60):
        h = rng.randint(1, 6)
        w = rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(w)] for _ in range(h)]
        assert rank(dense(rows), "rational") == reference_rank(rows, w)


def test_betti_detects_torsion_style_difference():
    # one 0-cell, one 1-cell, boundary multiplication by 2
    cc = ChainComplex((1, 1), ((), ((0, 0, 2),)))
    assert betti(cc, "gf2") == (1, 1)
    assert betti(cc, "gf3") == ()
    assert betti(cc, "rational") == ()
    # d e1 = v + w, d e2 = v - w: d_1 is not a graph, so no vertex may be
    # split off as a free H_0 generator
    cc = ChainComplex((2, 2), ((), ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, -1))))
    assert betti(cc, "gf2") == (1, 1)
    assert betti(cc, "gf3") == ()
    assert betti(cc, "rational") == ()


def test_betti_of_morse_complexes():
    assert shared.morse_betti(3, 3, 3) == (1, 3, 2)
    assert shared.morse_betti(4, 3, 4) == (1, 6, 29)
    assert shared.morse_betti(3, 2, 2) == (2, 2)


def test_betti_fields_agree_when_torsion_free():
    for n, p, q in [(2, 2, 2), (3, 2, 3), (3, 3, 3), (4, 3, 3)]:
        cc = shared.morse_complex(n, p, q).chain_complex()
        assert betti(cc, "gf2") == betti(cc, "rational") == betti(cc, "gf3")


def test_validate_d2_raises_on_broken_complex():
    cc = ChainComplex(
        (2, 1, 1),
        ((), ((0, 0, 1), (1, 0, 1)), ((0, 0, 1),)),
    )
    with pytest.raises(AssertionError):
        validate_d2(cc)


def test_euler_and_trim():
    assert euler((12, 16, 4)) == 0
    assert euler((1, 1)) == 0
    assert trim((1, 2, 0, 0)) == (1, 2)
    assert trim((0,)) == ()


def test_audit_passes_and_fails():
    report = audit(2, 2, 2, (1, 1), (12, 16, 4), morse_counts=(4, 4))
    assert report["euler"] == 0
    with pytest.raises(AuditFailure):
        audit(2, 2, 2, (1, 2), (12, 16, 4))  # euler broken
    with pytest.raises(AuditFailure):
        audit(4, 2, 2, (24, 1), (24, 1))  # degree above the vanishing bound
    with pytest.raises(AuditFailure):
        audit(2, 2, 2, (1, 1), (12, 16, 4), morse_counts=(4, 0))


def test_reduce_circle():
    # triangle boundary of a disk minus the face: a circle
    counts = [3, 3]
    triples = [
        (1, 0, 0, -1), (1, 1, 0, 1),
        (1, 1, 1, -1), (1, 2, 1, 1),
        (1, 0, 2, -1), (1, 2, 2, 1),
    ]
    seeds, counts2, tris2 = reduce_complex(counts, triples)
    assert seeds == 1
    assert counts2 == [0, 1]
    assert tris2[1] == []


def test_reduce_preserves_betti_without_units():
    cc = shared.morse_complex(3, 3, 3).chain_complex()
    seeds, counts2, tris2 = reduce_complex(
        cc.counts, ((j, r, c, v) for j in range(1, len(cc.counts)) for r, c, v in cc.boundaries[j])
    )
    reduced = ChainComplex(tuple(counts2), tuple(tuple(t) for t in tris2))
    b0, *rest = betti(reduced, "gf2", validate=False)
    assert (b0 + seeds, *rest) == (1, 3, 2)
    assert sum(counts2) < sum(cc.counts)


def test_betti_empty():
    assert betti(ChainComplex((), ()), "gf2") == ()


def test_gf2_skips_greedy_elimination(monkeypatch):
    cc = shared.morse_complex(4, 3, 4).chain_complex()
    calls = []

    def greedy(*args):
        calls.append(args)
        raise AssertionError("greedy elimination ran")

    monkeypatch.setattr(reduce, "_greedy", greedy)
    assert betti(cc, "gf2") == (1, 6, 29)
    assert not calls
    with pytest.raises(AssertionError, match="greedy elimination ran"):
        betti(cc, "gf3")
    assert len(calls) == 1
