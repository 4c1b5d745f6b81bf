import tracemalloc
from bisect import bisect_left

import pytest

from hardsquares import oracle
from hardsquares.homology import (
    AuditFailure,
    ChainComplex,
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


def sparse(rows, cols, entries):
    "The rows x cols SparseMatrix with the given (row, col, value) entries."
    return ChainComplex.from_triples((rows, cols), ((), entries)).matrix(1)


def dense(rows):
    entries = []
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v:
                entries.append((r, c, v))
    width = len(rows[0]) if rows else 0
    return sparse(len(rows), width, entries)


def test_parse_field():
    assert parse_field("gf2") == ("gf", 2)
    assert parse_field("gf13") == ("gf", 13)
    assert parse_field("rational") == ("rational", 0)
    for spec in ("Rational", "RATIONAL", "q", "Q"):
        assert parse_field(spec) == ("rational", 0)
    assert parse_field("GF3") == parse_field("Gf3") == ("gf", 3)
    with pytest.raises(ValueError):
        parse_field("gf4")
    with pytest.raises(ValueError):
        parse_field("gf1")
    with pytest.raises(ValueError):
        parse_field("float")
    # decided promptly: trial division up to sqrt(p) would take hours here
    with shared.deadline(2, "parse_field still runs after 2 s"):
        assert parse_field("gf2305843009213693951") == ("gf", 2**61 - 1)
    with shared.deadline(2, "parse_field still runs after 2 s"):
        with pytest.raises(ValueError, match="not prime"):
            parse_field(f"gf{998244353 * 1000000007}")
    with shared.deadline(2, "parse_field still runs after 2 s"):
        with pytest.raises(ValueError, match=r"limit 2\*\*64"):
            parse_field(f"gf{2**64 + 1}")


def test_rank_trivial():
    zero = sparse(3, 4, ())
    eye = dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for field in ("gf2", "gf3", "rational"):
        assert len(rank(zero, field)) == 0
        assert len(rank(eye, field)) == 3


def test_rank_sums_a_row_given_twice():
    # d_1 of this complex sums to zero, as validate_d2 reads it
    cc = ChainComplex.from_triples((1, 1), ((), ((0, 0, 1), (0, 0, -1))))
    for field in ("gf2", "gf3", "rational"):
        assert len(rank(cc.matrix(1), field)) == 0, field


def test_rank_depends_on_field():
    m = dense([[2, 0], [0, 3]])
    assert len(rank(m, "gf2")) == 1
    assert len(rank(m, "gf3")) == 1
    assert len(rank(m, "gf5")) == 2
    assert len(rank(m, "rational")) == 2

    m = dense([[1, 2], [3, 6]])
    for field in ("gf2", "gf5", "rational"):
        assert len(rank(m, field)) == 1
    assert len(rank(m, "gf3")) == 1


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
        assert len(rank(dense(rows), "rational")) == reference_rank(rows, w)


def test_betti_detects_torsion_style_difference():
    # one 0-cell, one 1-cell, boundary multiplication by 2
    cc = ChainComplex.from_triples((1, 1), ((), ((0, 0, 2),)))
    assert betti(cc, "gf2") == (1, 1)
    assert betti(cc, "gf3") == ()
    assert betti(cc, "rational") == ()
    # d e1 = v + w, d e2 = v - w: d_1 is not a graph, so no vertex may be
    # split off as a free H_0 generator
    cc = ChainComplex.from_triples(
        (2, 2), ((), ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, -1)))
    )
    assert betti(cc, "gf2") == (1, 1)
    assert betti(cc, "gf3") == ()
    assert betti(cc, "rational") == ()


def test_betti_of_morse_complexes():
    assert shared.morse_betti(3, 3, 3) == (1, 3, 2)
    assert shared.morse_betti(4, 3, 4) == (1, 6, 29)
    assert shared.morse_betti(3, 2, 2) == (2, 2)


def test_restricted_betti_peak_memory():
    # reduce_complex hands rank what survives as flat column arrays, and
    # rank reads each column from its slice; with a (row, col, value) tuple
    # per surviving entry, sorted by column again inside rank, the traced
    # peak of this call was 9.2-9.3 MB, against 4.9 MB with the arrays
    mc = shared.morse_complex(5, 5, 5)
    tracemalloc.start()
    try:
        assert mc.restrict(5, 5).betti("gf2") == (1, 10, 35, 50, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7_000_000


def test_clearing_keeps_every_rank():
    # With highest-row pivots, a pivot row tau of d_{j+1} is a column of d_j
    # in the span of the columns before it, so clearing it leaves the pivot
    # rows, and with them the rank, unchanged.  The whole-matrix ranks would
    # agree under any pivot rule; the first tau + 1 columns show the rule.
    complexes = (
        (shared.morse_complex(3, 3, 3).chain_complex(), ("gf2", "gf3", "rational")),
        (shared.morse_complex(4, 3, 4).chain_complex(), ("gf2", "gf3", "rational")),
        (oracle.build_chain_complex(3, 3, 3), ("gf2",)),
    )
    for cc, prefix_fields in complexes:
        for field in ("gf2", "gf3", "rational"):
            above = frozenset()
            for j in range(len(cc.counts) - 1, 0, -1):
                m = cc.matrix(j)
                cleared = rank(m, field, above)
                assert cleared == rank(m, field), (cc.counts, field, j)
                assert j == len(cc.counts) - 1 or above
                if field in prefix_fields:
                    entries = sorted(m.entries, key=lambda e: e[1])
                    ends = [c for _, c, _ in entries]

                    def first(k):
                        "Pivot rows of the first k columns of d_j."
                        head = tuple(entries[:bisect_left(ends, k)])
                        return rank(sparse(m.rows, k, head), field)

                    for tau in above:
                        assert first(tau + 1) == first(tau), (cc.counts, field, j, tau)
                above = cleared


def test_betti_fields_agree_when_torsion_free():
    for n, p, q in [(2, 2, 2), (3, 2, 3), (3, 3, 3), (4, 3, 3)]:
        cc = shared.morse_complex(n, p, q).chain_complex()
        assert betti(cc, "gf2") == betti(cc, "rational") == betti(cc, "gf3")


def test_validate_d2_raises_on_broken_complex():
    cc = ChainComplex.from_triples(
        (2, 1, 1),
        ((), ((0, 0, 1), (1, 0, 1)), ((0, 0, 1),)),
    )
    with pytest.raises(AssertionError) as err:
        validate_d2(cc)
    assert str(err.value) == "d o d != 0 between degrees 2 and 0: entry ((0, 0), 1)"


def test_euler_and_trim():
    assert euler((12, 16, 4)) == 0
    assert euler((1, 1)) == 0
    assert trim((1, 2, 0, 0)) == (1, 2)
    assert trim((0,)) == ()


def test_audit_passes_and_fails():
    report = audit(2, 2, 2, (1, 1), (12, 16, 4), morse_counts=(4, 4))
    assert report["euler"] == 0 and report["vanishing_bound"] == 1
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
    seeds, counts2, columns = reduce_complex(counts, triples)
    assert seeds == 1
    assert counts2 == [0, 1]
    # one 1-cell left, with no boundary entries
    assert [list(a) for a in columns[1]] == [[0, 0], [], []]


def test_reduce_refuses_a_split_column():
    # the entries of 1-cell column 1 come in two runs
    counts = [3, 2]
    stream = [(1, 0, 1, -1), (1, 1, 0, 1), (1, 0, 0, -1), (1, 2, 1, 1)]
    with pytest.raises(ValueError, match="1-cell column 1 "):
        reduce_complex(counts, stream)


def test_reduce_refuses_a_column_split_by_another_degree():
    # 1-cell column 0 comes back after a 2-cell entry; no column is out of order
    counts = [2, 1, 1]
    stream = [(1, 0, 0, -1), (2, 0, 0, 1), (1, 1, 0, 1)]
    with pytest.raises(ValueError, match="entries of 1-cell column 0 are not consecutive"):
        reduce_complex(counts, stream)


def test_reduce_refuses_an_out_of_order_column():
    # whole columns, but 1-cell column 1 comes before 1-cell column 0
    counts = [3, 2]
    stream = [(1, 1, 1, -1), (1, 2, 1, 1), (1, 0, 0, -1), (1, 1, 0, 1)]
    with pytest.raises(ValueError, match="1-cell column 1 arrives before 1-cell column 0"):
        reduce_complex(counts, stream)


def test_reduce_preserves_betti_without_units():
    cc = shared.morse_complex(3, 3, 3).chain_complex()
    seeds, counts2, columns = reduce_complex(
        cc.counts,
        (
            (j, r, c, v)
            for j in range(1, len(cc.counts))
            for r, c, v in cc.matrix(j).entries
        ),
    )
    reduced = ChainComplex(tuple(counts2), tuple(columns))
    b0, *rest = betti(reduced, "gf2")
    assert (b0 + seeds, *rest) == (1, 3, 2)
    assert sum(counts2) < sum(cc.counts)


def test_betti_empty():
    assert betti(ChainComplex((), ()), "gf2") == ()
