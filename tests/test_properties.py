"""Property tests: rank and Betti numbers against dense references.

rank is checked on random integer matrices with dependent columns, over
GF(2) (bit-packed columns, so more than 64 rows make a column span several
machine words), GF(3) and the rationals.

Each example is a face-closed set of cells of a small 2- or 3-dimensional
cubical grid in which every cell's basis vector may be negated.  Negating
a basis vector leaves the homology unchanged, and a negated vertex turns
an edge boundary x - y into x + y, so the examples reach both sides of the
coreduction gate of reduce_complex.  The boundary of a cell that is no
other cell's facet may also be multiplied by 2 or 3: d o d stays zero,
the homology gains torsion, and an edge scaled so has a boundary that no
sign change makes x - y, which is where splitting off vertices as free
H_0 generators would give wrong answers.  Renumbering the cells of each
dimension must leave every Betti number unchanged.
"""

from fractions import Fraction
from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from hardsquares.homology import ChainComplex, SparseMatrix, betti, rank, trim

SHAPES = ((1, 3), (2, 2), (3, 3), (1, 2, 2), (2, 2, 2))


def dim(cell):
    return sum(w for _, w in cell)


def grid_cells(shape):
    "Every cell as a tuple of (low, width) per axis, width 0 or 1."
    axes = [
        [(lo, w) for w in (0, 1) for lo in range(size + 1 - w)] for size in shape
    ]
    return list(product(*axes))


def signed_facets(cell):
    "The cubical boundary: (facet, sign) pairs."
    out = []
    k = 0
    for i, (lo, w) in enumerate(cell):
        if not w:
            continue
        sign = -1 if k % 2 else 1
        for shift, s in ((1, sign), (0, -sign)):
            out.append((cell[:i] + ((lo + shift, 0),) + cell[i + 1:], s))
        k += 1
    return out


@st.composite
def signed_cubical_complexes(draw):
    cells = grid_cells(draw(st.sampled_from(SHAPES)))
    closed = set()
    todo = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=6))
    while todo:
        cell = todo.pop()
        if cell not in closed:
            closed.add(cell)
            todo.extend(f for f, _ in signed_facets(cell))
    ordered = sorted(closed, key=lambda c: (dim(c), c))
    size = len(ordered)
    flips = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    scales = draw(st.lists(st.sampled_from((1, 1, 2, 3)), min_size=size, max_size=size))
    # with vertex_flips off, d_1 keeps the form x - y unless an edge is scaled
    vertex_flips = draw(st.booleans())
    facets = {f for cell in ordered for f, _ in signed_facets(cell)}
    sign = {}
    scale = {}
    for cell, flip, k in zip(ordered, flips, scales):
        sign[cell] = -1 if flip and (dim(cell) or vertex_flips) else 1
        scale[cell] = 1 if cell in facets else k
    index = {}
    counts = [0] * (dim(ordered[-1]) + 1)
    for cell in ordered:
        index[cell] = counts[dim(cell)]
        counts[dim(cell)] += 1
    tris = [[] for _ in counts]
    for cell in ordered:
        for facet, s in signed_facets(cell):
            v = sign[facet] * sign[cell] * scale[cell] * s
            tris[dim(cell)].append((index[facet], index[cell], v))
    return ChainComplex(tuple(counts), tuple(tuple(sorted(t)) for t in tris))


def dense_rank(rows, width, p):
    "Gaussian elimination over GF(p), or over the rationals when p == 0."
    mat = [[Fraction(x) if p == 0 else x % p for x in row] for row in rows]
    rank = 0
    for c in range(width):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][c] if p == 0 else pow(mat[rank][c], p - 2, p)
        for i in range(rank + 1, len(mat)):
            f = mat[i][c] * inv
            if f:
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
                if p:
                    mat[i] = [a % p for a in mat[i]]
        rank += 1
    return rank


@st.composite
def integer_matrices(draw):
    "Sparse integer matrices, some columns integer combinations of others."
    nrows = draw(st.one_of(st.integers(1, 8), st.integers(65, 200)))
    entry = st.tuples(st.integers(0, nrows - 1), st.integers(-4, 4))
    cols = [dict(draw(st.lists(entry, max_size=8))) for _ in range(draw(st.integers(1, 10)))]
    term = st.tuples(st.integers(0, len(cols) - 1), st.integers(-3, 3))
    for _ in range(draw(st.integers(0, 8))):
        col = {}
        for i, k in draw(st.lists(term, min_size=1, max_size=4)):
            for r, v in cols[i].items():
                col[r] = col.get(r, 0) + k * v
        cols.append(col)
    order = draw(st.permutations(range(len(cols))))
    entries = [(r, c, v) for c, i in enumerate(order) for r, v in cols[i].items() if v]
    return SparseMatrix(nrows, len(cols), tuple(draw(st.permutations(entries))))


def reference_betti(cc, p):
    counts = cc.counts
    ranks = [0] * (len(counts) + 1)
    for j in range(1, len(counts)):
        rows = [[0] * counts[j] for _ in range(counts[j - 1])]
        for r, c, v in cc.boundaries[j]:
            rows[r][c] = v
        ranks[j] = dense_rank(rows, counts[j], p)
    return trim(counts[j] - ranks[j] - ranks[j + 1] for j in range(len(counts)))


@settings(max_examples=150, deadline=None)
@given(signed_cubical_complexes())
def test_betti_matches_dense_reference(cc):
    for field, p in (("gf2", 2), ("gf3", 3), ("rational", 0)):
        assert betti(cc, field) == reference_betti(cc, p)


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
def test_rank_matches_dense_reference(m):
    rows = [[0] * m.cols for _ in range(m.rows)]
    for r, c, v in m.entries:
        rows[r][c] = v
    for field, p in (("gf2", 2), ("gf3", 3), ("rational", 0)):
        assert rank(m, field) == dense_rank(rows, m.cols, p)


@settings(max_examples=100, deadline=None)
@given(signed_cubical_complexes(), st.data())
def test_betti_unchanged_by_renumbering(cc, data):
    perms = [data.draw(st.permutations(range(m))) for m in cc.counts]
    tris = ((),) + tuple(
        tuple(sorted((perms[j - 1][r], perms[j][c], v) for r, c, v in cc.boundaries[j]))
        for j in range(1, len(cc.counts))
    )
    renumbered = ChainComplex(cc.counts, tris)
    for field in ("gf2", "gf3", "rational"):
        assert betti(renumbered, field) == betti(cc, field)
