"""Property tests: rank and Betti numbers against dense references.

rank is checked on random integer matrices with dependent columns, the
rows of each column in a random order as reduce_complex may leave them,
over GF(2) (bit-packed columns, so more than 64 rows make a column span
several machine words), GF(3) and the rationals.

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

reduce_complex, which works on flat arrays, is checked against the
dict-based coreduction it replaced, kept here as reference_reduce: the
same seeds, counts and triples, entry for entry (reduce_complex's column
arrays read back through ChainComplex.matrix), so the cancellation order
is pinned.  The triples stream in column order, as reduce_complex
requires.  Values past one byte (300, 2**40, -2**62) widen reduce_complex's
working set mid-stream and must come out unchanged, as array('q'), and a
value past +-2**63 must raise OverflowError.

grid.relabel_sign is checked against the plain count of inversions of
the free coordinates in x1,y1,...,xn,yn order, and relabeling with its
sign against the cocycle law that makes it a right action of S_n:
relabeling by g then h is relabeling by gh, gh[k] = g[h[k]], and the
signs multiply.  The Morse expansion reads relabel_sign from a table
with one list of n! signs per odd-extension mask (morse._odd_mask); here
the masks of a random cell of the same size and of the cell with every
option complemented (same mask) fill the table before it is read.
MorseComplex.betti, which cancels unit entries over Z[S_n] and expands
what is left into labeled cells, is checked over GF(2), GF(3) and the
rationals against dense ranks of the whole labeled complex on random
complexes of free Z[S_3]-modules with d o d = 0: sums of a generator or
a pair b -> a, d b = a x, changed by random changes of basis.
The pairing's up or down, read from the bit it flips, is checked against
the dimensions of cell and partner on every cell of three small
complexes.

ChainComplex.from_triples must store the triples it is given in
column-major order, rows ascending within each column, and give them back
unchanged, up to order, through matrix(j), repeated positions included.

validate_d2 is checked against dense products d_{j-1} d_j on random
integer complexes and on signed cubical complexes with one boundary
entry changed (mostly d o d != 0), and on the unchanged ones (d o d = 0):
it raises exactly when some product is nonzero, at the lowest such
degree, and names a nonzero entry of that product.

grid._fvector_counts, the two halves of the transfer over the
anti-diagonals multiplied together at the meeting diagonal f_vector picks,
is checked against the plain sum over all corner sets, one product of
path polynomials each, summed chunk by chunk (reference_fvector_chunk
lists the corner sets with one smallest square), on the census boards
(2 <= p <= q <= 5), one-row and one-column boards up to length 6 and the
transposed boards q < p <= 4, for n up to 6 and for n = pq - 1 and
n = pq, and for every n from 1 to pq on the 3x4, 4x3, 2x6, 6x2 and 4x4
boards, whose middle n put the largest counts in the lanes of its packed
states.  On the boards of at most 12 squares every meeting diagonal must
give the same counts, at every n: the halves count the squares of the
two diagonals they meet on twice, and a combine that shifted the
products by one block more or less would move counts between sizes.
_path_poly(k, lane) must unpack, lane by lane, to the comb(k - m + 1, m)
independent sets of size m of a k-vertex path.

The Morse flows' int-coded kernel is checked against the plain tuple code
on every cell it can meet on boards with p, q <= 4 and n <= 4: grid.pack
round-trips through grid.unpack, grid.packed_boundary gives
grid.boundary's facets and signs in its order, and morse._Walker.pair
pairs as morse.cell_status does.  flow_boundary is checked against the
tuple walker it replaced, kept here as reference_flow_chain.
"""

import re
from array import array
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import shared
from hardsquares import grid, morse, oracle
from hardsquares.apexgraph import path_structure
from hardsquares.homology import ChainComplex, SparseMatrix, betti, rank, trim, validate_d2
from hardsquares.reduce import reduce_complex

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
    return ChainComplex.from_triples(tuple(counts), tris)


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
    """Sparse integer matrices, some columns integer combinations of others.

    Some entries are given as two entries at the same row whose values sum
    to the entry's.
    """
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
    # the columns in a random order, each column's rows in a random order
    starts, rows, vals = array("i", [0]), array("i"), array("q")
    for i in draw(st.permutations(range(len(cols)))):
        entries = []
        for r, v in cols[i].items():
            if v and draw(st.booleans()):
                part = draw(st.integers(-4, 4))
                entries += [(r, part), (r, v - part)]
            elif v:
                entries.append((r, v))
        for r, v in draw(st.permutations(entries)):
            rows.append(r)
            vals.append(v)
        starts.append(len(rows))
    return SparseMatrix(nrows, len(cols), (starts, rows, vals))


def reference_betti(cc, p):
    counts = cc.counts
    ranks = [0] * (len(counts) + 1)
    for j in range(1, len(counts)):
        rows = [[0] * counts[j] for _ in range(counts[j - 1])]
        for r, c, v in cc.matrix(j).entries:
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
        rows[r][c] += v
    for field, p in (("gf2", 2), ("gf3", 3), ("rational", 0)):
        assert len(rank(m, field)) == dense_rank(rows, m.cols, p)


@settings(max_examples=100, deadline=None)
@given(signed_cubical_complexes(), st.data())
def test_betti_unchanged_by_renumbering(cc, data):
    perms = [data.draw(st.permutations(range(m))) for m in cc.counts]
    tris = ((),) + tuple(
        tuple((perms[j - 1][r], perms[j][c], v) for r, c, v in cc.matrix(j).entries)
        for j in range(1, len(cc.counts))
    )
    renumbered = ChainComplex.from_triples(cc.counts, tris)
    for field in ("gf2", "gf3", "rational"):
        assert betti(renumbered, field) == betti(cc, field)


@st.composite
def integer_triples(draw):
    "Counts and random boundary triples, values -2..2, a position possibly repeated."
    counts = draw(st.lists(st.integers(1, 4), min_size=3, max_size=5))
    tris = [()]
    for j in range(1, len(counts)):
        entry = st.tuples(
            st.integers(0, counts[j - 1] - 1), st.integers(0, counts[j] - 1), st.integers(-2, 2)
        )
        tris.append(tuple(draw(st.lists(entry, min_size=1, max_size=8))))
    return tuple(counts), tuple(tris)


def integer_complexes():
    return integer_triples().map(lambda args: ChainComplex.from_triples(*args))


@settings(max_examples=200, deadline=None)
@given(integer_triples())
def test_from_triples_round_trips_through_matrix(args):
    counts, tris = args
    cc = ChainComplex.from_triples(counts, tris)
    assert cc.counts == counts
    for j in range(1, len(counts)):
        m = cc.matrix(j)
        assert (m.rows, m.cols) == (counts[j - 1], counts[j])
        assert sorted(m.entries) == sorted(tris[j])
        starts, _, _ = cc.boundaries[j]
        assert len(starts) == counts[j] + 1
        # column-major, rows ascending within each column
        keys = [(c, r) for r, c, _ in m.entries]
        assert keys == sorted(keys)


@st.composite
def perturbed_cubical_complexes(draw):
    "A signed cubical complex of dimension 2 or more, one boundary entry changed."
    cc = draw(signed_cubical_complexes().filter(lambda cc: len(cc.counts) > 2))
    tris = [list(cc.matrix(j).entries) for j in range(len(cc.counts))]
    j = draw(st.integers(1, len(tris) - 1))
    k = draw(st.integers(0, len(tris[j]) - 1))
    r, c, v = tris[j][k]
    tris[j][k] = (r, c, draw(st.sampled_from([w for w in range(-3, 4) if w != v])))
    return ChainComplex.from_triples(cc.counts, tris)


def dense_composite(cc, j):
    "The nonzero entries of the dense product d_{j-1} d_j, as {(row, col): value}."
    low, mid, high = cc.counts[j - 2], cc.counts[j - 1], cc.counts[j]
    a = [[0] * mid for _ in range(low)]
    for r, c, v in cc.matrix(j - 1).entries:
        a[r][c] += v
    b = [[0] * high for _ in range(mid)]
    for r, c, v in cc.matrix(j).entries:
        b[r][c] += v
    prod = {
        (r, c): sum(a[r][k] * b[k][c] for k in range(mid))
        for r in range(low)
        for c in range(high)
    }
    return {key: v for key, v in prod.items() if v}


D2_MESSAGE = re.compile(
    r"d o d != 0 between degrees (\d+) and (\d+): entry \(\((\d+), (\d+)\), (-?\d+)\)"
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(integer_complexes(), perturbed_cubical_complexes(), signed_cubical_complexes())
)
def test_validate_d2_raises_exactly_on_a_nonzero_composite(cc):
    composites = {j: dense_composite(cc, j) for j in range(2, len(cc.counts))}
    try:
        validate_d2(cc)
    except AssertionError as exc:
        found = D2_MESSAGE.fullmatch(str(exc))
        assert found, str(exc)
        j, below, r, c, v = map(int, found.groups())
        assert below == j - 2
        # the lowest degree with a nonzero composite, and one of its entries
        assert not any(composites[i] for i in range(2, j))
        assert composites[j].get((r, c)) == v != 0
    else:
        assert not any(composites.values())


def coordinate_order_sign(cell, perm):
    "Parity of the reordering of the free coordinates that relabeling makes."
    pos = [0] * len(perm)
    for k, j in enumerate(perm):
        pos[j] = k
    keys = []
    for j, pc in enumerate(cell):
        keys += [(pos[j], axis) for axis, free in enumerate((pc.left, pc.down)) if free]
    inversions = sum(
        keys[l] < keys[i] for i in range(len(keys)) for l in range(i + 1, len(keys))
    )
    return -1 if inversions & 1 else 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=7), st.data())
def test_relabel_sign_matches_coordinate_order(extensions, data):
    pieces = tuple(
        grid.Piece(2 * k + 2, 2, left, down) for k, (left, down) in enumerate(extensions)
    )
    perm = tuple(data.draw(st.permutations(range(len(pieces)))))
    assert grid.relabel_sign(pieces, perm) == coordinate_order_sign(pieces, perm)


@st.composite
def labeled_apexes(draw):
    "A random labeled apex on a board up to 5 x 5."
    p = draw(st.integers(1, 5))
    q = draw(st.integers(1, 5))
    n = draw(st.integers(1, min(5, p * q)))
    return tuple(draw(st.permutations(grid.board_squares(p, q)))[:n])


@st.composite
def labeled_cells(draw):
    "A random cell of a random labeled apex on a board up to 5 x 5."
    return draw(st.sampled_from(grid.cells_with_apex(draw(labeled_apexes()))))


@settings(max_examples=200, deadline=None)
@given(labeled_apexes())
def test_labeled_apex_cells_are_relabeled_sorted_cells(apex):
    # what enumerate_cells relies on: the cells of a labeled apex are those
    # of its sorted corners, relabeled, in (none, left, down, both) order
    corners = tuple(sorted(apex))
    perm = [corners.index(a) for a in apex]
    relabeled = [grid.relabel(cell, perm) for cell in grid.cells_with_apex(corners)]
    relabeled.sort(key=lambda cell: [pc.left + 2 * pc.down for pc in cell])
    assert grid.cells_with_apex(apex) == relabeled


@settings(max_examples=300, deadline=None)
@given(labeled_cells(), st.data())
def test_signed_relabeling_is_a_right_action(cell, data):
    g = tuple(data.draw(st.permutations(range(len(cell)))))
    h = tuple(data.draw(st.permutations(range(len(cell)))))
    gh = tuple(g[k] for k in h)
    image = grid.relabel(cell, g)
    assert grid.relabel(image, h) == grid.relabel(cell, gh)
    assert grid.relabel_sign(cell, gh) == (
        grid.relabel_sign(cell, g) * grid.relabel_sign(image, h)
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=6), st.data())
def test_relabel_sign_is_read_from_the_mask_table(extensions, data):
    cell = tuple(
        grid.Piece(2 * k + 2, 2, left, down) for k, (left, down) in enumerate(extensions)
    )
    # every option complemented: 2 - e extensions, the same odd-extension mask
    filler = tuple(grid.Piece(pc.col, pc.row, 1 - pc.left, 1 - pc.down) for pc in cell)
    # any mask: fills the list of the cell's mask first when the two masks agree
    options = st.tuples(st.integers(0, 1), st.integers(0, 1))
    other = tuple(grid.Piece(2 * k + 2, 2, *data.draw(options)) for k in range(len(cell)))
    perm = tuple(data.draw(st.permutations(range(len(cell)))))
    table = morse._Labelings(len(cell))
    table.signs(morse._odd_mask(other))
    table.signs(morse._odd_mask(filler))
    assert table.signs(morse._odd_mask(cell))[table.perm_id[perm]] == grid.relabel_sign(cell, perm)


S3 = tuple(permutations(range(3)))


def group_product(x, y):
    "x y in Z[S_3], elements as {perm: coefficient} dicts, (g h)[k] = g[h[k]]."
    out = {}
    for g, a in x.items():
        for h, b in y.items():
            gh = tuple(g[k] for k in h)
            out[gh] = out.get(gh, 0) + a * b
    return {g: v for g, v in out.items() if v}


def add_entry(column, row, x):
    "Add x to the entry of column at row, dropping the entry once it is zero."
    total = dict(column.get(row, {}))
    for g, v in x.items():
        total[g] = total.get(g, 0) + v
    total = {g: v for g, v in total.items() if v}
    if total:
        column[row] = total
    else:
        column.pop(row, None)


group_elements = st.dictionaries(st.sampled_from(S3), st.integers(-2, 2), max_size=3)
units = st.tuples(st.sampled_from(S3), st.sampled_from((1, -1))).map(lambda gv: dict([gv]))


@st.composite
def free_s3_complexes(draw):
    """A complex of free Z[S_3]-modules with d o d = 0, as a MorseComplex.

    A sum of pieces, each a generator with no boundary or a pair b -> a with
    d b = a x (x a unit +-[g] or any small element), has d o d = 0, and so
    has every complex a change of basis e_i -> e_i + e_k r makes of it: that
    adds column k times r to column i of d, and subtracts r times row i from
    row k of the d one degree up.  Generators are ints, each with a random
    odd-extension mask, so the labeled expansion carries signs.
    """
    top = 4
    sets = [[] for _ in range(top)]
    columns = {}
    for _ in range(draw(st.integers(1, 6))):
        d = draw(st.integers(0, top - 1))
        a = len(columns)
        sets[d].append(a)
        columns[a] = {}
        if d + 1 < top and draw(st.booleans()):
            b = len(columns)
            sets[d + 1].append(b)
            columns[b] = {}
            add_entry(columns[b], a, draw(st.one_of(units, group_elements)))
    for _ in range(draw(st.integers(0, 12))):
        d = draw(st.integers(0, top - 1))
        if len(sets[d]) < 2:
            continue
        i, k = draw(st.permutations(sets[d]))[:2]
        r = draw(group_elements)
        for t, x in list(columns[k].items()):
            add_entry(columns[i], t, group_product(x, r))
        for e in sets[d + 1] if d + 1 < top else ():
            if i in columns[e]:
                minus_r = {g: -v for g, v in r.items()}
                add_entry(columns[e], k, group_product(minus_r, columns[e][i]))
    masks = {a: draw(st.tuples(*[st.integers(0, 1)] * 3)) for a in columns}
    return morse.MorseComplex(3, (1, 1), sets, columns, masks, morse._Labelings(3))


def regular_betti(mc, p):
    """Betti numbers over GF(p), or Q when p == 0, of the labeled complex:
    column g of generator s has x[h] at row h g of the generator T, for
    each term of its entry x at row T.  Dense, and blind to signs, which
    change no rank."""
    ids = {g: i for i, g in enumerate(S3)}
    counts = [len(s) * len(S3) for s in mc.sets]
    ranks = [0] * (len(counts) + 1)
    for j in range(1, len(counts)):
        below = {t: i for i, t in enumerate(mc.sets[j - 1])}
        rows = [[0] * counts[j] for _ in range(counts[j - 1])]
        for c, s in enumerate(mc.sets[j]):
            for t, x in mc.columns[s].items():
                for h, v in x.items():
                    for g in S3:
                        hg = tuple(h[k] for k in g)
                        rows[6 * below[t] + ids[hg]][6 * c + ids[g]] += v
        ranks[j] = dense_rank(rows, counts[j], p)
    return trim(counts[j] - ranks[j] - ranks[j + 1] for j in range(len(counts)))


@settings(max_examples=150, deadline=None)
@given(free_s3_complexes())
def test_cancellation_over_z_s3_keeps_the_dense_labeled_ranks(mc):
    # MorseComplex.betti cancels unit entries over Z[S_3], expands what is
    # left and checks its d o d = 0 before it ranks it
    reduced = mc.reduced()
    assert not any(
        len(x) == 1 and abs(v) == 1
        for sets in reduced.sets
        for s in sets
        for x in reduced.columns[s].values()
        for v in x.values()
    )
    for field, p in (("gf2", 2), ("gf3", 3), ("rational", 0)):
        assert mc.betti(field) == regular_betti(mc, p)


@pytest.mark.parametrize("n, p, q", [(3, 3, 3), (4, 2, 4), (2, 3, 3)])
def test_pairing_direction_matches_dimensions(n, p, q):
    for cell in grid.enumerate_cells(n, p, q):
        status, partner = morse.cell_status(cell)
        if status != "critical":
            up = grid.cell_dim(partner) > grid.cell_dim(cell)
            assert status == ("up" if up else "down"), cell


# Every (cell, width) pair the walker can meet on a board with p, q <= 4:
# a board's cells are cells of the square board of its longer side, coded
# with that side's bit length, or with the bit length of the cell's own
# largest coordinate (flow_boundary), which the smaller square covers.
WALKER_BOARDS = [(n, side) for n in range(5) for side in (1, 3, 4)]


@pytest.mark.parametrize("n, side", WALKER_BOARDS)
def test_walker_kernel_matches_plain_references(n, side):
    # the codec round-trips, the packed boundary has boundary's facets and
    # signs in boundary's order, and the walker pairs as cell_status does
    width = side.bit_length()
    options = grid.option_bits(n, width)
    walker = morse._Walker(n, width)
    pack, unpack = grid.pack, grid.unpack
    for cell in grid.enumerate_cells(n, side, side):
        code = pack(cell, width)
        assert unpack(code, n, width) == cell
        facets = [(pack(f, width), s) for f, s in grid.boundary(cell)]
        assert grid.packed_boundary(code, options) == facets, cell
        bit = walker.pair(code)
        status, partner = morse.cell_status(cell)
        if bit:
            assert status == ("down" if code & bit else "up"), cell
            assert unpack(code ^ bit, n, width) == partner, cell
        else:
            assert status == "critical", cell


def reference_flow_chain(start, memo):
    """Flow of one cell on plain tuples, by cell_status and grid.boundary:
    the walker the int-coded one replaced, kept as its reference."""
    if start in memo:
        return memo[start]
    open_cells = {}  # cell -> (facets of the partner, lam)
    stack = [start]
    while stack:
        cell = stack[-1]
        if cell in memo:
            stack.pop()
            continue
        if cell in open_cells:
            facets, lam = open_cells.pop(cell)
            acc = {}
            for f, s in facets:
                if f == cell:
                    continue
                coef = -s * lam
                for t, v in memo[f].items():
                    acc[t] = acc.get(t, 0) + coef * v
            memo[cell] = {t: v for t, v in acc.items() if v}
            stack.pop()
            continue
        status, partner = morse.cell_status(cell)
        if status == "critical":
            memo[cell] = {cell: 1}
            stack.pop()
            continue
        if status == "down":
            memo[cell] = {}
            stack.pop()
            continue
        facets = grid.boundary(partner)
        pending = []
        for f, s in facets:
            if f == cell:
                lam = s
            elif f not in memo:
                if f in open_cells:
                    raise morse.BrokenPairing(f"closed V-path through {cell}")
                pending.append(f)
        open_cells[cell] = (facets, lam)
        stack.extend(pending)
    return memo[start]


def reference_flow_boundary(cell):
    memo = {}
    out = {}
    for facet, sign in grid.boundary(cell):
        for target, coeff in reference_flow_chain(facet, memo).items():
            out[target] = out.get(target, 0) + sign * coeff
    return {t: v for t, v in out.items() if v}


@pytest.mark.parametrize("n, p, q", [(n, n, n) for n in range(1, 6)] + [(5, 3, 5)])
def test_flows_match_the_tuple_walker(n, p, q):
    # every labeled critical cell up to n = 4; at n = 5 the critical cell
    # of each corner set, the cells the build flows
    if n < 5:
        cells = list(morse.iter_critical_cells(n, p, q))
    else:
        cells = [morse.critical_cell_for(c, (p, q)) for c, _ in morse.critical_sets(n, p, q)]
    for cell in cells:
        assert morse.flow_boundary(cell) == reference_flow_boundary(cell), cell


def reference_reduce(counts, triples):
    "The coreduction with one dict of boundary entries per cell."
    offs = [0]
    for m in counts:
        offs.append(offs[-1] + m)
    total = offs[-1]
    bnd = [dict() for _ in range(total)]
    cob = [[] for _ in range(total)]
    for d, r, c, v in triples:
        gr = offs[d - 1] + r
        gc = offs[d] + c
        bnd[gc][gr] = v
        cob[gr].append(gc)
    alive = bytearray(b"\x01") * total

    seeds = 0
    edges = bnd[offs[1]:offs[2]] if len(counts) > 1 else ()
    if counts and all(not col or sorted(col.values()) == [-1, 1] for col in edges):
        seeds = reference_coreduce(counts[0], bnd, cob, alive)

    remap = {}
    counts2 = [0] * len(counts)
    for d in range(len(counts)):
        for g in range(offs[d], offs[d + 1]):
            if alive[g]:
                remap[g] = counts2[d]
                counts2[d] += 1
    tris2 = [[] for _ in range(len(counts))]
    for d in range(1, len(counts)):
        tri = tris2[d]
        for g in range(offs[d], offs[d + 1]):
            if alive[g]:
                c = remap[g]
                for gr, v in bnd[g].items():
                    tri.append((remap[gr], c, v))
    return seeds, counts2, tris2


def reference_coreduce(nvert, bnd, cob, alive):
    queue = deque(g for g in range(len(bnd)) if len(bnd[g]) == 1)

    def drop_row(x):
        for c in cob[x]:
            if alive[c]:
                col = bnd[c]
                if x in col:
                    del col[x]
                    if len(col) == 1:
                        queue.append(c)
        cob[x] = []

    def cascade():
        while queue:
            b = queue.popleft()
            if not alive[b] or len(bnd[b]) != 1:
                continue
            ((a, lam),) = bnd[b].items()
            if lam not in (1, -1):
                continue
            alive[a] = 0
            alive[b] = 0
            bnd[b].clear()
            bnd[a].clear()
            drop_row(b)
            drop_row(a)

    seeds = 0
    cascade()
    for v in range(nvert):
        if alive[v]:
            alive[v] = 0
            seeds += 1
            drop_row(v)
            cascade()
    return seeds


def column_stream(cc):
    "The entries of cc as reduce_complex takes them: degree by degree, in column order."
    return [
        (j, r, c, v)
        for j in range(1, len(cc.counts))
        for r, c, v in cc.matrix(j).entries
    ]


def assert_same_reduction(counts, stream):
    seeds, counts2, columns = reduce_complex(counts, stream)
    assert [len(starts) for starts, _, _ in columns] == [m + 1 for m in counts2]
    reduced = ChainComplex(tuple(counts2), tuple(columns))
    tris = [list(reduced.matrix(j).entries) for j in range(len(counts2))]
    assert (seeds, counts2, tris) == reference_reduce(counts, stream)


@settings(max_examples=200, deadline=None)
@given(signed_cubical_complexes())
def test_reduce_matches_dict_reference(cc):
    assert_same_reduction(cc.counts, column_stream(cc))


@pytest.mark.parametrize("inst", [(3, 3, 3), (4, 2, 4)])
def test_reduce_matches_dict_reference_on_direct_stream(inst):
    counts, _ = oracle.check_cap(*inst)
    assert_same_reduction(counts, list(oracle._triple_stream(*inst, counts)))


@pytest.mark.parametrize("board", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)])
def test_reduce_matches_dict_reference_on_morse_restrictions(board):
    cc = shared.morse_complex(4, 4, 4).restrict(*board).chain_complex()
    assert_same_reduction(cc.counts, column_stream(cc))



# two vertices v0, v1, three edges e0, e1, e2 equal to v1 - v0 and a loop
# e3 with no boundary: coreduction splits off v0 and cancels e0 with v1,
# so a 2-cell k (e0 - e1) keeps only its row e1, while k (e1 - e2) and
# k e3 keep every row; a 2-cell is (k, a, b) for k (e_a - e_b), b None
# for k e_a
WIDE_EDGES = [(1, 0, 0, -1), (1, 1, 0, 1), (1, 0, 1, -1), (1, 1, 1, 1), (1, 0, 2, -1), (1, 1, 2, 1)]


def wide_stream(faces):
    stream = list(WIDE_EDGES)
    for c, (k, a, b) in enumerate(faces):
        stream.append((2, a, c, k))
        if b is not None:
            stream.append((2, b, c, -k))
    return (2, 4, len(faces)), stream


@pytest.mark.parametrize(
    "faces",
    [
        [(300, 0, 1), (2**40, 0, 1), (1, 1, 2)],  # widened by the first 2-cell, a dead row
        [(2**40, 1, 2), (-300, 1, 2), (-1, 1, 2)],  # widened by 2**40, no dead row
        [(-127, 0, 1), (127, 1, 2)],  # one byte holds every value
        [(300, 0, 1)],  # one entry left, after a dead row
        [(-(2**62), 3, None)],  # one entry left, no dead row
    ],
)
def test_reduce_widens_its_working_set(faces):
    counts, stream = wide_stream(faces)
    assert_same_reduction(counts, stream)
    _, _, columns = reduce_complex(counts, stream)
    assert {vals.typecode for _, _, vals in columns} == {"q"}
    assert max(map(abs, columns[2][2])) == max(abs(k) for k, _, _ in faces)


@pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
def test_reduce_refuses_a_value_past_int64(value):
    counts, stream = wide_stream([(300, 0, 1), (value, 1, 2)])
    with pytest.raises(OverflowError):
        reduce_complex(counts, stream)


def reference_fvector_chunk(n, p, q, first):
    "The corner sets starting at squares[first] one by one, each a product of path polynomials."
    squares = grid.board_squares(p, q)
    total = [0]
    for rest in combinations(squares[first + 1 :], n - 1):
        poly = [1]
        for path in path_structure((squares[first],) + rest):
            k = len(path)
            # k-vertex path: comb(k - m + 1, m) independent sets of size m
            path_poly = [comb(k - m + 1, m) for m in range((k + 1) // 2 + 1)]
            product_poly = [0] * (len(poly) + len(path_poly) - 1)
            for i, x in enumerate(poly):
                for j, y in enumerate(path_poly):
                    product_poly[i + j] += x * y
            poly = product_poly
        total.extend([0] * (len(poly) - len(total)))
        for i, x in enumerate(poly):
            total[i] += x
    return total


FVECTOR_BOARDS = sorted(
    {(p, q) for p in range(2, 6) for q in range(p, 6)}  # census boards
    | {(1, k) for k in range(1, 7)}
    | {(k, 1) for k in range(1, 7)}
    | {(p, q) for p in range(2, 5) for q in range(1, p)}  # transposed
)


def reference_fvector_counts(n, p, q):
    "The f-vector before the n! scale: the plain chunks summed over their first squares."
    total = []
    for first in range(p * q - n + 1):
        part = reference_fvector_chunk(n, p, q, first)
        total.extend([0] * (len(part) - len(total)))
        for j, x in enumerate(part):
            total[j] += x
    return total


def fvector_counts(n, p, q):
    return grid._fvector_counts(n, p, q, grid._meeting_diagonal(p, q))


@pytest.mark.parametrize("board", FVECTOR_BOARDS, ids="{0[0]}x{0[1]}".format)
def test_fvector_chunk_matches_plain_enumeration(board):
    p, q = board
    area = p * q
    sizes = set(range(1, min(6, area) + 1)) | {area - 1, area}
    for n in sorted(sizes - {0}):
        assert fvector_counts(n, p, q) == reference_fvector_counts(n, p, q), (n, p, q)


@pytest.mark.parametrize(
    "board", [(3, 4), (4, 3), (2, 6), (6, 2), (4, 4)], ids="{0[0]}x{0[1]}".format
)
def test_fvector_chunk_matches_plain_enumeration_at_every_size(board):
    # the middle sizes hold the largest coefficients in the packed lanes
    p, q = board
    for n in range(1, p * q + 1):
        assert fvector_counts(n, p, q) == reference_fvector_counts(n, p, q), (n, p, q)


@pytest.mark.parametrize(
    "board", [b for b in FVECTOR_BOARDS if b[0] * b[1] <= 12], ids="{0[0]}x{0[1]}".format
)
def test_fvector_counts_agree_at_every_meeting_diagonal(board):
    p, q = board
    for n in range(1, p * q + 1):
        expected = reference_fvector_counts(n, p, q)
        for m in range(p + q - 1):
            assert grid._fvector_counts(n, p, q, m) == expected, (n, p, q, m)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), st.data())
def test_path_poly_unpacks_to_path_independent_sets(k, data):
    # every coefficient is below 2^k when k >= 1, so a lane of k + 1 bits holds it
    lane = data.draw(st.integers(k + 1, 90), label="lane")
    packed = grid._path_poly(k, lane)
    top = (k + 1) // 2
    assert packed >> lane * (top + 1) == 0
    lanes = [(packed >> lane * m) & ((1 << lane) - 1) for m in range(top + 1)]
    assert lanes == [comb(k - m + 1, m) for m in range(top + 1)]
