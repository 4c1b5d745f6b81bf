"""Independent cross-checks on the homology pipeline.

direct_betti builds the full cubical complex with no use of the gradient
pairing, so it can be compared against the Morse route: the cell counts
are the f-vector, and one enumeration numbers the cells, in a dict keyed
by the cell's tuple of pieces, and streams their boundaries into the
reduction, one cell's entries at a time.  conf_plane_betti gives the closed-form
Betti numbers of the planar labeled configuration space, the expected
values in the stabilized regime.  classify_regime labels each degree
solid, liquid, or gas-consistent by comparing against those values.
"""

from __future__ import annotations

from fractions import Fraction

from . import grid
from .homology import ChainComplex, betti_of_stream, vanishing_bound

DEFAULT_CELL_CAP = 2_000_000


class CellCapExceeded(RuntimeError):
    "The requested complex is larger than the configured cell cap."

    def __init__(self, n, p, q, total, cap):
        super().__init__(
            f"complex for n={n}, p={p}, q={q} has {total} cells,"
            f" over the cap of {cap}"
        )
        self.total = total
        self.cap = cap


def _triple_stream(n, p, q, counts):
    """(dim, facet id, cell id, sign) entries, numbering cells as they stream.

    ids maps each cell, a tuple of pieces, to its number in its dimension.
    Every facet comes before its cell (an earlier apex, or an earlier
    extension option of the same apex), so its id is known, and the
    entries of one cell come together, as reduce_complex needs.  counts is
    the f-vector; cells numbered by dimension that differ from it raise.
    """
    ids = {}
    numbered = [0] * len(counts)
    for cell in grid.enumerate_cells(n, p, q):
        d = grid.cell_dim(cell)
        if d >= len(counts) or numbered[d] == counts[d]:
            raise AssertionError(f"more {d}-cells than the f-vector {counts} has")
        c = numbered[d]
        numbered[d] = c + 1
        ids[cell] = c
        if d:
            for facet, sign in grid.boundary(cell):
                yield (d, ids[facet], c, sign)
    if numbered != list(counts):
        raise AssertionError(f"cells by dimension {numbered}, f-vector {counts}")


def check_cap(n, p, q, cap=DEFAULT_CELL_CAP):
    "f-vector and total size, raising CellCapExceeded over the integer cap."
    fv = grid.f_vector(n, p, q)
    total = sum(fv)
    if total > cap:
        raise CellCapExceeded(n, p, q, total, cap)
    return fv, total


def build_chain_complex(n, p, q, cap=DEFAULT_CELL_CAP):
    "The full cubical chain complex, materialized (small instances only)."
    counts, _ = check_cap(n, p, q, cap)
    tris = [[] for _ in counts]
    for d, r, c, v in _triple_stream(n, p, q, counts):
        tris[d].append((r, c, v))
    return ChainComplex(counts, tuple(tuple(sorted(t)) for t in tris))


def direct_betti(n, p, q, field="gf2", cap=DEFAULT_CELL_CAP):
    """Betti numbers computed from the full complex, no gradient involved.

    The cell counts are the f-vector of the cap check; the boundary entries
    are streamed from one enumeration into homology.betti_of_stream, so the
    complex is never materialized.
    """
    counts, _ = check_cap(n, p, q, cap)
    return betti_of_stream(counts, _triple_stream(n, p, q, counts), field)


def conf_plane_betti(n):
    """Betti numbers of n labeled points in the plane.

    The Poincare polynomial is the product of (1 + k t) for k < n, so
    beta_j is the elementary symmetric polynomial e_j(1, ..., n-1).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    coeffs = [1]
    for k in range(1, n):
        nxt = coeffs + [0]
        for i in range(len(coeffs)):
            nxt[i + 1] += k * coeffs[i]
        coeffs = nxt
    return tuple(coeffs)


def classify_regime(n, p, q, betti_vec):
    """Per-degree labels: solid, liquid, or gas-consistent.

    solid means the homology vanishes; gas-consistent means it matches the
    planar configuration space numerically (a necessary condition for the
    inclusion to be an isomorphism, which is all a Betti table can see).
    """
    plane = conf_plane_betti(n) if n >= 1 else (1,)
    labels = []
    for j, b in enumerate(betti_vec):
        expected = plane[j] if j < len(plane) else 0
        if b == 0:
            labels.append("solid")
        elif b == expected:
            labels.append("gas-consistent")
        else:
            labels.append("liquid")
    return labels


def nonvanishing_witness_check(rows):
    """Check the known nontrivial cycles and the vanishing region.

    rows maps (n, p, q) to a computed Betti vector.  The orbit cycles in
    the 2x2 board with 2 and 3 squares must be present, and every nonzero
    Betti number, read as a point (x, y) = (n/pq, j/pq), must satisfy
    y <= min(1 - x, x, 1/3), that is j <= homology.vanishing_bound(n, p, q).
    """
    report = {"witnesses": [], "points": [], "violations": []}
    for inst in ((2, 2, 2), (3, 2, 2)):
        bv = rows.get(inst)
        if bv is None:
            bv = direct_betti(*inst)
        ok = len(bv) > 1 and bv[1] != 0
        report["witnesses"].append(
            {"instance": list(inst), "degree": 1, "nonzero": ok}
        )
        if not ok:
            report["violations"].append(
                f"expected nonzero degree-1 homology for {inst}"
            )
    for (n, p, q), bv in sorted(rows.items()):
        area = p * q
        for j, b in enumerate(bv):
            if not b:
                continue
            x = Fraction(n, area)
            y = Fraction(j, area)
            inside = j <= vanishing_bound(n, p, q)
            report["points"].append(
                {
                    "instance": [n, p, q],
                    "degree": j,
                    "x": [x.numerator, x.denominator],
                    "y": [y.numerator, y.denominator],
                    "inside": inside,
                }
            )
            if not inside:
                report["violations"].append(
                    f"nonzero beta_{j} of {(n, p, q)} falls outside the"
                    " admissible region"
                )
    return report


def witness_report_text(report):
    "Human-readable rendering of a nonvanishing_witness_check report."
    lines = []
    for w in report["witnesses"]:
        n, p, q = w["instance"]
        state = "present" if w["nonzero"] else "MISSING"
        lines.append(f"degree-{w['degree']} cycle in ({n},{p},{q}): {state}")
    for pt in report["points"]:
        n, p, q = pt["instance"]
        x = "{}/{}".format(*pt["x"])
        y = "{}/{}".format(*pt["y"])
        mark = "ok" if pt["inside"] else "OUTSIDE"
        lines.append(
            f"({n},{p},{q}) beta_{pt['degree']} != 0 at (x,y)=({x},{y}): {mark}"
        )
    if report["violations"]:
        lines.append("violations:")
        lines.extend("  " + v for v in report["violations"])
    else:
        lines.append("no violations")
    return "\n".join(lines)


def component_count(n, p, q):
    "Connected components of the 1-skeleton, by union-find."
    parent = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    edges = []
    for cell in grid.enumerate_cells(n, p, q):
        d = grid.cell_dim(cell)
        if d == 0:
            parent[cell] = cell
        elif d == 1:
            edges.append(cell)
    for cell in edges:
        (f1, _), (f2, _) = grid.boundary(cell)
        a = find(f1)
        b = find(f2)
        if a != b:
            parent[a] = b
    return sum(1 for k in parent if find(k) == k)
