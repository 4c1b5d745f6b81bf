"""Exact linear algebra for chain complexes of free abelian groups.

Boundary matrices are stored as sparse integer triplets.  Every Betti
number, whether of a Morse complex or of a full cubical complex, comes
from betti_of_stream: the complex is shrunk by reduce.reduce_complex and
the ranks of what is left give the Betti numbers.  The route depends on
the field.  Over GF(2) only the coreduction cascade of reduce_complex
runs, and rank uses bit-packed column elimination.  Over GF(p) and the
rationals the greedy phase of reduce_complex runs too, and rank uses
sparse row elimination.  Pivots are chosen by fixed rules, so results are
deterministic.  Nothing here checks that the boundary squares to zero
except validate_d2, which the Morse build runs once per complex.
"""

from __future__ import annotations

import math
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from .reduce import reduce_complex


class SparseMatrix(NamedTuple):
    """An n_rows x n_cols integer matrix as (row, col, value) triplets."""

    rows: int
    cols: int
    entries: tuple


class ChainComplex(NamedTuple):
    """Cell counts per dimension and the boundary triplets between them.

    boundaries[j] holds the entries of the map from j-cells to (j-1)-cells;
    boundaries[0] is empty.
    """

    counts: tuple
    boundaries: tuple

    def matrix(self, j):
        rows = self.counts[j - 1] if j >= 1 else 0
        cols = self.counts[j] if j < len(self.counts) else 0
        tri = self.boundaries[j] if 1 <= j < len(self.counts) else ()
        return SparseMatrix(rows, cols, tuple(tri))


def parse_field(spec):
    """Normalize a field name: "gf2", "gf<p>" with p prime, or "rational"."""
    if spec in ("rational", "q", "Q"):
        return ("rational", 0)
    text = spec.lower()
    if text.startswith("gf"):
        try:
            p = int(text[2:])
        except ValueError:
            raise ValueError(f"unknown field {spec!r}") from None
        if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise ValueError(f"{p} is not prime")
        return ("gf", p)
    raise ValueError(f"unknown field {spec!r}")


_col = itemgetter(1)


def rank(matrix, field="gf2"):
    """Rank of a sparse integer matrix over the given field.

    Over GF(2), bit-packed column elimination: each column is a Python int
    over rows, its pivot is its highest set bit, and it is XORed with the
    stored column of that pivot until it is zero or has a new pivot.  A
    column's int is built only when that column's turn comes, and is kept
    only if it becomes a pivot.

    Over other fields, sparse row elimination: a row whose leading column
    already has a pivot row is replaced by b*row - a*pivot, where a and b
    are the two leading entries.  Over GF(p) entries are taken mod p; over
    the rationals each combined row is divided by the gcd of its entries,
    so the arithmetic stays exact in the integers.
    """
    _, p = parse_field(field) if isinstance(field, str) else field
    if p == 2:
        pivots = {}
        for _, entries in groupby(sorted(matrix.entries, key=_col), _col):
            bits = 0
            for r, _, v in entries:
                if v & 1:
                    bits ^= 1 << r
            while bits:
                top = bits.bit_length() - 1
                piv = pivots.get(top)
                if piv is None:
                    pivots[top] = bits
                    break
                bits ^= piv
        return len(pivots)
    rows = [dict() for _ in range(matrix.rows)]
    for r, c, v in matrix.entries:
        if p:
            v %= p
        if v:
            rows[r][c] = v
    pivots = {}
    for row in rows:
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = row
                break
            a = row[c]
            b = piv[c]
            new = {}
            for k in row.keys() | piv.keys():
                v = b * row.get(k, 0) - a * piv.get(k, 0)
                if p:
                    v %= p
                if v:
                    new[k] = v
            if new and not p:
                g = math.gcd(*new.values())
                new = {k: v // g for k, v in new.items()}
            row = new
    return len(pivots)


def validate_d2(cc):
    """Raise if the composite of consecutive boundary maps is nonzero."""
    for j in range(2, len(cc.counts)):
        cols = {}
        for r, c, v in cc.boundaries[j - 1]:
            cols.setdefault(c, []).append((r, v))
        acc = {}
        for r, c, v in cc.boundaries[j]:
            for r2, v2 in cols.get(r, ()):
                key = (r2, c)
                acc[key] = acc.get(key, 0) + v * v2
        bad = {k: v for k, v in acc.items() if v}
        if bad:
            some = next(iter(bad.items()))
            raise AssertionError(
                f"d o d != 0 between degrees {j} and {j - 2}: entry {some}"
            )


def euler(numbers):
    return sum(x if i % 2 == 0 else -x for i, x in enumerate(numbers))


def trim(numbers):
    out = list(numbers)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def betti(cc, field="gf2"):
    """Betti numbers of a chain complex over the given field.

    Expects d o d = 0 and does not check it: validate_d2 does, and
    build_morse_complex runs it once on every complex it builds.  See
    betti_of_stream for the rest.
    """
    counts = cc.counts
    stream = (
        (j, r, c, v) for j in range(1, len(counts)) for r, c, v in cc.boundaries[j]
    )
    return betti_of_stream(counts, stream, field)


def betti_of_stream(counts, triples, field="gf2"):
    """Betti numbers from cell counts and (degree, row, col, value) entries.

    The complex is shrunk by reduce_complex, which is exact over the
    integers and so valid for every field.  Over GF(2) only its
    coreduction cascade runs, since the bit-packed column rank finishes
    what is left faster than greedy elimination would; over GF(p) and the
    rationals greedy unit-pivot elimination follows, because the row
    elimination is slow on large inputs.  Then
    beta_j = seeds*[j == 0] + dim C_j - rank d_j - rank d_{j+1}
    on what is left, trailing zeros trimmed.
    """
    fieldpair = parse_field(field) if isinstance(field, str) else field
    seeds, counts, tris = reduce_complex(counts, triples, greedy=fieldpair[1] != 2)
    ranks = [0] * (len(counts) + 1)
    for j in range(1, len(counts)):
        ranks[j] = rank(SparseMatrix(counts[j - 1], counts[j], tris[j]), fieldpair)
        tris[j] = None  # freed before the next rank, whose pivots can set peak memory
    return trim(
        (seeds if j == 0 else 0) + counts[j] - ranks[j] - ranks[j + 1]
        for j in range(len(counts))
    )


class AuditFailure(AssertionError):
    "A computed homology result violates a structural bound."


def audit(n, p, q, betti_vec, f_vec, morse_counts=None):
    """Check vanishing bounds, Euler consistency, and Morse inequalities.

    Nonzero homology may only appear in degrees j with
    j <= min(p*q - n, n, p*q/3); the alternating sums of the f-vector and
    the Betti vector must agree; and each Morse count must dominate the
    matching Betti number.  Violations raise AuditFailure.
    """
    problems = []
    bound = min(p * q - n, n)
    for j, b in enumerate(betti_vec):
        if b and (j > bound or 3 * j > p * q):
            problems.append(f"beta_{j} = {b} but degree {j} must vanish")
    if euler(f_vec) != euler(betti_vec):
        problems.append(
            f"euler mismatch: cells give {euler(f_vec)}, homology gives {euler(betti_vec)}"
        )
    if morse_counts is not None:
        for j, b in enumerate(betti_vec):
            m = morse_counts[j] if j < len(morse_counts) else 0
            if m < b:
                problems.append(f"morse count m_{j} = {m} below beta_{j} = {b}")
    if problems:
        raise AuditFailure("; ".join(problems))
    return {
        "instance": (n, p, q),
        "betti": tuple(betti_vec),
        "f_vector": tuple(f_vec),
        "euler": euler(f_vec),
        "vanishing_bound": min(bound, (p * q) // 3),
        "morse_counts": tuple(morse_counts) if morse_counts is not None else None,
    }
