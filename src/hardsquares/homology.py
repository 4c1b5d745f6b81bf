"""Exact linear algebra for chain complexes of free abelian groups.

A ChainComplex holds each boundary map in flat column-major arrays: per
degree, the start of each column, the rows of every column in ascending
order, and their coefficients (ChainComplex says how).  Every Betti
number, whether of a Morse complex or of a full cubical complex, comes
from betti_of_stream: the complex is shrunk by the coreduction of
reduce.reduce_complex, which hands back what is left in the same column
arrays, and the ranks of that give the Betti numbers; betti streams a
ChainComplex's columns into it as they are stored.  One elimination
serves every field: rank reduces the columns of a SparseMatrix in id
order, each straight from its slice of the arrays, pivoting on the
highest row, and betti_of_stream ranks the degrees from the top down so
that columns known to reduce to zero are skipped (clearing).  Pivots are
chosen by fixed rules, so results are deterministic.  Here only
validate_d2 checks that the boundary squares to zero, one column of d_j
at a time against the columns of d_{j-1}; MorseComplex.betti runs it on
each labeled complex it ranks, what is left of a Morse complex once its
unit entries are cancelled over Z[S_n], and so checks the cancellation.
The Morse build checks d o d = 0 itself, over Z[S_n], on one generator
per orbit of labeled cells.
"""

from __future__ import annotations

import math
from array import array
from itertools import accumulate, chain, pairwise, repeat
from operator import itemgetter, sub
from typing import NamedTuple

from .reduce import reduce_complex


class SparseMatrix(NamedTuple):
    """An n_rows x n_cols integer matrix held in column arrays.

    columns is (starts, rows, vals), the arrays of one degree of
    ChainComplex: the entries of column c are rows[starts[c]:starts[c + 1]]
    with the coefficients vals[starts[c]:starts[c + 1]], in any row order.
    """

    rows: int
    cols: int
    columns: tuple

    @property
    def entries(self):
        "The (row, col, value) triples, column by column."
        return tuple(_triples(*self.columns))


class ChainComplex(NamedTuple):
    """Cell counts per dimension and the boundary maps between them.

    boundaries[j] holds d_j, the map from j-cells to (j-1)-cells, as three
    flat arrays (starts, rows, vals) in column-major order: the entries of
    column c are rows[starts[c]:starts[c + 1]], ascending, with the
    coefficients vals[starts[c]:starts[c + 1]].  starts is an array('i')
    of counts[j] + 1 offsets, rows an array('i') and vals an array('q');
    boundaries[0] has no entries.  Coefficients are 64-bit: array('q')
    raises OverflowError past +-2**63, as reduce_complex's working set
    does once a value past one byte has widened it to array('q').
    from_triples builds a complex from (row, col, value) triples;
    matrix(j) gives d_j as a SparseMatrix over the same arrays.
    """

    counts: tuple
    boundaries: tuple

    @classmethod
    def from_triples(cls, counts, triples):
        """The complex whose d_j has the (row, col, value) entries triples[j].

        The entries of each degree may come in any order and are sorted by
        column, then row, once; triples[0] is not read.
        """
        boundaries = []
        for j, m in enumerate(counts):
            entries = sorted((c, r, v) for r, c, v in triples[j]) if j else ()
            sizes = [0] * m
            for c, _, _ in entries:
                sizes[c] += 1
            boundaries.append((
                array("i", accumulate(sizes, initial=0)),
                array("i", map(itemgetter(1), entries)),
                array("q", map(itemgetter(2), entries)),
            ))
        return cls(tuple(counts), tuple(boundaries))

    def matrix(self, j):
        rows = self.counts[j - 1] if j >= 1 else 0
        if j < len(self.counts):
            return SparseMatrix(rows, self.counts[j], self.boundaries[j])
        return SparseMatrix(rows, 0, (array("i", [0]), array("i"), array("q")))


def _column_ids(starts):
    "The column of each entry, in storage order: c, starts[c + 1] - starts[c] times."
    return chain.from_iterable(map(repeat, range(len(starts) - 1), map(sub, starts[1:], starts)))


def _triples(starts, rows, vals):
    "The (row, col, value) entries of one degree's column arrays, column by column."
    return zip(rows, _column_ids(starts), vals)


def parse_field(spec):
    """Normalize a field name, in any case: "gf<p>" with p prime, or "rational".

    p must be below 2**64, where the Miller-Rabin test of _is_prime is exact.
    """
    text = spec.lower()
    if text in ("rational", "q"):
        return ("rational", 0)
    if text.startswith("gf"):
        try:
            p = int(text[2:])
        except ValueError:
            raise ValueError(f"unknown field {spec!r}") from None
        if p >= 2**64:
            raise ValueError(f"{p} is not below the limit 2**64 for gf<p>")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        return ("gf", p)
    raise ValueError(f"unknown field {spec!r}")


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p):
    "Deterministic Miller-Rabin on the prime bases 2 to 37: exact for p < 3.18e23."
    if p < 2:
        return False
    if p in _PRIME_BASES:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def rank(matrix, field="gf2", cleared=frozenset()):
    """Pivot rows of a sparse integer matrix reduced over the given field.

    Columns are reduced in id order, each read from its slice of the
    matrix's column arrays, and each pivots on its highest nonzero row: a
    column whose pivot row is already held by an earlier column is
    combined with that column until it is zero or has a new pivot row.
    The number of pivot rows is the rank.  Columns whose ids are in
    cleared are skipped; the rank is unchanged when each of them would
    have reduced to zero, which is how betti_of_stream uses it.

    Over GF(2) a column is a Python int over rows, XORed with pivot
    columns; each pivot column is stored as (bits >> low, low), low its
    lowest set bit, so the zeros below it take no memory.  Over GF(p) it
    is a dict of entries mod p, and pivot columns are scaled to a leading
    1.  Over the rationals it is a dict of integers combined as
    b*col - a*piv, where a and b are the two leading entries over their
    gcd, so the arithmetic stays exact in the integers; a column scaled by
    b, and each new pivot column, is divided by the gcd of its entries to
    keep them small.  A row given twice in one column is summed, over
    every field.
    """
    _, p = parse_field(field) if isinstance(field, str) else field
    reduce_column = _xor_column if p == 2 else _mod_column if p else _int_column
    starts, rows, vals = matrix.columns
    pivots = {}
    for c, (b, e) in enumerate(pairwise(starts)):
        if c not in cleared:
            reduce_column(rows, vals, b, e, pivots, p)
    return set(pivots)


def _xor_column(rows, vals, b, e, pivots, _):
    bits = 0
    for i in range(b, e):
        if vals[i] & 1:
            bits ^= 1 << rows[i]
    while bits:
        top = bits.bit_length() - 1
        piv = pivots.get(top)
        if piv is None:
            low = (bits & -bits).bit_length() - 1
            pivots[top] = (bits >> low, low)
            return
        bits ^= piv[0] << piv[1]


def _summed(rows, vals, b, e):
    "Column b:e as {row: value}, the values of a row given twice summed."
    col = {}
    for r, v in zip(rows[b:e], vals[b:e]):
        col[r] = col.get(r, 0) + v
    return col


def _mod_column(rows, vals, b, e, pivots, p):
    col = {r: v % p for r, v in _summed(rows, vals, b, e).items() if v % p}
    while col:
        top = max(col)
        piv = pivots.get(top)
        if piv is None:
            inv = pow(col[top], -1, p)
            pivots[top] = {r: v * inv % p for r, v in col.items()}
            return
        a = col[top]
        for r, v in piv.items():
            w = (col.get(r, 0) - a * v) % p
            if w:
                col[r] = w
            else:
                del col[r]


def _int_column(rows, vals, b, e, pivots, _):
    col = {r: v for r, v in _summed(rows, vals, b, e).items() if v}
    while col:
        top = max(col)
        piv = pivots.get(top)
        if piv is None:
            g = math.gcd(*col.values())
            if col[top] < 0:
                g = -g
            pivots[top] = {r: v // g for r, v in col.items()} if g != 1 else col
            return
        a = col[top]
        b = piv[top]
        g = math.gcd(a, b)
        a //= g
        b //= g
        if b != 1:
            col = {r: b * v for r, v in col.items()}
        for r, v in piv.items():
            w = col.get(r, 0) - a * v
            if w:
                col[r] = w
            else:
                del col[r]
        if b != 1:
            g = math.gcd(*col.values())
            if g > 1:
                col = {r: v // g for r, v in col.items()}


def validate_d2(cc):
    """Raise at the first nonzero entry of a composite d_{j-1} d_j.

    d_j is walked one column at a time, in id order, and each column's
    image under d_{j-1}, the columns of d_{j-1} its rows name, is summed
    in a dict of its own.  MorseComplex.betti runs it on every labeled
    complex it ranks; the Morse build checks its orbits instead."""
    for j in range(2, len(cc.counts)):
        below, below_rows, below_vals = cc.boundaries[j - 1]
        starts, rows, vals = cc.boundaries[j]
        for c in range(cc.counts[j]):
            image = {}
            for k in range(starts[c], starts[c + 1]):
                r, v = rows[k], vals[k]
                lo, hi = below[r], below[r + 1]
                for r2, v2 in zip(below_rows[lo:hi], below_vals[lo:hi]):
                    image[r2] = image.get(r2, 0) + v * v2
            for r2, v in image.items():
                if v:
                    raise AssertionError(
                        f"d o d != 0 between degrees {j} and {j - 2}: entry {((r2, c), v)}"
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
    MorseComplex.betti runs it before it calls betti.  Each
    degree's columns are streamed in id order, as stored, which is the
    order reduce_complex needs.  See betti_of_stream for the rest.
    """
    counts = cc.counts
    stream = chain.from_iterable(
        zip(repeat(j), rows, _column_ids(starts), vals)
        for j, (starts, rows, vals) in enumerate(cc.boundaries)
        if j
    )
    return betti_of_stream(counts, stream, field)


def betti_of_stream(counts, triples, field="gf2"):
    """Betti numbers from cell counts and (degree, row, col, value) entries.

    The entries of each column must arrive consecutively, and the columns
    of each degree in ascending id order, as reduce_complex requires.  The
    complex is shrunk by the coreduction of reduce_complex, which is exact
    over the integers and so valid for every field.  What is left comes
    back as one set of column arrays per degree, and is ranked one degree
    at a time from the top down, each degree's arrays dropped once it is
    ranked, with clearing: a column of d_j that is a pivot row of
    d_{j+1} would reduce to zero, because d_j d_{j+1} = 0, so rank skips
    it.  Then
    beta_j = seeds*[j == 0] + dim C_j - rank d_j - rank d_{j+1}
    on what is left, trailing zeros trimmed.
    """
    fieldpair = parse_field(field) if isinstance(field, str) else field
    seeds, counts, columns = reduce_complex(counts, triples)
    ranks = [0] * (len(counts) + 1)
    cleared = frozenset()
    for j in range(len(counts) - 1, 0, -1):
        cleared = rank(SparseMatrix(counts[j - 1], counts[j], columns[j]), fieldpair, cleared)
        ranks[j] = len(cleared)
        columns[j] = None  # freed before the next rank, whose pivots can set peak memory
    return trim(
        (seeds if j == 0 else 0) + counts[j] - ranks[j] - ranks[j + 1]
        for j in range(len(counts))
    )


class AuditFailure(AssertionError):
    "A computed homology result violates a structural bound."


def vanishing_bound(n, p, q):
    "Highest degree that may carry nonzero homology: min(p*q - n, n, p*q // 3)."
    return min(p * q - n, n, (p * q) // 3)


def audit(n, p, q, betti_vec, f_vec, morse_counts=None):
    """Check vanishing bounds, Euler consistency, and Morse inequalities.

    Nonzero homology may only appear in degrees up to vanishing_bound; the
    alternating sums of the f-vector and the Betti vector must agree; and
    each Morse count must dominate the matching Betti number.  Violations
    raise AuditFailure.
    """
    problems = []
    bound = vanishing_bound(n, p, q)
    for j, b in enumerate(betti_vec):
        if b and j > bound:
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
        "vanishing_bound": bound,
        "morse_counts": tuple(morse_counts) if morse_counts is not None else None,
    }
