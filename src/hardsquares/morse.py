"""Discrete gradient matching on the hard-squares complex.

Cells sharing an apex are bit strings on the paths of the apex's option
graph, and are matched by a recursive rule on those strings.  At most one
cell per apex stays unmatched (critical).  The Morse complex lives on the
critical cells; its boundary is computed by flowing each cubical facet
through the matching until only critical cells remain.  S_n acts freely on
the labeled critical cells and the pairing commutes with relabeling, so
MorseComplex is a complex of free Z[S_n]-modules, one generator per
critical corner set, each column read off one flow.  No labeled cell is
stored; iter_critical_cells makes them.  MorseComplex.betti cancels unit
entries over Z[S_n] before it expands what is left into labeled columns.
Each flow is one parallel.pmap job that decodes the set's critical cell
(by the apex's ApexGraph) and returns it with the flow, listed heaviest
first, by the sum of the corner coordinates, so pmap's fixed snake-wise
shares are balanced.  A flow job walks the V-paths with one _Walker on
int-coded cells (grid.pack): a pairing flip is one XOR, a facet comes
from grid.packed_boundary, and the pairing of a labeled apex is tabulated
on its first visit, one table of _flip_index per path, with the memo
and the open set keyed by ints; only the flow's critical targets are
decoded back into cells.  The partner is up or down by the bit the
pairing flips (0 to 1 is up).  _pair, the plain pairing on tuples, stays
the reference behind match_cell, cell_status and check_corner_set.  A
closed V-path raises BrokenPairing instead of looping, and verify_acyclic
flows every cell to look for one; check_corner_set checks the rest of
what makes the pairing a discrete gradient, one corner set at a time.
The build refuses, with oracle.CellCapExceeded, a complex whose labeled
critical cells exceed the cell cap, and checks d o d = 0 once, on the
generators; restrict keeps or drops each corner set by its corners, so it
makes subcomplexes, which are not checked again; betti checks the labeled
complex it ranks.
"""

from __future__ import annotations

import itertools
import math
from array import array
from functools import lru_cache
from itertools import repeat

from . import grid
from .apexgraph import (
    ApexGraph,
    cached_structure,
    check_half_squares,
    diagonal_paths,
    path_strings,
)
from .grid import (
    Piece,
    board_diagonals,
    boundary,
    cell_dim,
    packed_boundary,
    relabel,
    relabel_sign,
)
from .homology import ChainComplex, betti, validate_d2
from .oracle import DEFAULT_CELL_CAP, CellCapExceeded


class BrokenPairing(RuntimeError):
    "The gradient pairing has a closed V-path, so a flow would never end."


@lru_cache(maxsize=None)
def critical_string(k):
    """The unique unmatched bit string on a k-vertex path, or None.

    Paths with k = 1 mod 3 have every string matched; otherwise the
    unmatched string repeats 010, truncated to 01 at the end when
    k = 2 mod 3.
    """
    r = k % 3
    if r == 1:
        return None
    return "010" * (k // 3) + ("" if r == 0 else "01")


def _flip_index(s):
    """Index of the bit the pairing flips in s, or None when s is unmatched.

    Strip leading 010 blocks; the empty remainder and the remainder 01 are
    the unmatched cases, otherwise the first remaining bit flips.
    """
    i = 0
    while s.startswith("010", i):
        i += 3
    return None if s[i:] in ("", "01") else i


def match_string(s):
    """Partner of s under the pairing, or None when s is unmatched.

    An involution: matched partners differ in exactly the bit _flip_index
    names.
    """
    if "11" in s or s.strip("01"):
        raise ValueError(f"{s!r} is not an independence string")
    i = _flip_index(s)
    if i is None:
        return None
    return s[:i] + ("1" if s[i] == "0" else "0") + s[i + 1 :]


def _pair(cell):
    """(partner, up) under the gradient pairing, or None if cell is critical.

    The first path (in canonical order) whose string is matched gets the
    flipped bit of match_string; every other option is kept.  The flipped
    bit going from 0 to 1 adds an extension, so up means the partner is
    the cofacet.
    """
    owner = {(pc.col, pc.row): k for k, pc in enumerate(cell)}
    for path in cached_structure(tuple(sorted(owner))):
        # a Piece is (col, row, left, down): field 2 + axis is the option
        bits = "".join(["1" if cell[owner[at]][2 + axis] else "0" for at, axis in path])
        i = _flip_index(bits)
        if i is None:
            continue
        (c, r), axis = path[i]
        k = owner[(c, r)]
        pc = cell[k]
        if axis == 0:
            new = Piece(c, r, 1 - pc.left, pc.down)
        else:
            new = Piece(c, r, pc.left, 1 - pc.down)
        return cell[:k] + (new,) + cell[k + 1 :], bits[i] == "0"
    return None


def match_cell(cell):
    """Partner cell of a cell under the gradient pairing, or None if critical.

    Label-blind, so the pairing commutes with relabeling.
    """
    paired = _pair(cell)
    return None if paired is None else paired[0]


def cell_status(cell):
    """("critical", None), ("up", partner) or ("down", partner).

    "up" means the partner is the cofacet (one dimension higher): the
    pairing flips a bit of the cell's strings from 0 to 1.
    """
    paired = _pair(cell)
    if paired is None:
        return ("critical", None)
    partner, up = paired
    return ("up" if up else "down", partner)


def critical_cell_for(apex, board):
    """The critical cell with the given labeled apex, or None.

    An apex is critical exactly when every path of its option graph has
    0 or 2 mod 3 vertices; the critical cell then takes the unmatched
    pattern on every path.
    """
    graph = ApexGraph(apex, board)
    bits = [critical_string(len(path)) for path in graph.paths]
    return None if None in bits else graph.decode(bits)


def _diagonal_search(n, p, q):
    """Sorted n-sets of board squares whose paths all have 0 or 2 mod 3 vertices.

    Depth-first over the anti-diagonals c + r = d, choosing a subset of
    each diagonal's squares in turn.  The paths of diagonal d depend only
    on diagonals d - 2 .. d (apexgraph.diagonal_paths), so a partial set is
    dropped as soon as the diagonal just filled has a path of 1 mod 3
    vertices, and a branch stops when fewer squares remain than pieces to
    place.
    """
    diagonals = board_diagonals(p, q)
    # room[i]: the squares of diagonals i and later
    room = [sum(map(len, diagonals[i:])) for i in range(len(diagonals) + 1)]
    occupied = set()
    found = []

    def fill(i, left):
        if left == 0:
            found.append(tuple(sorted(occupied)))
            return
        if room[i] < left:
            return
        for k in range(min(left, len(diagonals[i])) + 1):
            for chosen in itertools.combinations(diagonals[i], k):
                occupied.update(chosen)
                if all(len(path) % 3 != 1 for path in diagonal_paths(chosen, occupied)):
                    fill(i + 1, left - k)
                occupied.difference_update(chosen)

    fill(0, n)
    found.sort()
    return found


def critical_sets(n, p, q):
    """Unordered critical apexes in lexicographic order.

    Yields (corners, dim) with corners a sorted tuple of board squares.
    The candidates come from a search over the anti-diagonals that prunes
    every set with a path of 1 mod 3 vertices (_diagonal_search); the
    dimension is the number of options the critical string of each of
    its cached paths takes.
    """
    for combo in _diagonal_search(n, p, q):
        paths = cached_structure(combo)
        yield (combo, sum(critical_string(len(path)).count("1") for path in paths))


def critical_counts(n, p, q):
    "Number of labeled critical cells by dimension."
    counts = []
    for _, dim in critical_sets(n, p, q):
        if dim >= len(counts):
            counts.extend([0] * (dim + 1 - len(counts)))
        counts[dim] += 1
    scale = math.factorial(n)
    return tuple(c * scale for c in counts)


def iter_critical_cells(n, p, q):
    "All labeled critical cells, grouped by corner set, labelings in lex order."
    board = (p, q)
    for corners, _ in critical_sets(n, p, q):
        rep = critical_cell_for(corners, board)
        for perm in itertools.permutations(range(len(corners))):
            yield relabel(rep, perm)


@lru_cache(maxsize=None)
def _flip_rule(k):
    """_flip_index on each independence string of a k-vertex path, tabulated:
    (the string's 1 positions, its flipped index or None) per string."""
    return tuple(
        (tuple(i for i, bit in enumerate(s) if bit == "1"), _flip_index(s))
        for s in path_strings(k)
    )


class _Walker:
    """V-path flows of cells of n pieces, on their codes (grid.pack, width
    bits per coordinate).

    A walk only moves corners left or down, so a width that fits the start
    cell fits every cell it visits.  memo maps each visited code to its
    flow, a tuple of (critical code, coefficient) pairs; a "down" cell's is
    the empty tuple.  The pairing of a labeled apex is a (mask, table)
    pair per path of its option graph, built from cached_structure on the
    apex's first visit: mask holds the path's option bits, and table maps
    each string the cell can take on them to the bit _flip_index flips, 0
    when the string is unmatched.  Both caches live as long as the walker.
    """

    def __init__(self, n, width):
        self.n = n
        self.width = width
        self.options = grid.option_bits(n, width)
        self.coords = ~self.options  # code & coords: the code's corners, its labeled apex
        self.memo = {}
        self._rules = {}  # coordinate bits of a labeled apex -> its (mask, table) pairs
        self._tables = {}  # option bits of a path, in path order -> its table

    def _rule(self, apex):
        "The (mask, table) pairs of a labeled apex, the coordinate bits of a code."
        width = self.width
        field = 2 * width + 2
        low = (1 << width) - 1
        left = {}  # corner -> the left bit of its piece; the down bit is width + 1 above
        for shift in range(0, self.n * field, field):
            left[(apex >> shift + 1 & low, apex >> shift + width + 2 & low)] = 1 << shift
        tables = self._tables
        rule = []
        for path in cached_structure(tuple(sorted(left))):
            bits = tuple([left[at] << width + 1 if axis else left[at] for at, axis in path])
            table = tables.get(bits)
            if table is None:
                table = tables[bits] = {
                    sum([bits[i] for i in ones]): 0 if flip is None else bits[flip]
                    for ones, flip in _flip_rule(len(bits))
                }
            rule.append((sum(bits), table))
            if len(bits) % 3 == 1:
                break  # every string on this path is matched: no later path decides
        rule = self._rules[apex] = tuple(rule)
        return rule

    def pair(self, code):
        """The option bit the pairing flips in a code, 0 if the cell is critical.

        The partner is code ^ bit: the cofacet ("up") when the bit is clear
        in code, a facet ("down") when it is set.  The first path whose
        string is matched decides, as in _pair.
        """
        apex = code & self.coords
        rule = self._rules.get(apex)
        if rule is None:
            rule = self._rule(apex)
        for mask, table in rule:
            bit = table[code & mask]
            if bit:
                return bit
        return 0

    def flow(self, start):
        """Flow of one code, by an explicit depth-first stack.

        A cell is paired when met as a facet: a critical or "down" cell
        gets its flow at once, and an "up" cell is pushed with its flip bit.
        An up cell waiting for the flows of its partner's other facets is
        open: it keeps those facets and the coefficient lam of itself in the
        partner's boundary for its return visit.  A facet met that is open
        too closes a V-path.
        """
        memo = self.memo
        if start in memo:
            return memo[start]
        pair = self.pair
        options = self.options
        bit = pair(start)
        if not bit:
            memo[start] = ((start, 1),)
            return memo[start]
        if start & bit:
            memo[start] = ()
            return ()
        open_cells = {}  # code -> (facets of the partner, lam)
        stack = [(start, bit)]
        while stack:
            code, bit = stack[-1]
            if code in open_cells:
                facets, lam = open_cells.pop(code)
                acc = {}
                for f, s in facets:
                    if f != code:
                        coef = -s * lam
                        for t, v in memo[f]:
                            acc[t] = acc.get(t, 0) + coef * v
                memo[code] = tuple([(t, v) for t, v in acc.items() if v])
                stack.pop()
                continue
            if code in memo:
                stack.pop()
                continue
            facets = packed_boundary(code | bit, options)
            pending = []
            for f, s in facets:
                if f == code:
                    lam = s
                elif f not in memo:
                    if f in open_cells:
                        cell = grid.unpack(code, self.n, self.width)
                        raise BrokenPairing(f"closed V-path through {cell}")
                    b = pair(f)
                    if not b:
                        memo[f] = ((f, 1),)
                    elif f & b:
                        memo[f] = ()
                    else:
                        pending.append((f, b))
            open_cells[code] = (facets, lam)
            stack.extend(pending)
        return memo[start]


def flow_boundary(cell):
    """Morse boundary of a critical cell: flow its facets to critical cells.

    A facet that is critical contributes itself; one paired with a facet of
    its own contributes nothing; one paired with a cofacet E is replaced by
    the (signed) remaining boundary of E, recursively.  The cell's signed
    facets come from grid.boundary, and one _Walker flows them all.  The
    recursion ends because the pairing is acyclic; a closed V-path raises
    BrokenPairing.
    """
    n = len(cell)
    width = max((max(pc.col, pc.row) for pc in cell), default=0).bit_length()
    walker = _Walker(n, width)
    out = {}
    for facet, sign in boundary(cell):
        for target, coeff in walker.flow(grid.pack(facet, width)):
            out[target] = out.get(target, 0) + sign * coeff
    return {grid.unpack(t, n, width): v for t, v in out.items() if v}


def morse_boundary(cell):
    """Morse boundary of one critical cell, as {critical cell: coeff}."""
    if match_cell(cell) is not None:
        raise ValueError("cell is not critical")
    return flow_boundary(cell)


def _flow_chunk(args):
    "Critical cell of one corner set and its sorted flow, memo of its own (a pool job)."
    p, q, corners = args
    cell = critical_cell_for(corners, (p, q))
    return cell, sorted(flow_boundary(cell).items())


def _odd_mask(cell):
    "Which pieces of a cell have an odd number of extensions: all relabel_sign reads."
    return tuple((pc.left + pc.down) & 1 for pc in cell)


def _inverse(perm):
    "The permutation h with h[perm[k]] = k."
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


def _times(x, y):
    "The product x y in Z[S_n] of two {perm: coefficient} dicts, (g h)[k] = g[h[k]]."
    out = {}
    for g, a in x.items():
        for h, b in y.items():
            gh = tuple([g[k] for k in h])
            out[gh] = out.get(gh, 0) + a * b
    return out


def _is_unit(x):
    "Whether x in Z[S_n] is +-[g], invertible with inverse +-[g^-1]."
    return len(x) == 1 and abs(next(iter(x.values()))) == 1


class MorseComplex:
    """The Morse complex over Z[S_n]: one generator per critical corner set.

    sets[d] lists the sorted critical corner sets of dimension d in lex
    order.  S_n acts on labeled cells on the right, x.g = relabel_sign(x,
    g) relabel(x, g), (g h)[k] = g[h[k]]; a set's generator is its
    critical cell rep.  columns[s] = {row set T: x_T}, each x_T in Z[S_n]
    a {perm: coefficient} dict, with d rep = sum_T rep_T.x_T; masks[s] =
    _odd_mask(rep).  columns, masks and labelings (chain_complex's
    _Labelings) are shared by a build's restrictions and reductions, so
    they may hold sets a complex does not list.  counts and chain_complex
    count labeled cells: labeling i of sets[d][k], the cell relabel(rep,
    g) = relabel_sign(rep, g) rep.g for g the i-th permutation of range(n)
    in itertools.permutations order, is d-cell k n! + i.
    """

    def __init__(self, n, board, sets, columns, masks, labelings):
        self.n = n
        self.board = board
        self.sets = sets
        self.columns = columns
        self.masks = masks
        self.labelings = labelings

    @property
    def counts(self):
        block = math.factorial(self.n)
        return tuple(len(s) * block for s in self.sets)

    def chain_complex(self):
        """The labeled complex, as homology.ChainComplex column arrays.

        Each term c [h] of a set's entry at row set T gives its labeling g
        the value c relabel_sign(rep, g) relabel_sign(rep_T, h g) at T's
        labeling h g.  Rows ascend within each column.
        """
        labelings = self.labelings
        block = len(labelings.perms)
        boundaries = []
        first = {}  # the degree below: each set's first labeling
        for sets in self.sets:
            starts, rows, vals = array("i", [0]), array("i"), array("q")
            for corners in sets:
                base = labelings.signs(self.masks[corners])
                tables = []  # per term: (row, value) in each of the n! columns
                for target, x in self.columns[corners].items():
                    row = first[target]
                    signs = labelings.signs(self.masks[target])
                    for h, coeff in x.items():
                        ids = labelings.rows(h)
                        tables.append([
                            (row + i, coeff * b * signs[i]) for i, b in zip(ids, base)
                        ])
                if not tables:
                    starts.extend(repeat(len(rows), block))
                for column in zip(*tables):
                    r, v = zip(*sorted(column))
                    rows.extend(r)
                    vals.extend(v)
                    starts.append(len(rows))
            boundaries.append((starts, rows, vals))
            first = {corners: k * block for k, corners in enumerate(sets)}
        return ChainComplex(self.counts, tuple(boundaries))

    def reduced(self):
        """The complex left once every unit entry is cancelled over Z[S_n].

        A unit entry x_ba = e[g], e = +-1, splits off the acyclic summand
        b -> a: each other column c holding row a becomes c - b x_ba^-1
        x_ca, so x_cr becomes x_cr - x_br x_ba^-1 x_ca, and a, b and row b
        go.  Homology over Z, so over every field, is unchanged (algebraic
        Morse theory).  The next entry cancelled is the one whose column
        and row hold the fewest entries together, ties broken by (b, a),
        so the result is deterministic.
        """
        columns = {c: dict(self.columns[c]) for sets in self.sets for c in sets}
        cofaces = {c: {} for c in columns}  # row -> the columns holding it, as dict keys
        units = {}  # (column, row) of each unit entry, as dict keys
        for c, column in columns.items():
            for r, x in column.items():
                cofaces[r][c] = None
                if _is_unit(x):
                    units[(c, r)] = None

        def cost(entry):
            c, r = entry
            return len(columns[c]) + len(cofaces[r]), entry

        while units:
            b, a = min(units, key=cost)
            column_b = columns.pop(b)
            for r in column_b:
                del cofaces[r][b]
                units.pop((b, r), None)
            ((g, e),) = column_b.pop(a).items()
            inv = _inverse(g)
            for c in cofaces.pop(a):
                column_c = columns[c]
                units.pop((c, a), None)
                # -x_ba^-1 x_ca, so that x_cr becomes x_cr + x_br y
                y = {tuple([inv[k] for k in h]): -e * v for h, v in column_c.pop(a).items()}
                for r, x in column_b.items():
                    z = _times(x, y)
                    for h, v in column_c.get(r, {}).items():
                        z[h] = z.get(h, 0) + v
                    z = {h: v for h, v in z.items() if v}
                    if z:
                        column_c[r] = z
                        cofaces[r][c] = None
                        if _is_unit(z):
                            units[(c, r)] = None
                        else:
                            units.pop((c, r), None)
                    elif r in column_c:
                        del column_c[r]
                        del cofaces[r][c]
                        units.pop((c, r), None)
            for r in columns.pop(a):
                del cofaces[r][a]
                units.pop((a, r), None)
            for c in cofaces.pop(b):
                del columns[c][b]
                units.pop((c, b), None)
        sets = [[c for c in s if c in columns] for s in self.sets]
        return MorseComplex(self.n, self.board, sets, columns, self.masks, self.labelings)

    def betti(self, field="gf2"):
        """Betti numbers of the reduced complex's labeled expansion, whose
        d o d = 0 is checked first, and with it the cancellation."""
        cc = self.reduced().chain_complex()
        validate_d2(cc)
        return betti(cc, field)

    def restrict(self, p, q):
        """Sub-Morse-complex of critical cells whose apex fits in p x q.

        Keeps or drops each corner set, an orbit, by its corners; the kept
        sets are the very tuples of this complex, and their columns and
        masks are shared.  Valid because boundaries only move apexes left
        and down; a dropped row set under a kept column would mean the
        pairing is broken.
        """
        bp, bq = self.board
        if p > bp or q > bq:
            raise ValueError(f"cannot restrict {self.board} to larger ({p}, {q})")
        sets = [[s for s in old if all(c <= p and r <= q for c, r in s)] for old in self.sets]
        for below, kept in zip(sets, sets[1:]):
            below = set(below)
            if not all(below.issuperset(self.columns[s]) for s in kept):
                raise AssertionError("restriction dropped the boundary of a kept cell")
        while len(sets) > 1 and not sets[-1]:
            sets.pop()
        return MorseComplex(self.n, (p, q), sets, self.columns, self.masks, self.labelings)


class _Labelings:
    """The n! labelings of one build, with its sign and row-id tables.

    perms lists the permutations of range(n) in itertools.permutations
    order; labeling i of a corner set relabels its critical cell by
    perms[i].  relabel_sign(cell, perm) depends only on _odd_mask(cell),
    so one list of n! signs per mask serves every cell with that mask.
    One array of n! labeling ids per permutation h gives the id of h g,
    relabel(h, g), for each g.  Each table is made on first use.
    """

    def __init__(self, n):
        self.perms = list(itertools.permutations(range(n)))
        self.perm_id = {perm: i for i, perm in enumerate(self.perms)}
        self._signs = {}  # odd-extension mask -> relabel_sign for each perm
        self._rows = {}  # h -> perm_id of h g for each perm g

    def signs(self, mask):
        "relabel_sign(cell, perm) for each perm, for a cell whose _odd_mask is mask."
        out = self._signs.get(mask)
        if out is None:
            # a stand-in cell with that mask: odd pieces get one extension
            cell = tuple(Piece(0, 0, odd, 0) for odd in mask)
            out = self._signs[mask] = [relabel_sign(cell, perm) for perm in self.perms]
        return out

    def rows(self, h):
        "Id of the labeling h g, relabel(h, g), for each perm g."
        out = self._rows.get(h)
        if out is None:
            perm_id = self.perm_id
            out = self._rows[h] = array("i", [perm_id[relabel(h, perm)] for perm in self.perms])
        return out


def _check_d2(mc):
    """Raise AssertionError unless sum_T x_TU x_sT = 0 in Z[S_n] for every
    set s and every set U two degrees below: d o d = 0 on the generators,
    and so on every labeled cell."""
    columns = mc.columns
    for d in range(2, len(mc.sets)):
        for s in mc.sets[d]:
            image = {}
            for target, x in columns[s].items():
                for u, y in columns[target].items():
                    acc = image.setdefault(u, {})
                    for h, v in _times(y, x).items():
                        acc[h] = acc.get(h, 0) + v
            for u, acc in image.items():
                if any(acc.values()):
                    raise AssertionError(
                        f"d o d != 0 between degrees {d} and {d - 2}: orbit {s} to orbit {u}"
                    )


def build_morse_complex(n, p, q, threads=1, cap=DEFAULT_CELL_CAP):
    """Morse complex of the full gradient pairing on the n, p, q complex.

    One flow per corner set of positive dimension, each a pmap job that
    returns the set's critical cell and its flow, listed by decreasing sum
    of corner coordinates (that sum bounds how far a flow goes).  A flow
    target t lies on an earlier corner set T (boundaries move corners left
    or down) and is relabel(rep_T, slot) = relabel_sign(rep_T, slot)
    rep_T.slot, slot[k] the position of t's k-th corner in T; so a term
    (t, c) adds c relabel_sign(rep_T, slot) to [slot] in x_sT.  d o d = 0
    is checked once, on the generators (_check_d2).  Over cap, an integer
    count of labeled critical cells, CellCapExceeded is raised before any
    flow runs.
    """
    from .parallel import pmap

    sets = list(critical_sets(n, p, q))
    total = len(sets) * math.factorial(n)
    if total > cap:
        raise CellCapExceeded(n, p, q, total, cap)
    dims = dict(sets)
    by_dim = [[] for _ in range(max(dims.values(), default=0) + 1)]
    for corners, dim in sets:
        by_dim[dim].append(corners)
    columns = {corners: {} for corners in by_dim[0]}
    masks = dict.fromkeys(by_dim[0], (0,) * n)
    # heaviest first, so that pmap's snake-wise deal balances the workers
    flowing = sorted(
        (corners for corners, dim in sets if dim > 0),
        key=lambda corners: sum(c + r for c, r in corners),
        reverse=True,
    )
    jobs = [(p, q, corners) for corners in flowing]
    for corners, (rep, flow) in zip(flowing, pmap(_flow_chunk, jobs, threads)):
        masks[corners] = _odd_mask(rep)
        column = columns[corners] = {}
        for target, coeff in flow:
            corner = [(pc.col, pc.row) for pc in target]
            target_set = tuple(sorted(corner))
            if dims.get(target_set) != dims[corners] - 1:
                raise AssertionError("flow target has wrong dimension")
            slot = tuple(map(target_set.index, corner))
            rep_target = relabel(target, _inverse(slot))
            column.setdefault(target_set, {})[slot] = coeff * relabel_sign(rep_target, slot)
    mc = MorseComplex(n, (p, q), by_dim, columns, masks, _Labelings(n))
    _check_d2(mc)
    return mc


def verify_acyclic(n, p, q):
    """Exhaustively check that the pairing has no closed V-path.

    Flows every cell with one walker, so one shared memo; the flow raises
    BrokenPairing exactly when it meets a closed V-path.
    """
    width = max(p, q).bit_length()
    walker = _Walker(n, width)
    try:
        for cell in grid.enumerate_cells(n, p, q):
            walker.flow(grid.pack(cell, width))
    except BrokenPairing:
        return False
    return True


def check_corner_set(corners, board):
    """Raise AssertionError unless the pairing is a discrete gradient on the
    cells whose apex is corners, a sorted or labeled corner tuple.

    There are as many cells as independent sets of the apex graph's paths
    (a product of Fibonacci numbers).  Each matched cell's partner keeps
    the apex, is one dimension up or down, is matched back to the cell,
    and the lower of the two is a facet of the higher.  At most one cell
    is critical; it has no 2x2 piece and dimension at most min(n, pq // 3).
    The apex graph's half-squares pass apexgraph.check_half_squares.
    """
    p, q = board
    graph = ApexGraph(corners, board)
    cells = grid.cells_with_apex(graph.apex)
    assert graph.independent_set_count() == len(cells), (
        f"Fibonacci count: apex {graph.apex} has {len(cells)} cells,"
        f" {graph.independent_set_count()} independent sets"
    )
    critical = []
    for cell in cells:
        status, partner = cell_status(cell)
        if status == "critical":
            critical.append(cell)
            continue
        assert grid.apex_of(partner) == graph.apex, "pairing changes the apex"
        assert abs(cell_dim(partner) - cell_dim(cell)) == 1, "pairing dimensions"
        assert match_cell(partner) == cell, "pairing is not an involution"
        low, high = sorted((cell, partner), key=cell_dim)
        assert any(f == low for f, _ in boundary(high)), (
            "paired cell is not a facet of its partner"
        )
    assert len(critical) <= 1, f"apex {graph.apex} has {len(critical)} critical cells"
    for cell in critical:
        assert not any(pc.left and pc.down for pc in cell), (
            f"critical cell {cell} has a 2x2 piece"
        )
        assert cell_dim(cell) <= min(len(cell), p * q // 3), (
            f"critical cell {cell} has dimension {cell_dim(cell)},"
            f" above min(n, pq // 3)"
        )
    check_half_squares(graph, p, q)
