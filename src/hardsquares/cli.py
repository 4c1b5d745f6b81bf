"""Command-line interface.

Subcommands compute Betti vectors (betti), f-vectors (fvector), critical
cell counts (critical), the reference table of Betti numbers (table),
plain-text and JSON exports (export), invariant checking (verify), and an
apex-graph dump (inspect).  Every subcommand takes the two limits,
--threads (worker processes, default one per usable CPU) and --cell-cap
(the most cells of any complex a command builds or writes).  argparse
checks every argument once: --n, --cell-cap and table --max-n are at
least 0, --p, --q and --threads at least 1, --field is a parse_field name
and --corners a list of col,row integer pairs.  An error found after
parsing goes through the subcommand's own parser, so it prints that
command's usage line.  verify's cubical and apex checks are the
library's structural checks, grid.check_cell on every cell of dimension
2 or more and morse.check_corner_set on every corner set; the cubical
check adds only the count of cells against the f-vector.  Each check
that walks the complex has a size limit.

Exit codes: 0 success, 2 invalid arguments (an argparse error naming the
flag, and a table --out or critical --dump path that cannot be opened
for writing), 3 the cell cap refused the computation (CellCapExceeded: a
direct or Morse build, complex-json, critical --dump, and the 0-cells,
one line each, of a vertex-list export), 1 a verify check failed or the
gradient pairing has a closed V-path (BrokenPairing), 4 a worker process died
(BrokenProcessPool), 141 (128 + SIGPIPE) the reader of stdout closed it
early; the rest of the output is dropped without a traceback.  main maps
the exceptions to their codes; it looks BrokenProcessPool up only once
something has loaded concurrent.futures.process, so importing the CLI
does not load that module.  verify reports a check over its size
limit as skipped, with the CellCapExceeded text.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys

from . import grid, morse, oracle
from .apexgraph import ApexGraph
from .homology import audit, parse_field, validate_d2
from .parallel import default_threads

EXIT_CAP = 3
EXIT_WORKER = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a run the signal ended


def _at_least(low):
    "argparse type: an integer no smaller than low."

    def check(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return check


def _field(spec):
    "argparse type: a field name parse_field accepts, returned unchanged."
    try:
        parse_field(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return spec


def _corners(text):
    "argparse type: semicolon-separated col,row integer pairs, as a tuple."
    try:
        corners = tuple(tuple(map(int, part.split(","))) for part in text.split(";"))
    except ValueError:
        corners = ()
    if not corners or any(len(corner) != 2 for corner in corners):
        raise argparse.ArgumentTypeError(f"not col,row integer pairs: {text!r}")
    return corners


def _create(parser, flag, path, **kwargs):
    "open(path, 'w'), or an argparse error naming flag and path when that fails."
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:
        parser.error(f"argument {flag}: cannot write {path!r}: {exc.strerror}")


def _common(parser):
    parser.add_argument(
        "--threads", type=_at_least(1), default=default_threads(),
        help="worker processes (default: one per usable CPU)",
    )
    parser.add_argument(
        "--cell-cap", type=_at_least(0), default=oracle.DEFAULT_CELL_CAP,
        help="max cells of a built or written complex",
    )


def _instance_args(parser):
    parser.add_argument("--n", type=_at_least(0), required=True)
    parser.add_argument("--p", type=_at_least(1), required=True)
    parser.add_argument("--q", type=_at_least(1), required=True)


def _note_if_empty(n, p, q):
    "The stderr note of betti, fvector and critical on an instance with no cells."
    if n > p * q:
        print(f"note: empty complex, n = {n} exceeds the board area {p * q}", file=sys.stderr)


def cmd_betti(parser, args):
    n, p, q = args.n, args.p, args.q
    if args.method == "direct":
        bv = oracle.direct_betti(
            n, p, q, args.field, cap=args.cell_cap, threads=args.threads
        )
    else:
        mc = morse.build_morse_complex(n, p, q, threads=args.threads, cap=args.cell_cap)
        bv = mc.betti(args.field)
    _note_if_empty(n, p, q)
    print(" ".join(str(b) for b in bv))
    print(" ".join(oracle.classify_regime(n, p, q, bv)))
    return 0


def cmd_fvector(parser, args):
    fv = grid.f_vector(args.n, args.p, args.q, threads=args.threads)
    _note_if_empty(args.n, args.p, args.q)
    print(" ".join(str(x) for x in fv))
    return 0


def cmd_critical(parser, args):
    n, p, q = args.n, args.p, args.q
    counts = morse.critical_counts(n, p, q)
    _note_if_empty(n, p, q)
    print(" ".join(str(m) for m in counts))
    if args.dump:
        total = sum(counts)
        if total > args.cell_cap:
            raise oracle.CellCapExceeded(n, p, q, total, args.cell_cap)
        with _create(parser, "--dump", args.dump) as fh:
            # the text json.dump gives the whole object, a cell at a time
            fh.write(f'{{"n": {n}, "p": {p}, "q": {q}, "cells": [')
            for i, cell in enumerate(morse.iter_critical_cells(n, p, q)):
                fh.write((", " if i else "") + json.dumps(grid.cell_json(cell)))
            fh.write("]}\n")
    return 0


def cmd_table(parser, args):
    k = args.max_n
    if k < 2:
        print("warning: no table rows for max-n below 2", file=sys.stderr)
        return 0
    out = _create(parser, "--out", args.out, newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["n", "p", "q"] + [f"b{j}" for j in range(k)] + ["regimes"]
        )
        for n in range(2, k + 1):
            full = morse.build_morse_complex(
                n, n, n, threads=args.threads, cap=args.cell_cap
            )
            for p in range(2, n + 1):
                for q in range(p, n + 1):
                    if n > p * q:
                        continue
                    bv = full.restrict(p, q).betti(args.field)
                    labels = oracle.classify_regime(n, p, q, bv)
                    padded = list(bv) + [0] * (k - len(bv))
                    writer.writerow([n, p, q] + padded + [" ".join(labels)])
            del full  # dropped before the next, larger build
    finally:
        if args.out:
            out.close()
    return 0


def cmd_export(parser, args):
    n, p, q = args.n, args.p, args.q
    write = sys.stdout.write
    if args.format == "vertex-list":
        count = math.perm(p * q, n)  # the complex's 0-cells, one line each
        if count > args.cell_cap:
            raise oracle.CellCapExceeded(n, p, q, count, args.cell_cap, dim=0)
        for combo in grid.enumerate_apexes(n, p, q):
            write(" ".join(f"{c} {r}" for c, r in combo))
            write("\n")
    else:
        oracle.check_cap(n, p, q, args.cell_cap, args.threads)
        write("[")  # the text json.dump gives the whole list, a cell at a time
        for i, cell in enumerate(grid.enumerate_cells(n, p, q)):
            write((", " if i else "") + json.dumps({"id": i, **grid.cell_json(cell)}))
        write("]\n")
    return 0


def cmd_inspect(parser, args):
    try:
        graph = ApexGraph(args.corners, (args.p, args.q))
    except ValueError as exc:
        parser.error(f"argument --corners: {exc}")
    print(json.dumps(graph.to_json()))
    return 0


def _verify_checks(args):
    """(name, callable) pairs; a callable raises AssertionError on failure
    and CellCapExceeded when the instance is over its size limit."""
    n, p, q = args.n, args.p, args.q
    board = (p, q)
    fv = grid.f_vector(n, p, q, threads=args.threads)
    total = sum(fv)
    state = {"betti": None}  # the Morse route's, None unless it ran

    def within(limit):
        if total > limit:
            raise oracle.CellCapExceeded(n, p, q, total, limit)

    def cubical_complex():
        within(400_000)
        counts = [0] * len(fv)
        for cell in grid.enumerate_cells(n, p, q):
            d = grid.cell_dim(cell)
            assert d < len(counts), f"f-vector: a {d}-cell, but the f-vector is {fv}"
            counts[d] += 1
            if d >= 2:
                grid.check_cell(cell)
        assert tuple(counts) == fv, (
            f"f-vector: enumeration gives {counts}, counting gives {fv}"
        )

    def apex_structure():
        # it builds each corner set's cells once, unlabeled: total / n! cells
        within(400_000 * math.factorial(n))
        for corners in itertools.combinations(grid.board_squares(p, q), n):
            morse.check_corner_set(corners, board)

    def morse_route():
        # the build raises AssertionError unless d o d = 0 over Z[S_n] on
        # the orbits, and validate_d2 unless it is 0 on every labeled cell
        mc = morse.build_morse_complex(n, p, q, threads=args.threads, cap=args.cell_cap)
        validate_d2(mc.chain_complex())
        bv = mc.betti("gf2")
        state["betti"] = bv
        audit(n, p, q, bv, fv, morse_counts=mc.counts)

    def acyclicity():
        within(100_000)
        assert morse.verify_acyclic(n, p, q), "closed V-path found"

    def oracle_agreement():
        # refuse with the total at hand: direct_betti's own cap check
        # would count the f-vector again
        within(args.cell_cap)
        bv = oracle.direct_betti(n, p, q, "gf2", cap=args.cell_cap, threads=args.threads)
        assert bv == state["betti"], (
            f"direct route gives {bv}, morse route gives {state['betti']}"
        )

    checks = [
        ("cubical complex (f-vector, valid facets, d o d = 0)", cubical_complex),
        ("apex structure (Fibonacci counts, pairing, half-squares)", apex_structure),
        ("morse complex checks (d2, euler, bounds)", morse_route),
    ]
    if args.deep:
        checks.append(("gradient field is acyclic", acyclicity))
        checks.append(("direct homology agrees with morse route", oracle_agreement))
    return checks


def cmd_verify(parser, args):
    failures = 0
    for name, check in _verify_checks(args):
        try:
            check()
        except AssertionError as exc:  # AuditFailure is one too
            failures += 1
            print(f"FAIL: {name}: {exc}")
            continue
        except oracle.CellCapExceeded as exc:
            print(f"ok: {name} (skipped, {exc})")
            continue
        print(f"ok: {name}")
    if args.n > args.p * args.q:
        print("note: empty complex, n exceeds the board area")
    elif args.n == args.p * args.q and args.n > 0:
        print("note: board area equals n, the complex is 0-dimensional")
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hardsquares",
        description="Homology of configuration spaces of hard squares in a rectangle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_betti = sub.add_parser("betti", help="Betti numbers of one instance")
    _instance_args(p_betti)
    p_betti.add_argument("--field", type=_field, default="gf2", help="gf2, gf<p>, or rational")
    p_betti.add_argument("--method", choices=("morse", "direct"), default="morse")
    p_betti.set_defaults(func=cmd_betti)

    p_fv = sub.add_parser("fvector", help="cell counts by dimension")
    _instance_args(p_fv)
    p_fv.set_defaults(func=cmd_fvector)

    p_crit = sub.add_parser("critical", help="critical cell counts")
    _instance_args(p_crit)
    p_crit.add_argument("--dump", help="write critical cells as JSON to this file")
    p_crit.set_defaults(func=cmd_critical)

    p_table = sub.add_parser("table", help="Betti table for all boards up to n")
    p_table.add_argument("--max-n", type=_at_least(0), required=True)
    p_table.add_argument("--field", type=_field, default="gf2")
    p_table.add_argument("--out", help="CSV output path (default stdout)")
    p_table.set_defaults(func=cmd_table)

    p_exp = sub.add_parser("export", help="plain-text or JSON complex exports")
    _instance_args(p_exp)
    p_exp.add_argument(
        "--format", choices=("vertex-list", "complex-json"), required=True
    )
    p_exp.set_defaults(func=cmd_export)

    p_ver = sub.add_parser("verify", help="run the invariant checks on one instance")
    _instance_args(p_ver)
    p_ver.add_argument("--deep", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    p_ins = sub.add_parser("inspect", help="dump one apex graph as JSON")
    p_ins.add_argument("--corners", type=_corners, required=True, help='e.g. "1,2;2,1"')
    p_ins.add_argument("--p", type=_at_least(1), required=True)
    p_ins.add_argument("--q", type=_at_least(1), required=True)
    p_ins.set_defaults(func=cmd_inspect)

    for command in sub.choices.values():
        _common(command)
        # errors found after parsing print this command's usage
        command.set_defaults(parser=command)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args.parser, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; keep the exit-time flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except oracle.CellCapExceeded as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CAP
    except morse.BrokenPairing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # parallel.pmap loads this module only to raise BrokenProcessPool
        pool = sys.modules.get("concurrent.futures.process")
        if pool is None or not isinstance(exc, pool.BrokenProcessPool):
            raise
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return EXIT_WORKER
    return code


if __name__ == "__main__":
    sys.exit(main())
