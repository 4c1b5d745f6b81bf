"""Command-line interface.

Subcommands compute Betti vectors (betti), f-vectors (fvector), critical
cell counts (critical), the reference table of Betti numbers (table),
plain-text and JSON exports (export), invariant checking (verify), and an
apex-graph dump (inspect).

Exit codes: 0 success, 2 invalid arguments (including --threads below 1,
a HARDSQ_THREADS or HARDSQ_CELL_CAP that is not an integer, a negative
cell cap or vertex cap, and a --config file that is missing, unreadable,
not a JSON object or has a value that is not an integer), 3 a configured
cap refused the computation (CellCapExceeded, for a direct or a Morse
build, or an export or dump over its cap), 1 a verify check failed or the
gradient pairing has a closed V-path (BrokenPairing), 4 a worker process
died (BrokenProcessPool).  main maps the exceptions to their codes.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from concurrent.futures.process import BrokenProcessPool

from . import grid, morse, oracle
from .apexgraph import ApexGraph
from .config import load_config
from .homology import audit, parse_field

EXIT_CAP = 3
EXIT_WORKER = 4


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _common(parser):
    parser.add_argument("--threads", type=_positive_int, help="worker processes")
    parser.add_argument("--cell-cap", type=int, help="max cells of a built complex")
    parser.add_argument("--vertex-cap", type=int, help="max lines for vertex exports")
    parser.add_argument("--config", help="JSON config file")


def _instance_args(parser):
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--p", type=int, required=True)
    parser.add_argument("--q", type=int, required=True)


def _check_instance(parser, args):
    if args.n < 0:
        parser.error("--n must be non-negative")
    if args.p < 1 or args.q < 1:
        parser.error("--p and --q must be at least 1")


def _parse_field_arg(parser, spec):
    try:
        parse_field(spec)
    except ValueError as exc:
        parser.error(str(exc))
    return spec


def cmd_betti(parser, args, cfg):
    _check_instance(parser, args)
    field = _parse_field_arg(parser, args.field)
    n, p, q = args.n, args.p, args.q
    if args.method == "direct":
        bv = oracle.direct_betti(n, p, q, field, cap=cfg.cell_cap)
    else:
        mc = morse.build_morse_complex(n, p, q, threads=cfg.threads, cap=cfg.cell_cap)
        bv = mc.betti(field)
    if n > p * q:
        print(f"note: empty complex, n = {n} exceeds the board area {p * q}", file=sys.stderr)
    print(" ".join(str(b) for b in bv))
    print(" ".join(oracle.classify_regime(n, p, q, bv)))
    return 0


def cmd_fvector(parser, args, cfg):
    _check_instance(parser, args)
    fv = grid.f_vector(args.n, args.p, args.q, threads=cfg.threads)
    print(" ".join(str(x) for x in fv))
    return 0


def cmd_critical(parser, args, cfg):
    _check_instance(parser, args)
    counts = morse.critical_counts(args.n, args.p, args.q)
    print(" ".join(str(m) for m in counts))
    if args.dump:
        total = sum(counts)
        if total > cfg.cell_cap:
            print(f"{total} critical cells, over the cap of {cfg.cell_cap}", file=sys.stderr)
            return EXIT_CAP
        cells = [
            {
                "pieces": [[pc.col, pc.row, pc.left, pc.down] for pc in cell.pieces],
                "dim": cell.dim,
            }
            for cell in morse.iter_critical_cells(args.n, args.p, args.q)
        ]
        payload = {"n": args.n, "p": args.p, "q": args.q, "cells": cells}
        with open(args.dump, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    return 0


def cmd_table(parser, args, cfg):
    field = _parse_field_arg(parser, args.field)
    k = args.max_n
    if k < 2:
        print("warning: no table rows for max-n below 2", file=sys.stderr)
        return 0
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["n", "p", "q"] + [f"b{j}" for j in range(k)] + ["regimes"]
        )
        for n in range(2, k + 1):
            full = morse.build_morse_complex(
                n, n, n, threads=cfg.threads, cap=cfg.cell_cap
            )
            for p in range(2, n + 1):
                for q in range(p, n + 1):
                    if n > p * q:
                        continue
                    bv = full.restrict(p, q).betti(field)
                    labels = oracle.classify_regime(n, p, q, bv)
                    padded = list(bv) + [0] * (k - len(bv))
                    writer.writerow([n, p, q] + padded + [" ".join(labels)])
    finally:
        if args.out:
            out.close()
    return 0


def cmd_export(parser, args, cfg):
    _check_instance(parser, args)
    n, p, q = args.n, args.p, args.q
    if args.format == "vertex-list":
        count = math.perm(p * q, n)
        if count > cfg.vertex_cap:
            print(
                f"{count} integer configurations exceed the vertex cap of"
                f" {cfg.vertex_cap}",
                file=sys.stderr,
            )
            return EXIT_CAP
        write = sys.stdout.write
        for combo in itertools.permutations(grid.board_squares(p, q), n):
            write(" ".join(f"{c} {r}" for c, r in combo))
            write("\n")
    else:
        oracle.check_cap(n, p, q, cfg.cell_cap)
        json.dump(grid.cells_json(n, p, q), sys.stdout)
        sys.stdout.write("\n")
    return 0


def cmd_inspect(parser, args, cfg):
    if args.p < 1 or args.q < 1:
        parser.error("--p and --q must be at least 1")
    try:
        corners = []
        for part in args.corners.split(";"):
            c, r = part.split(",")
            corners.append((int(c), int(r)))
        graph = ApexGraph(tuple(corners), (args.p, args.q))
    except ValueError as exc:
        parser.error(str(exc))
    print(json.dumps(graph.to_json()))
    return 0


def _verify_checks(n, p, q, cfg, deep):
    "Yield (name, callable) pairs; callables raise AssertionError on failure."
    board = (p, q)
    fv = grid.f_vector(n, p, q, threads=cfg.threads)
    total = sum(fv)
    state = {}

    def enumeration_counts():
        assert total <= 400_000, f"skipped here for size ({total} cells)"
        counts = []
        for cell in grid.enumerate_cells(n, p, q):
            d = cell.dim
            if d >= len(counts):
                counts.extend([0] * (d + 1 - len(counts)))
            counts[d] += 1
        assert tuple(counts) == fv, f"enumeration gives {counts}, counting gives {fv}"

    def cubical_d2():
        assert total <= 400_000, f"skipped here for size ({total} cells)"
        for cell in grid.enumerate_cells(n, p, q):
            if cell.dim < 2:
                continue
            acc = {}
            for facet, s in grid.boundary(cell):
                assert grid.is_valid_cell(facet), f"invalid facet of {cell}"
                for f2, s2 in grid.boundary(facet):
                    acc[f2.pieces] = acc.get(f2.pieces, 0) + s * s2
            assert not any(acc.values()), f"d o d != 0 at {cell}"

    def apex_counts():
        squares = grid.board_squares(p, q)
        for combo in itertools.combinations(squares, n):
            graph = ApexGraph(combo, board)
            cells = grid.cells_with_apex(combo, board)
            assert graph.independent_set_count() == len(cells), (
                f"apex {combo}: {len(cells)} cells vs"
                f" {graph.independent_set_count()} independent sets"
            )

    def pairing_properties():
        squares = grid.board_squares(p, q)
        for combo in itertools.combinations(squares, n):
            criticals = 0
            for cell in grid.cells_with_apex(combo, board):
                status, partner = morse.cell_status(cell)
                if status == "critical":
                    criticals += 1
                    continue
                assert grid.apex_of(partner) == grid.apex_of(cell), "pair changes apex"
                assert abs(partner.dim - cell.dim) == 1, "pair dimensions"
                back = morse.match_cell(partner)
                assert back == cell, "pairing is not an involution"
                low, high = sorted((cell, partner), key=lambda a: a.dim)
                assert any(f == low for f, _ in grid.boundary(high)), (
                    "paired cell is not a facet of its partner"
                )
            assert criticals <= 1, f"apex {combo} has {criticals} critical cells"

    def half_squares():
        squares = grid.board_squares(p, q)
        for combo in itertools.combinations(squares, n):
            graph = ApexGraph(combo, board)
            alloc = graph.half_squares()
            seen = set()
            for path in graph.paths:
                for pos, i in enumerate(path):
                    hs = alloc[graph.vertices[i]]
                    expected = 2 + (pos == 0) + (pos == len(path) - 1)
                    assert len(hs) == expected, f"allocation size at {combo}"
                    assert not (hs & seen), f"overlapping allocation at {combo}"
                    seen |= hs
            assert len(seen) <= 2 * p * q

    def morse_route():
        # the build raises AssertionError unless d o d = 0
        mc = morse.build_morse_complex(n, p, q, threads=cfg.threads, cap=cfg.cell_cap)
        bv = mc.betti("gf2")
        state["betti"] = bv
        audit(n, p, q, bv, fv, morse_counts=mc.counts)

    def acyclicity():
        assert total <= 100_000, f"skipped here for size ({total} cells)"
        assert morse.verify_acyclic(n, p, q), "closed V-path found"

    def oracle_agreement():
        bv = oracle.direct_betti(n, p, q, "gf2", cap=cfg.cell_cap)
        assert bv == state["betti"], (
            f"direct route gives {bv}, morse route gives {state['betti']}"
        )

    checks = [
        ("f-vector matches enumeration", enumeration_counts),
        ("cubical boundary squares to zero", cubical_d2),
        ("per-apex cell counts are Fibonacci products", apex_counts),
        ("pairing properties", pairing_properties),
        ("half-square allocations disjoint", half_squares),
        ("morse complex checks (d2, euler, bounds)", morse_route),
    ]
    if deep:
        checks.append(("gradient field is acyclic", acyclicity))
        checks.append(("direct homology agrees with morse route", oracle_agreement))
    return checks


def cmd_verify(parser, args, cfg):
    _check_instance(parser, args)
    failures = 0
    for name, check in _verify_checks(args.n, args.p, args.q, cfg, args.deep):
        try:
            check()
        except AssertionError as exc:  # AuditFailure is one too
            text = str(exc)
            if text.startswith("skipped"):
                print(f"ok: {name} ({text})")
                continue
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
    p_betti.add_argument("--field", default="gf2", help="gf2, gf<p>, or rational")
    p_betti.add_argument("--method", choices=("morse", "direct"), default="morse")
    _common(p_betti)
    p_betti.set_defaults(func=cmd_betti)

    p_fv = sub.add_parser("fvector", help="cell counts by dimension")
    _instance_args(p_fv)
    _common(p_fv)
    p_fv.set_defaults(func=cmd_fvector)

    p_crit = sub.add_parser("critical", help="critical cell counts")
    _instance_args(p_crit)
    p_crit.add_argument("--dump", help="write critical cells as JSON to this file")
    _common(p_crit)
    p_crit.set_defaults(func=cmd_critical)

    p_table = sub.add_parser("table", help="Betti table for all boards up to n")
    p_table.add_argument("--max-n", type=int, required=True)
    p_table.add_argument("--field", default="gf2")
    p_table.add_argument("--out", help="CSV output path (default stdout)")
    _common(p_table)
    p_table.set_defaults(func=cmd_table)

    p_exp = sub.add_parser("export", help="plain-text or JSON complex exports")
    _instance_args(p_exp)
    p_exp.add_argument(
        "--format", choices=("vertex-list", "complex-json"), required=True
    )
    _common(p_exp)
    p_exp.set_defaults(func=cmd_export)

    p_ver = sub.add_parser("verify", help="run the invariant checks on one instance")
    _instance_args(p_ver)
    p_ver.add_argument("--deep", action="store_true")
    _common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_ins = sub.add_parser("inspect", help="dump one apex graph as JSON")
    p_ins.add_argument("--corners", required=True, help='e.g. "1,2;2,1"')
    p_ins.add_argument("--p", type=int, required=True)
    p_ins.add_argument("--q", type=int, required=True)
    _common(p_ins)
    p_ins.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(
            args.config,
            threads=args.threads,
            cell_cap=args.cell_cap,
            vertex_cap=args.vertex_cap,
        )
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return args.func(parser, args, cfg)
    except oracle.CellCapExceeded as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CAP
    except morse.BrokenPairing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenProcessPool as exc:
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return EXIT_WORKER


if __name__ == "__main__":
    sys.exit(main())
