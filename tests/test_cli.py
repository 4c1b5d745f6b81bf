import gc
import io
import json
import math
import os
import subprocess
import sys
import weakref

import pytest

from hardsquares import cli, grid, morse, oracle, parallel
from hardsquares.apexgraph import ApexGraph

import shared


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_betti_command(capsys):
    code, out, _ = run(capsys, "betti", "--n", "4", "--p", "3", "--q", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1 6 29"
    assert lines[1] == "gas-consistent gas-consistent liquid"


def test_betti_trivial_and_empty(capsys):
    code, out, _ = run(capsys, "betti", "--n", "0", "--p", "2", "--q", "2")
    assert code == 0 and out.splitlines()[0] == "1"
    code, out, err = run(capsys, "betti", "--n", "5", "--p", "2", "--q", "2")
    assert code == 0
    assert out == "\n\n"
    assert "empty complex" in err


def test_betti_methods_agree(capsys):
    results = []
    for method in ("morse", "direct"):
        code, out, _ = run(
            capsys, "betti", "--n", "3", "--p", "2", "--q", "3", "--method", method
        )
        assert code == 0
        results.append(out)
    assert results[0] == results[1]


def test_betti_field_flag(capsys):
    code, out, _ = run(
        capsys, "betti", "--n", "2", "--p", "2", "--q", "2", "--field", "rational"
    )
    assert code == 0 and out.splitlines()[0] == "1 1"
    with pytest.raises(SystemExit) as err:
        run(capsys, "betti", "--n", "2", "--p", "2", "--q", "2", "--field", "gf6")
    assert err.value.code == 2


def test_betti_over_a_large_prime_field_promptly(capsys):
    # 2**61 - 1 is prime; argparse and betti both check it
    with shared.deadline(5, "betti over gf(2**61 - 1) still runs after 5 s"):
        code, out, _ = run(
            capsys, "betti", "--n", "2", "--p", "2", "--q", "2",
            "--field", "gf2305843009213693951",
        )
    assert code == 0 and out.splitlines()[0] == "1 1"


def test_invalid_args_exit_2(capsys):
    instance = ["--n", "2", "--p", "2", "--q", "2"]
    commands = {
        "betti": instance,
        "fvector": instance,
        "critical": instance,
        "export": instance + ["--format", "vertex-list"],
        "verify": instance,
        "inspect": ["--corners", "1,2;2,1", "--p", "2", "--q", "2"],
        "table": ["--max-n", "2"],
    }
    bad = {"--n": "-1", "--p": "0", "--q": "0", "--field": "gf6"}
    for command, argv in commands.items():
        flags = [flag for flag in bad if flag in argv]
        if command in ("betti", "table"):
            flags.append("--field")
        for flag in flags:
            # the repeated flag is the one argparse keeps
            with pytest.raises(SystemExit) as err:
                cli.main([command] + argv + [flag, bad[flag]])
            assert err.value.code == 2, (command, flag)
            capsys.readouterr()


def test_betti_direct_cap_exit_3(capsys):
    code, _, err = run(
        capsys,
        "betti", "--n", "4", "--p", "4", "--q", "4",
        "--method", "direct", "--cell-cap", "1000",
    )
    assert code == 3
    assert "over the cap" in err


def test_cap_checks_count_at_the_threads_asked_for(capsys, monkeypatch):
    # the f-vector of the direct route's, complex-json's and verify's cap
    # checks runs on --threads workers, and the refusal text is unchanged
    real = grid.f_vector
    seen = []

    def recording(n, p, q, threads=1):
        seen.append(threads)
        return real(n, p, q, threads=threads)

    monkeypatch.setattr(grid, "f_vector", recording)
    instance = ["--n", "2", "--p", "2", "--q", "2", "--threads", "2"]
    runs = (
        ["betti", "--method", "direct"],
        ["export", "--format", "complex-json"],
        ["verify", "--deep"],
    )
    for argv in runs:
        seen.clear()
        code, _, _ = run(capsys, *argv, *instance)
        assert code == 0 and seen and set(seen) == {2}, (argv, seen)
    seen.clear()
    code, out, err = run(capsys, "betti", "--method", "direct", *instance, "--cell-cap", "8")
    assert code == 3 and out == "" and seen == [2]
    assert "complex for n=2, p=2, q=2 has 32 cells, over the cap of 8" in err


def test_betti_morse_cap_exit_3(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a build over the cap must stop before any flow")

    monkeypatch.setattr(parallel, "pmap", no_pool)
    # (3,3,3) has 18 + 42 + 24 = 84 labeled critical cells
    code, out, err = run(
        capsys, "betti", "--n", "3", "--p", "3", "--q", "3", "--cell-cap", "83"
    )
    assert code == 3 and out == ""
    assert "has 84 cells, over the cap of 83" in err


def test_betti_morse_cap_refuses_promptly(capsys, monkeypatch):
    # C(49, 7) is about 86M corner sets; the refusal must not test them all
    def no_pool(*args, **kwargs):
        raise AssertionError("a build over the cap must stop before any flow")

    monkeypatch.setattr(parallel, "pmap", no_pool)
    with shared.deadline(10, "the cap refusal still runs after 10 s"):
        code, out, err = run(capsys, "betti", "--n", "7", "--p", "7", "--q", "7")
    # 1,748 critical corner sets times 7! labelings
    assert code == 3 and out == ""
    assert "has 8809920 cells, over the cap of 2000000" in err


def test_betti_direct_cap_refuses_promptly(capsys):
    # C(36, 6) is about 1.9M corner sets; the f-vector must not list them
    with shared.deadline(10, "the cap refusal still runs after 10 s"):
        code, out, err = run(
            capsys, "betti", "--method", "direct", "--n", "6", "--p", "6", "--q", "6"
        )
    assert code == 3 and out == ""
    assert "has 597756061440 cells, over the cap" in err


def test_broken_pairing_exit_1(capsys, monkeypatch):
    def cyclic(args):
        raise morse.BrokenPairing("closed V-path through a test cell")

    monkeypatch.setattr(morse, "_flow_chunk", cyclic)
    code, out, err = run(
        capsys, "betti", "--n", "3", "--p", "3", "--q", "3", "--threads", "1"
    )
    assert code == 1 and out == ""
    assert err.startswith("error: closed V-path")


def test_fvector_command(capsys):
    code, out, _ = run(capsys, "fvector", "--n", "5", "--p", "2", "--q", "5")
    assert code == 0 and out == "30240 109200 141600 79200 17520 960\n"
    code, out, _ = run(capsys, "fvector", "--n", "1", "--p", "2", "--q", "2")
    assert out == "4 4 1\n"
    code, out, _ = run(capsys, "fvector", "--n", "6", "--p", "3", "--q", "3")
    assert out == "60480 181440 161280 40320\n"


def test_fvector_666_at_each_thread_count(capsys):
    for threads in ("1", "2"):
        code, out, _ = run(
            capsys, "fvector", "--n", "6", "--p", "6", "--q", "6", "--threads", threads
        )
        assert code == 0 and out == (
            "1402410240 12020659200 45620294400 100973174400 144484300800"
            " 140015416320 93581359200 43107131520 13447673280 2738327040"
            " 341288640 23322240 704160\n"
        ), threads


@pytest.mark.parametrize("command", ["fvector", "critical", "betti"])
def test_empty_complex_is_noted_on_stderr(capsys, command):
    code, out, err = run(capsys, command, "--n", "5", "--p", "2", "--q", "2")
    assert code == 0
    assert out == ("\n\n" if command == "betti" else "\n")
    assert err == "note: empty complex, n = 5 exceeds the board area 4\n"


def test_critical_command(capsys, tmp_path):
    code, out, _ = run(capsys, "critical", "--n", "2", "--p", "2", "--q", "2")
    assert code == 0 and out == "4 4\n"
    code, out, _ = run(capsys, "critical", "--n", "1", "--p", "1", "--q", "1")
    assert out == "1\n"

    dump = tmp_path / "critical.json"
    code, out, _ = run(
        capsys, "critical", "--n", "2", "--p", "2", "--q", "2", "--dump", str(dump)
    )
    assert code == 0
    data = json.loads(dump.read_text())
    assert len(data["cells"]) == 8
    for record in data["cells"]:
        pieces = tuple(grid.Piece(*p) for p in record["pieces"])
        assert grid.cell_dim(pieces) == record["dim"]
        rebuilt = morse.critical_cell_for(grid.apex_of(pieces), (data["p"], data["q"]))
        assert rebuilt == pieces


def test_critical_dump_respects_cell_cap(capsys, tmp_path):
    dump = tmp_path / "critical.json"
    argv = ["critical", "--n", "2", "--p", "2", "--q", "2", "--dump", str(dump)]
    code, out, err = run(capsys, *argv, "--cell-cap", "7")
    assert code == 3 and out == "4 4\n" and "over the cap" in err
    assert not dump.exists()
    code, _, _ = run(capsys, *argv, "--cell-cap", "8")
    assert code == 0
    assert len(json.loads(dump.read_text())["cells"]) == 8


@pytest.mark.parametrize("inst", [(3, 3, 3), (5, 2, 2)])
def test_critical_dump_is_the_json_dump_text(capsys, tmp_path, inst):
    # the cells are written one at a time; the bytes are those json.dump
    # writes for the whole object, on (5,2,2) with no cells at all
    n, p, q = inst
    dump = tmp_path / "critical.json"
    argv = ["critical", "--n", str(n), "--p", str(p), "--q", str(q), "--dump", str(dump)]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    cells = [grid.cell_json(cell) for cell in morse.iter_critical_cells(n, p, q)]
    assert bool(cells) == (n <= p * q)
    expected = io.StringIO()
    json.dump({"n": n, "p": p, "q": q, "cells": cells}, expected)
    expected.write("\n")
    assert dump.read_bytes() == expected.getvalue().encode()


def test_critical_dump_unwritable_exits_2_before_building(capsys, tmp_path, monkeypatch):
    def build(*args):
        raise AssertionError("critical cells built for a file that cannot be written")

    monkeypatch.setattr(morse, "iter_critical_cells", build)
    dump = tmp_path / "missing" / "critical.json"
    with pytest.raises(SystemExit) as err:
        cli.main(["critical", "--n", "2", "--p", "2", "--q", "2", "--dump", str(dump)])
    assert err.value.code == 2
    assert f"argument --dump: cannot write '{dump}'" in capsys.readouterr().err


def test_table_command(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,p,q,b0,b1,regimes"
    assert lines[1] == "2,2,2,1,1,gas-consistent gas-consistent"
    assert len(lines) == 2


def test_table_drops_each_complex_before_the_next_build(capsys, monkeypatch):
    # the (n-1) complex is garbage once its boards are done; holding it
    # while the (n, n, n) build runs adds its size to the peak
    build = morse.build_morse_complex
    built = []
    alive_at_build = []

    def tracked(*args, **kwargs):
        gc.collect()
        alive_at_build.append(sum(ref() is not None for ref in built))
        mc = build(*args, **kwargs)
        built.append(weakref.ref(mc))
        return mc

    monkeypatch.setattr(morse, "build_morse_complex", tracked)
    code, _, _ = run(capsys, "table", "--max-n", "4")
    assert code == 0
    assert alive_at_build == [0, 0, 0]


def test_table_small_k_warns(capsys, tmp_path):
    for k in ("0", "1"):
        code, out, err = run(capsys, "table", "--max-n", k)
        assert code == 0 and out == "" and "warning" in err
    with pytest.raises(SystemExit) as err:
        cli.main(["table", "--max-n", "-3"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --max-n: must be at least 0, got -3" in captured.err
    target = tmp_path / "table.csv"
    target.write_text("kept\n")
    code, out, err = run(capsys, "table", "--max-n", "1", "--out", str(target))
    assert code == 0 and out == "" and "warning" in err
    assert target.read_text() == "kept\n"


def test_table_out_unwritable_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "table.csv"
    with pytest.raises(SystemExit) as err:
        cli.main(["table", "--max-n", "2", "--out", str(target)])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage: hardsquares table ")
    assert f"argument --out: cannot write '{target}'" in stderr


def test_table_out_file(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run(capsys, "table", "--max-n", "2", "--out", str(target))
    assert code == 0 and out == ""
    lines = target.read_text().splitlines()
    assert lines[1].startswith("2,2,2,1,1,")


def test_table_rows_match_reference(capsys):
    from reference import BETTI_GF2

    code, out, _ = run(capsys, "table", "--max-n", "4")
    assert code == 0
    rows = out.splitlines()[1:]
    seen = {}
    for row in rows:
        parts = row.split(",")
        n, p, q = int(parts[0]), int(parts[1]), int(parts[2])
        betti = tuple(int(x) for x in parts[3:-1])
        while betti and betti[-1] == 0:
            betti = betti[:-1]
        seen[(n, p, q)] = betti
    expected = {k: v for k, v in BETTI_GF2.items() if k[0] <= 4}
    assert seen == expected


def test_export_vertex_list(capsys):
    code, out, _ = run(
        capsys, "export", "--n", "1", "--p", "2", "--q", "2", "--format", "vertex-list"
    )
    assert code == 0
    assert out.splitlines() == ["1 1", "1 2", "2 1", "2 2"]
    code, out, _ = run(
        capsys, "export", "--n", "2", "--p", "2", "--q", "2", "--format", "vertex-list"
    )
    lines = out.splitlines()
    assert len(lines) == 12 == grid.f_vector(2, 2, 2)[0]
    assert lines == sorted(lines, key=lambda s: tuple(map(int, s.split())))


def test_export_vertex_cap(capsys):
    code, _, err = run(
        capsys,
        "export", "--n", "3", "--p", "3", "--q", "3",
        "--format", "vertex-list", "--cell-cap", "10",
    )
    # one line per 0-cell: 9 * 8 * 7 = 504 of them
    assert code == 3
    assert err == "complex for n=3, p=3, q=3 has 504 0-cells, over the cap of 10\n"


def test_export_line_count_is_f0(capsys):
    for n, p, q in [(2, 2, 3), (3, 2, 2), (0, 2, 2)]:
        code, out, _ = run(
            capsys,
            "export", "--n", str(n), "--p", str(p), "--q", str(q),
            "--format", "vertex-list",
        )
        assert code == 0
        expected = grid.f_vector(n, p, q)[0] if n <= p * q else 0
        assert len(out.split("\n")) - 1 == expected == math.perm(p * q, n)


def test_export_complex_json(capsys):
    code, out, _ = run(
        capsys, "export", "--n", "1", "--p", "2", "--q", "2", "--format", "complex-json"
    )
    assert code == 0
    expected = [
        {"id": i, **grid.cell_json(cell)}
        for i, cell in enumerate(grid.enumerate_cells(1, 2, 2))
    ]
    assert out == json.dumps(expected) + "\n"
    cells = json.loads(out)
    assert [c["id"] for c in cells] == list(range(9))
    assert cells[0]["pieces"] == [[1, 1, 0, 0]]
    assert list(cells[0]) == ["id", "pieces", "dim"]
    assert sum(1 for c in cells if c["dim"] == 2) == 1
    # n over the board area: no cells, and the empty list
    code, out, _ = run(
        capsys, "export", "--n", "3", "--p", "1", "--q", "2", "--format", "complex-json"
    )
    assert code == 0 and out == "[]\n"


def test_export_complex_json_streams(monkeypatch):
    # each cell is written as it is enumerated, not after the last one
    out = io.StringIO()
    written = []
    enumerate_cells = grid.enumerate_cells

    def recording(*args):
        for cell in enumerate_cells(*args):
            written.append(out.tell())
            yield cell

    monkeypatch.setattr(grid, "enumerate_cells", recording)
    monkeypatch.setattr(sys, "stdout", out)
    argv = ["export", "--n", "2", "--p", "2", "--q", "2", "--format", "complex-json"]
    assert cli.main(argv) == 0
    assert len(written) == sum(grid.f_vector(2, 2, 2))
    assert written[-1] > 0
    assert len(json.loads(out.getvalue())) == len(written)


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--p", "2", "--q", "2", "--deep")
    assert code == 0
    assert all(line.startswith(("ok", "note")) for line in out.splitlines())
    code, out, _ = run(capsys, "verify", "--n", "3", "--p", "3", "--q", "3")
    assert code == 0


def test_verify_reports_failure(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "direct_betti", lambda *args, **kwargs: (1, 2))
    code, out, _ = run(capsys, "verify", "--n", "2", "--p", "2", "--q", "2", "--deep")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL:")]
    assert failed == [
        "FAIL: direct homology agrees with morse route:"
        " direct route gives (1, 2), morse route gives (1, 1)"
    ]

    def broken_build(*args, **kwargs):
        raise AssertionError("d o d != 0")

    monkeypatch.setattr(morse, "build_morse_complex", broken_build)
    code, out, _ = run(capsys, "verify", "--n", "2", "--p", "2", "--q", "2", "--deep")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL:")] == [
        "FAIL: morse complex checks (d2, euler, bounds): d o d != 0",
        "FAIL: direct homology agrees with morse route:"
        " direct route gives (1, 2), morse route gives None",
    ]

    # a sign flipped in each boundary, and one option's half-squares moved
    # off the board with their number and disjointness kept
    boundary, half_squares = grid.boundary, ApexGraph.half_squares

    def flipped(cell):
        out = boundary(cell)
        return [(out[0][0], -out[0][1])] + out[1:] if out else out

    def moved(graph):
        alloc = half_squares(graph)
        if alloc:
            v = graph.vertices[0]
            alloc[v] = frozenset((c + 100, r, half) for c, r, half in alloc[v])
        return alloc

    for owner, name, broken, failure in (
        (grid, "boundary", flipped, "FAIL: cubical complex (f-vector, valid facets,"
         " d o d = 0): d o d != 0 at (Piece(col=1, row=2, left=0, down=1),"
         " Piece(col=2, row=2, left=0, down=1))"),
        (ApexGraph, "half_squares", moved, "FAIL: apex structure (Fibonacci"
         " counts, pairing, half-squares): half-square off the board at"
         " ((1, 1), (2, 2))"),
    ):
        monkeypatch.undo()
        monkeypatch.setattr(owner, name, broken)
        code, out, _ = run(capsys, "verify", "--n", "2", "--p", "2", "--q", "2")
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("FAIL:")] == [failure]


def test_verify_catches_a_far_facet_with_the_corner_sign(capsys, monkeypatch):
    # d o d stays 0 and every GF(2) Betti vector is unchanged with this
    # boundary; the Morse route keeps its own binding of the real one
    boundary = grid.boundary

    def same_sign(cell):
        out = boundary(cell)
        return [(facet, out[i & ~1][1]) for i, (facet, _) in enumerate(out)]

    monkeypatch.setattr(grid, "boundary", same_sign)
    code, out, _ = run(capsys, "verify", "--n", "3", "--p", "3", "--q", "3", "--deep")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL:")]
    assert len(failed) == 1, out
    assert failed[0].startswith(
        "FAIL: cubical complex (f-vector, valid facets, d o d = 0):"
        " corner and far facets of one extension have one sign at"
    )


def test_verify_walks_each_structure_once(capsys, monkeypatch):
    calls = {"enumerate_cells": 0, "cells_with_apex": 0}
    enumerate_cells, cells_with_apex = grid.enumerate_cells, grid.cells_with_apex

    def counted_enumeration(*args):
        calls["enumerate_cells"] += 1
        return enumerate_cells(*args)

    def counted_apex_cells(*args):
        # the enumeration calls it once per labeled apex; count the apex
        # check's calls
        if sys._getframe(1).f_globals["__name__"] == morse.__name__:
            calls["cells_with_apex"] += 1
        return cells_with_apex(*args)

    monkeypatch.setattr(grid, "enumerate_cells", counted_enumeration)
    monkeypatch.setattr(grid, "cells_with_apex", counted_apex_cells)
    code, out, _ = run(capsys, "verify", "--n", "3", "--p", "3", "--q", "3")
    assert code == 0 and len(out.splitlines()) == 3
    # one per corner set: C(9, 3) = 84
    assert calls == {"enumerate_cells": 1, "cells_with_apex": 84}


def test_verify_size_skip_is_a_cap_refusal(capsys):
    # (6,3,3) has 443,520 cells, over the 400,000 of the cubical checks
    code, out, _ = run(capsys, "verify", "--n", "6", "--p", "3", "--q", "3")
    assert code == 0
    skipped = [line for line in out.splitlines() if "skipped" in line]
    assert len(skipped) == 1 and skipped[0].startswith("ok: cubical complex")
    assert skipped[0].endswith(
        "(skipped, complex for n=6, p=3, q=3 has 443520 cells, over the cap of 400000)"
    )
    # (5,5,5) has 5,955,344 cells up to labeling, over the 400,000 the apex
    # check may build; checking its C(25, 5) corner sets took over 100 s
    with shared.deadline(30, "verify (5,5,5) still runs after 30 s"):
        code, out, _ = run(capsys, "verify", "--n", "5", "--p", "5", "--q", "5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3 and all(line.startswith("ok: ") for line in lines)
    assert lines[1] == (
        "ok: apex structure (Fibonacci counts, pairing, half-squares) (skipped,"
        " complex for n=5, p=5, q=5 has 714641280 cells, over the cap of 48000000)"
    )


def test_verify_counts_the_f_vector_once_over_the_cell_cap(capsys, monkeypatch):
    # the direct route's check refuses with the total verify already has,
    # so an over-cap --deep run counts the f-vector once, not twice
    real = grid.f_vector
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(grid, "f_vector", counted)
    code, out, _ = run(
        capsys, "verify", "--n", "3", "--p", "3", "--q", "3", "--deep", "--cell-cap", "1000"
    )
    assert code == 0 and calls == [(3, 3, 3)]
    assert out.splitlines()[-1] == (
        "ok: direct homology agrees with morse route (skipped,"
        " complex for n=3, p=3, q=3 has 4272 cells, over the cap of 1000)"
    )


def test_inspect_command(capsys):
    code, out, _ = run(
        capsys, "inspect", "--corners", "1,2;2,1", "--p", "2", "--q", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["paths"] == [[0, 1]]


def test_inspect_corners_errors_name_the_flag(capsys):
    base = ["inspect", "--p", "2", "--q", "2", "--corners"]
    for text in (";", "1", "1,1;", "a,b"):
        with pytest.raises(SystemExit) as err:
            cli.main(base + [text])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "argument --corners: " in captured.err, text
    # well-formed pairs that are not an apex of the board: ApexGraph refuses
    for text, message in (
        ("3,1", "argument --corners: corner (3, 1) off the 2x2 board"),
        ("9,9", "argument --corners: corner (9, 9) off the 2x2 board"),
        ("1,1;1,1", "argument --corners: apex corners must be pairwise distinct"),
    ):
        with pytest.raises(SystemExit) as err:
            cli.main(base + [text])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("usage: hardsquares inspect ") and message in stderr


def test_thread_determinism(capsys):
    outputs = []
    for threads in ("1", "2"):
        code, out, _ = run(
            capsys, "fvector", "--n", "3", "--p", "3", "--q", "4", "--threads", threads
        )
        assert code == 0
        outputs.append(out)
        code, out, _ = run(
            capsys, "betti", "--n", "3", "--p", "3", "--q", "3", "--threads", threads
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[2]
    assert outputs[1] == outputs[3]


def run_module(argv, **kwargs):
    "python -m hardsquares argv in a subprocess that imports this checkout."
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hardsquares", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
        **kwargs,
    )


def test_importing_the_cli_loads_no_process_pool_module():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, hardsquares.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout == "False\n"


def test_python_dash_m_runs_the_cli():
    argv = ["betti", "--n", "2", "--p", "2", "--q", "2"]
    proc = run_module(argv, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "1 1"


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "--n", "2", "--p", "2", "--q", "2"],
        ["fvector", "--n", "2", "--p", "2", "--q", "2"],
        ["table", "--max-n", "2"],
        ["export", "--n", "2", "--p", "2", "--q", "2", "--format", "vertex-list"],
        pytest.param(
            ["export", "--n", "2", "--p", "2", "--q", "2", "--format", "complex-json"],
            id="export-complex-json",
        ),
    ],
    ids=lambda argv: argv[0],
)
def test_closed_stdout_exits_141_quietly(argv):
    # the reader has gone away, as when `head -n 1` exits before the output ends
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_module(argv, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert proc.stderr == b""
    assert proc.returncode == 141


def test_bad_threads_exit_2(capsys):
    argv = ["fvector", "--n", "2", "--p", "2", "--q", "2"]
    for extra in (["--threads", "0"], ["--threads", "-2"], ["--threads", "two"]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv + extra)
        assert err.value.code == 2
    assert "argument --threads: must be at least 1, got -2" in capsys.readouterr().err


def test_negative_limits_exit_2(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a rejected limit must stop before any work")

    monkeypatch.setattr(parallel, "pmap", no_pool)
    argv = ["betti", "--n", "2", "--p", "2", "--q", "2"]
    with pytest.raises(SystemExit) as err:
        cli.main(argv + ["--cell-cap", "-1"])
    assert err.value.code == 2
    assert "argument --cell-cap: must be at least 0, got -1" in capsys.readouterr().err
    # a cap of 0 is a limit, not an error
    inspect = ["inspect", "--corners", "1,2;2,1", "--p", "2", "--q", "2"]
    assert cli.main(inspect + ["--cell-cap", "0"]) == 0


def test_every_command_loads_config(capsys, monkeypatch):
    # the limits are checked before any work, by inspect too, which uses neither
    def no_pool(*args, **kwargs):
        raise AssertionError("a rejected limit must stop before any work")

    monkeypatch.setattr(parallel, "pmap", no_pool)
    commands = (
        ["critical", "--n", "2", "--p", "2", "--q", "2"],
        ["inspect", "--corners", "1,2;2,1", "--p", "2", "--q", "2"],
    )
    for argv in commands:
        with pytest.raises(SystemExit) as err:
            cli.main(argv + ["--cell-cap", "-1"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --cell-cap: must be at least 0, got -1" in captured.err


def test_dead_worker_exit_4(capsys, monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    def broken(*args, **kwargs):
        raise BrokenProcessPool("a child process terminated abruptly")

    monkeypatch.setattr(grid, "f_vector", broken)
    code, out, err = run(capsys, "fvector", "--n", "2", "--p", "2", "--q", "2")
    assert code == 4 and out == ""
    assert err.startswith("error: a worker process died")
