import json
import math
import os

import pytest

from hardsquares import cli, grid, morse
from hardsquares.config import load_config


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
    for method in ("morse", "direct", "restrict"):
        code, out, _ = run(
            capsys, "betti", "--n", "3", "--p", "2", "--q", "3", "--method", method
        )
        assert code == 0
        results.append(out)
    assert results[0] == results[1] == results[2]


def test_betti_field_flag(capsys):
    code, out, _ = run(
        capsys, "betti", "--n", "2", "--p", "2", "--q", "2", "--field", "rational"
    )
    assert code == 0 and out.splitlines()[0] == "1 1"
    with pytest.raises(SystemExit) as err:
        run(capsys, "betti", "--n", "2", "--p", "2", "--q", "2", "--field", "gf6")
    assert err.value.code == 2


def test_betti_invalid_args_exit_2(capsys):
    for argv in (
        ["betti", "--n", "-1", "--p", "2", "--q", "2"],
        ["betti", "--n", "2", "--p", "0", "--q", "2"],
        ["betti", "--n", "2", "--p", "3", "--q", "2", "--method", "restrict"],
    ):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        capsys.readouterr()


def test_betti_direct_cap_exit_3(capsys):
    code, _, err = run(
        capsys,
        "betti", "--n", "4", "--p", "4", "--q", "4",
        "--method", "direct", "--cell-cap", "1000",
    )
    assert code == 3
    assert "over the cap" in err


def test_fvector_command(capsys):
    code, out, _ = run(capsys, "fvector", "--n", "5", "--p", "2", "--q", "5")
    assert code == 0 and out == "30240 109200 141600 79200 17520 960\n"
    code, out, _ = run(capsys, "fvector", "--n", "1", "--p", "2", "--q", "2")
    assert out == "4 4 1\n"
    code, out, _ = run(capsys, "fvector", "--n", "6", "--p", "3", "--q", "3")
    assert out == "60480 181440 161280 40320\n"


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
        cell = grid.Arrangement(pieces, (data["p"], data["q"]))
        assert cell.dim == record["dim"]
        rebuilt = morse.critical_cell_for(grid.apex_of(cell), cell.board)
        assert rebuilt == cell


def test_table_command(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,p,q,b0,b1,regimes"
    assert lines[1] == "2,2,2,1,1,gas-consistent gas-consistent"
    assert len(lines) == 2


def test_table_small_k_warns(capsys, tmp_path):
    code, out, err = run(capsys, "table", "--max-n", "1")
    assert code == 0 and out == "" and "warning" in err
    target = tmp_path / "table.csv"
    target.write_text("kept\n")
    code, out, err = run(capsys, "table", "--max-n", "1", "--out", str(target))
    assert code == 0 and out == "" and "warning" in err
    assert target.read_text() == "kept\n"


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
        "--format", "vertex-list", "--vertex-cap", "10",
    )
    assert code == 3 and "vertex cap" in err


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
    data = json.loads(out)
    assert data == grid.cells_json(1, 2, 2)


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--p", "2", "--q", "2", "--deep")
    assert code == 0
    assert all(line.startswith(("ok", "note")) for line in out.splitlines())
    code, out, _ = run(capsys, "verify", "--n", "3", "--p", "3", "--q", "3")
    assert code == 0


def test_inspect_command(capsys):
    code, out, _ = run(
        capsys, "inspect", "--corners", "1,2;2,1", "--p", "2", "--q", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["paths"] == [[0, 1]]


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"cell_cap": 10}')
    code, _, err = run(
        capsys,
        "betti", "--n", "2", "--p", "2", "--q", "2",
        "--method", "direct", "--config", str(cfg),
    )
    assert code == 3 and "over the cap" in err


def test_thread_determinism(capsys, monkeypatch):
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("HARDSQ_THREADS", threads)
        code, out, _ = run(capsys, "fvector", "--n", "3", "--p", "3", "--q", "4")
        assert code == 0
        outputs.append(out)
        code, out, _ = run(capsys, "betti", "--n", "3", "--p", "3", "--q", "3")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[2]
    assert outputs[1] == outputs[3]


def test_threads_clamped_to_cpu_count():
    cpus = os.cpu_count() or 1
    assert load_config(env={}, threads=10**6).threads == cpus
    assert load_config(env={}, threads=0).threads == 1
    assert load_config(env={"HARDSQ_THREADS": str(10**6)}).threads == cpus
    assert load_config(env={"HARDSQ_THREADS": "-3"}).threads == 1


def test_bad_threads_exit_2(capsys, monkeypatch):
    argv = ["fvector", "--n", "2", "--p", "2", "--q", "2"]
    for extra in (["--threads", "0"], ["--threads", "-2"], ["--threads", "two"]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv + extra)
        assert err.value.code == 2
    for value in ("abc", "2.5"):
        monkeypatch.setenv("HARDSQ_THREADS", value)
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
    assert "HARDSQ_THREADS" in capsys.readouterr().err


def test_bad_config_exit_2(capsys, tmp_path):
    argv = ["fvector", "--n", "2", "--p", "2", "--q", "2", "--config"]
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    word = tmp_path / "word.json"
    word.write_text('{"cell_cap": "lots"}')
    cases = (
        (tmp_path / "missing.json", "cannot read"),
        (array, "JSON object"),
        (broken, ""),
        (word, "'cell_cap'"),
    )
    for path, message in cases:
        with pytest.raises(SystemExit) as err:
            cli.main(argv + [str(path)])
        assert err.value.code == 2
        assert message in capsys.readouterr().err


def test_config_values_must_be_integers(tmp_path):
    for text in ('{"threads": null}', '{"threads": 2.5}', '{"threads": true}'):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(ValueError, match="'threads'"):
            load_config(bad, env={})
    good = tmp_path / "good.json"
    good.write_text('{"cell_cap": 10, "flow_budget": "20"}')
    cfg = load_config(good, env={})
    assert (cfg.cell_cap, cfg.flow_budget) == (10, 20)


def test_dead_worker_exit_4(capsys, monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    def broken(*args, **kwargs):
        raise BrokenProcessPool("a child process terminated abruptly")

    monkeypatch.setattr(grid, "f_vector", broken)
    code, out, err = run(capsys, "fvector", "--n", "2", "--p", "2", "--q", "2")
    assert code == 4 and out == ""
    assert err.startswith("error: a worker process died")
