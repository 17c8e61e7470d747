"""The output comparison script (scripts/same_outputs.py) on two tiny runs."""

import importlib.util
import json
from pathlib import Path

import pytest

from pffrac.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_outputs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_names_every_file_that_differs(tmp_path, capsys):
    # two runs of one config agree although their run.json differ (wall
    # time); an edited run.json counter, a snapshot that differs (with the
    # first field and node that differ), or a snapshot missing on one side,
    # is named, and so is every other file that differs alongside it
    same_outputs = load_script()
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["run", "--preset", "sent", "--scale", "0.05", "--steps", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert same_outputs.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == "same outputs (7 files)\n"

    record = json.loads((b / "run.json").read_text())
    record["all_solves"]["trials_u"] += 1
    (b / "run.json").write_text(json.dumps(record))
    assert same_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == "run.json: differs\n"
    record["all_solves"]["trials_u"] -= 1
    record["elapsed_s"] += 1.0
    (b / "run.json").write_text(json.dumps(record))

    # one flipped bit in a snapshot: in the last node's damage, then also
    # in node 5's displacement, which is named first; in the grid alone, no
    # field is named
    snap = b / "snapshots" / "step_000001.vtk"
    kept = snap.read_bytes()
    data = bytearray(kept)
    data[-2] ^= 1
    snap.write_bytes(bytes(data))
    n_nodes = int(kept.split(b"\nPOINTS ", 1)[1].split()[0])
    assert same_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == f"snapshots/step_000001.vtk: differs (first at damage of node {n_nodes - 1})\n"
    data[kept.index(b"VECTORS displacement double\n") + 28 + 5 * 24 + 7] ^= 1
    snap.write_bytes(bytes(data))
    assert same_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == "snapshots/step_000001.vtk: differs (first at displacement of node 5)\n"
    data = bytearray(kept)
    data[kept.index(b"\nPOINTS ") + 40] ^= 1
    snap.write_bytes(bytes(data))
    assert same_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == "snapshots/step_000001.vtk: differs\n"

    # a missing snapshot and the differing one are both named, by name
    (a / "snapshots" / "step_000000.vtk").unlink()
    assert same_outputs.main([str(b), str(a)]) == 1
    assert capsys.readouterr().out == (
        f"snapshots/step_000000.vtk: missing in {a}\nsnapshots/step_000001.vtk: differs\n"
    )
    assert same_outputs.main([str(a), str(tmp_path / "none")]) == 2


def test_csv_differences_give_row_column_and_largest_relative_difference(tmp_path, capsys):
    # energy.csv with step 2's UB and step 1's E moved by 1e-12 and 3e-13
    # relative: the first line and column that differ, and the largest
    # relative difference over all numeric fields; a last row dropped from
    # load_disp.csv gives the row counts, and a passed flag 1 -> 0 a
    # relative difference of 1
    same_outputs = load_script()
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["run", "--preset", "sent", "--scale", "0.05", "--steps", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (b / "energy.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines]
    rows[3][5] = repr(float(rows[3][5]) * (1 + 1e-12))
    rows[2][1] = repr(float(rows[2][1]) * (1 + 3e-13))
    (b / "energy.csv").write_text("".join(",".join(row) + "\n" for row in rows))
    loads = (b / "load_disp.csv").read_text().splitlines()
    (b / "load_disp.csv").write_text("".join(line + "\n" for line in loads[:-1]))
    assert same_outputs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "load_disp.csv: differs (3 rows against 2; largest relative difference 0)"
    head, largest = out[1].rsplit(" ", 1)
    assert head == "energy.csv: differs (first at line 3, column E; largest relative difference"
    assert float(largest.rstrip(")")) == pytest.approx(1e-12, rel=1e-3)
    assert len(out) == 2

    rows[2][-1] = "0"
    (b / "energy.csv").write_text("".join(",".join(row) + "\n" for row in rows))
    assert same_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[1] == (
        "energy.csv: differs (first at line 3, column E; largest relative difference 1)"
    )
