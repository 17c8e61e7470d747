"""The acceptance-run comparison script (scripts/same_runs.py) on one tiny
case, given on its command line."""

import importlib.util
import shutil
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SRC = SCRIPTS.parent / "src"
CASE = ["--preset", "sent", "--scale", "0.05", "--steps", "2"]


def load_script(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # it imports same_outputs from beside it
    spec = importlib.util.spec_from_file_location("same_runs", SCRIPTS / "same_runs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_trees_agree_and_changed_outputs_do_not(tmp_path, monkeypatch, capsys):
    # this repo's src against itself gives the same outputs (exit 0); a
    # copy whose CSVs print one digit less differs in load_disp.csv (exit
    # 1), though each tree's audit of its own run passes; a directory
    # without the package is refused (exit 2)
    same_runs = load_script(monkeypatch)
    assert same_runs.main([str(SRC), str(SRC), str(tmp_path / "same"), *CASE]) == 0
    assert capsys.readouterr().out == "given: same outputs (7 files); run exit 0 0; check-energy exit 0 0\n"

    changed = tmp_path / "src"
    shutil.copytree(SRC / "pffrac", changed / "pffrac", ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "pffrac" / "cli.py"
    cli.write_text(cli.read_text().replace('"%.17g"', '"%.16g"'))
    assert same_runs.main([str(SRC), str(changed), str(tmp_path / "changed"), *CASE]) == 1
    assert capsys.readouterr().out == "given: load_disp.csv: differs; run exit 0 0; check-energy exit 0 0\n"
    assert same_runs.main([str(SRC), str(tmp_path), str(tmp_path / "none"), *CASE]) == 2
