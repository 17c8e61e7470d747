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


def copy_src(dest: Path) -> Path:
    """A copy of this repo's ``pffrac`` package under ``dest``."""
    shutil.copytree(SRC / "pffrac", dest / "pffrac", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_same_trees_agree_and_changed_outputs_do_not(tmp_path, monkeypatch, capsys):
    # this repo's src against itself gives the same outputs (exit 0); a
    # copy whose figures print one digit less differs in load_disp.csv,
    # energy.csv and run.json's config, each named on its own line with,
    # for a CSV, the first line and column that differ and the largest
    # relative difference (exit 1), though each tree's audit of its own
    # run, and the copy's audit of the parent's run, pass; a directory
    # without the package is refused (exit 2)
    same_runs = load_script(monkeypatch)
    assert same_runs.main([str(SRC), str(SRC), str(tmp_path / "same"), *CASE]) == 0
    assert capsys.readouterr().out == (
        "given: same outputs (7 files); run exit 0 0; check-energy exit 0 0; change's check-energy of parent exit 0\n"
    )

    changed = copy_src(tmp_path / "src")
    cli = changed / "pffrac" / "cli.py"
    cli.write_text(cli.read_text().replace('"%.17g"', '"%.16g"'))
    assert same_runs.main([str(SRC), str(changed), str(tmp_path / "changed"), *CASE]) == 1
    head, load_disp, energy, run_json = capsys.readouterr().out.splitlines()
    assert head == "given: 3 files differ; run exit 0 0; check-energy exit 0 0; change's check-energy of parent exit 0"
    for line, name in [(load_disp, "load_disp.csv"), (energy, "energy.csv")]:
        assert line.startswith(f"  {name}: differs (first at line 3, column ")
        assert 0.0 < float(line.rsplit(" ", 1)[1].rstrip(")")) < 1e-15
    assert run_json == "  run.json: differs"
    assert same_runs.main([str(SRC), str(tmp_path), str(tmp_path / "none"), *CASE]) == 2


def test_change_must_audit_what_the_parent_wrote(tmp_path, monkeypatch, capsys):
    # a copy that titles its snapshots otherwise writes other snapshots and
    # refuses the parent's (exit 2); a copy whose outputs agree but whose
    # audit of a parent directory exits otherwise than the parent's own
    # fails the case too (exit 1)
    same_runs = load_script(monkeypatch)
    titled = copy_src(tmp_path / "titled")
    vtkio = titled / "pffrac" / "vtkio.py"
    vtkio.write_text(vtkio.read_text().replace("pffrac field snapshot", "pffrac field snapshots"))
    assert same_runs.main([str(SRC), str(titled), str(tmp_path / "titled-runs"), *CASE]) == 1
    assert capsys.readouterr().out == (
        "given: 3 files differ; run exit 0 0; check-energy exit 0 0; change's check-energy of parent exit 2\n"
        + "".join(f"  snapshots/step_{step:06d}.vtk: differs\n" for step in range(3))
    )

    copy = copy_src(tmp_path / "copy").resolve()  # as the script resolves its trees
    real = same_runs.pffrac

    def refusing(src, *args):
        if src == copy and args[0] == "check-energy" and Path(args[1]).parent.name == "parent":
            return 2
        return real(src, *args)

    monkeypatch.setattr(same_runs, "pffrac", refusing)
    assert same_runs.main([str(SRC), str(copy), str(tmp_path / "copy-runs"), *CASE]) == 1
    assert capsys.readouterr().out == (
        "given: same outputs (7 files); run exit 0 0; check-energy exit 0 0; change's check-energy of parent exit 2\n"
    )
