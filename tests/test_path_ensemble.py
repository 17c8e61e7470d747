"""The path-ensemble script (scripts/path_ensemble.py) on a tiny case, so
that it keeps running against the library it drives."""

import csv
import importlib.util
import json
from pathlib import Path

from pffrac.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "path_ensemble.py"
FIELDS = {"accepted_steps", "aborted", "abort_reason", "back_steps", "peak", "reactions", "alternations"}


def load_script():
    spec = importlib.util.spec_from_file_location("path_ensemble", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_native_member_is_pffrac_run(tmp_path, capsys):
    argv = ["--preset", "sent", "--scale", "0.05", "--steps", "3", "--set", "backtrack.eta=1e-4"]
    assert load_script().main(argv + ["--members", "2", "--seed", "3", "--at", "1,2,3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    report = json.loads(lines[-1])
    assert len(lines) == 3 + 2  # one line per member, the spread, the JSON
    members = report["members"]
    assert [m["order"] for m in members] == ["native", "perm 1", "perm 2"]
    for m in members:
        assert set(m["signature"]) == FIELDS
        assert set(m["signature"]["reactions"]) == {"1", "2", "3"}
    assert set(report["spread"]) == {"back_steps", "peak_steps", "peak", "alternations", "reactions"}

    out = tmp_path / "run"
    assert main(["run"] + argv + ["--out", str(out)]) == 0
    info = json.loads((out / "run.json").read_text())
    with open(out / "load_disp.csv") as fh:
        rows = [(int(r["step"]), float(r["reaction"])) for r in csv.DictReader(fh)]
    native = members[0]["signature"]
    assert native["accepted_steps"] == info["accepted_steps"] == 3
    assert native["aborted"] is info["aborted"] is False
    assert native["abort_reason"] == info["abort_reason"] == ""
    assert native["alternations"] == info["all_solves"]["alternations"]
    assert native["back_steps"] == [[e["failed_step"], e["resolved_step"]] for e in info["backtrack_events"]]
    assert native["reactions"] == {str(step): r for step, r in rows[1:]}
    assert native["peak"] == list(max(rows, key=lambda r: r[1]))
