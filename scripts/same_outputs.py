"""Whether two run directories hold the same outputs, byte for byte.

    PYTHONPATH=src python scripts/same_outputs.py DIR_A DIR_B

Compares ``load_disp.csv``, ``energy.csv``, ``intermediates.csv``,
``run.json`` and every snapshot under ``snapshots/`` of the two ``pffrac
run`` output directories.  ``run.json`` is compared as JSON without its wall
time ``elapsed_s``, so its config, counters and back-step events must agree;
the other files byte for byte.  It exits 0 when all of them agree and both
directories hold the same snapshots.  Otherwise it prints, one line each,
every file that differs or is missing from one side (the CSVs in that
order, ``run.json``, then the snapshots by name), and exits 1.  For a CSV
that differs, the line also gives the row counts when they differ, the
first line and column that differ, and the largest relative difference of
the numeric fields of the lines both files hold.  For a snapshot that
differs, it decodes both sides with ``vtkio.read_field_snapshot`` against
the mesh of run.json's config (``cli.resolve_config``) and also names the
first field (``displacement``, then ``damage``) and node whose values
differ bit for bit, when both decode.
Exit 2: a directory does not exist.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from pffrac.cli import resolve_config
from pffrac.vtkio import grid_text, read_field_snapshot

FILES = ("load_disp.csv", "energy.csv", "intermediates.csv", "run.json")


def compared(a: Path, b: Path) -> list:
    """The names compared, relative to a run directory, in order."""
    snapshots = {p.relative_to(d).as_posix() for d in (a, b) for p in (d / "snapshots").glob("*")}
    return list(FILES) + sorted(snapshots)


def content(path: Path):
    """What is compared of a file: ``run.json`` without ``elapsed_s``, any
    other file's bytes."""
    if path.name != "run.json":
        return path.read_bytes()
    record = json.loads(path.read_text())
    record.pop("elapsed_s", None)
    return record


def field_difference(run_json: Path, fa: Path, fb: Path) -> str:
    """Where the fields of two snapshots of the run that ``run_json``
    records first differ, bit for bit, as a suffix of the report: the field
    and the node.  Empty when both decode to the same fields or one does
    not decode against the mesh of that run's config."""
    try:
        mesh = resolve_config(json.loads(run_json.read_text())["config"])[1].mesh
        grid = grid_text(mesh)
        sides = [read_field_snapshot(f, mesh, grid) for f in (fa, fb)]
    except (KeyError, ValueError):
        return ""
    for name, width, x, y in zip(("displacement", "damage"), (mesh.dim, 1), *sides):
        nodes = np.flatnonzero(x.view(np.int64) != y.view(np.int64)) // width
        if nodes.size:
            return f" (first at {name} of node {nodes[0]})"
    return ""


def csv_difference(fa: Path, fb: Path) -> str:
    """Where two CSVs differ, as a suffix of the report: the row counts
    when they differ, the first line (the header is line 1) and column
    that differ, and the largest relative difference |x - y| / max(|x|,
    |y|) of the fields that parse as numbers in the lines both hold."""
    lines_a, lines_b = (f.read_text().splitlines() for f in (fa, fb))
    header = lines_a[0].split(",") if lines_a else []
    where, first, largest = [], None, 0.0
    if len(lines_a) != len(lines_b):
        where.append(f"{len(lines_a) - 1} rows against {len(lines_b) - 1}")
    for line, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x == y:
            continue
        fx, fy = x.split(","), y.split(",")
        if first is None:
            col = next((k for k, (u, v) in enumerate(zip(fx, fy)) if u != v), min(len(fx), len(fy)))
            first = f"first at line {line}, column {header[col] if col < len(header) else col + 1}"
            where.append(first)
        for u, v in zip(fx, fy):
            try:
                u, v = float(u), float(v)
            except ValueError:
                continue
            if u != v:
                largest = max(largest, abs(u - v) / max(abs(u), abs(v)))
    return f" ({'; '.join([*where, f'largest relative difference {largest:.3g}'])})"


def differences(a: Path, b: Path) -> list:
    """Every compared file that differs between ``a`` and ``b``, each with
    the reason, in the order of ``compared``; empty when they all agree."""
    found = []
    for name in compared(a, b):
        fa, fb = a / name, b / name
        missing = [str(d) for d, f in ((a, fa), (b, fb)) if not f.is_file()]
        if missing:
            found.append(f"{name}: missing in {', '.join(missing)}")
        elif content(fa) != content(fb):
            where = ""
            if fa.suffix == ".vtk":
                where = field_difference(a / "run.json", fa, fb)
            elif fa.suffix == ".csv":
                where = csv_difference(fa, fb)
            found.append(f"{name}: differs{where}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    found = differences(args.dir_a, args.dir_b)
    if found:
        print("\n".join(found))
        return 1
    print(f"same outputs ({len(compared(args.dir_a, args.dir_b))} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
