"""Whether two source trees give the same outputs on the acceptance runs.

    PYTHONPATH=src python scripts/same_runs.py PARENT_SRC CHANGE_SRC WORK_DIR [RUN ARGS...]

Runs each case with ``pffrac run`` under both source trees (each a
directory that holds the ``pffrac`` package, put first on PYTHONPATH), two
processes at a time with one BLAS thread each, into
``WORK_DIR/parent/CASE`` and ``WORK_DIR/change/CASE``.  Then it runs
``pffrac check-energy`` on every directory under its own tree, and the
change's ``check-energy`` on each parent directory too, which shows that
the change reads everything the parent wrote, and compares each pair with
``same_outputs.differences``.  The cases are the eleven below, the last of
which aborts at step 1 (exit 3), or, when ``pffrac run`` arguments follow
WORK_DIR, the one case ``given`` that they name.

It prints one line per case: the comparison (``same outputs (N files)`` or
the number of files that differ), the exit codes of the two runs and of
the two audits, parent first, and the exit code of the change's audit of
the parent's directory; then, indented, one line per file that differs.
It exits 0 when every pair has the same outputs and equal run and
``check-energy`` exit codes and the change's audit of the parent's
directory exits as the parent's own, 1 otherwise, and 2 when a source tree
holds no ``pffrac`` package.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from same_outputs import compared, differences

SENT_ELL = ["--preset", "sent", "--scale", "0.1", "--set", "material.ell=0.1"]
AT1 = ["--set", "material.dissipation=AT1", "--set", "material.kappa=0.375"]
CASES = {
    "sent-0.1": ["--preset", "sent", "--scale", "0.1"],
    "sent-0.1-cut-76": ["--preset", "sent", "--scale", "0.1", "--steps", "76"],
    "bend3d-0.2-2-steps": ["--preset", "bend3d", "--scale", "0.2", "--steps", "2"],
    "sent-ell-cut-66": SENT_ELL + ["--steps", "66"],
    "at1-sent-ell-cut-57": SENT_ELL + AT1 + ["--steps", "57"],
    "sent-0.2-cut-66": ["--preset", "sent", "--scale", "0.2", "--steps", "66"],
    # the two sides of BandOrdering.narrowest: the node-level pseudo-peripheral
    # RCM is chosen on sens@0.05, scipy's dof-level RCM on lshape@0.5
    "sens-0.05-3-steps": ["--preset", "sens", "--scale", "0.05", "--steps", "3"],
    "lshape-0.5-2-steps": ["--preset", "lshape", "--scale", "0.5", "--steps", "2"],
    # the crack runs through bend3d@0.1 at step 4 (1,183.7, 2,262.1, 2,750.7
    # then 79.5 N): damaged 3-D states, whose displacement tangents are
    # assembled in seven element blocks
    "bend3d-0.1-crack-4": ["--preset", "bend3d", "--scale", "0.1", "--steps", "4", "--set", "program.dw=0.06"],
    # damaged 2-D states whose displacement tangents span two element blocks
    # (sent@0.1 and sent@0.2 assemble in one, and sens@0.05 stays elastic)
    "sent-0.35-cut-52": ["--preset", "sent", "--scale", "0.35", "--steps", "52"],
    "sent-0.2-abort-at-1": ["--preset", "sent", "--scale", "0.2", "--steps", "3", "--set", "solver.max_alt=1"],
}
SIDES = ("parent", "change")


def pffrac(src: Path, *args) -> int:
    """The exit code of ``python -m pffrac.cli ARGS`` under the tree ``src``,
    with one BLAS thread; its output is discarded."""
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    quiet = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL}
    return subprocess.run([sys.executable, "-m", "pffrac.cli", *args], env=env, **quiet).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("work_dir", type=Path)
    parser.add_argument("run_args", nargs=argparse.REMAINDER, help="pffrac run arguments of one case")
    args = parser.parse_args(argv)
    trees = dict(zip(SIDES, (args.parent_src.resolve(), args.change_src.resolve())))
    for src in trees.values():
        if not (src / "pffrac" / "cli.py").is_file():
            print(f"no pffrac package in {src}", file=sys.stderr)
            return 2
    cases = {"given": args.run_args} if args.run_args else CASES
    jobs = [(case, side) for case in cases for side in SIDES]
    out = {job: args.work_dir.resolve() / job[1] / job[0] for job in jobs}

    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = dict(zip(jobs, pool.map(lambda j: pffrac(trees[j[1]], "run", *cases[j[0]], "--out", str(out[j])), jobs)))
        audits = dict(zip(jobs, pool.map(lambda j: pffrac(trees[j[1]], "check-energy", str(out[j])), jobs)))
        parents = [str(out[case, "parent"]) for case in cases]
        crossed = dict(zip(cases, pool.map(lambda d: pffrac(trees["change"], "check-energy", d), parents)))

    same = True
    for case in cases:
        a, b = (out[case, side] for side in SIDES)
        found = differences(a, b)
        run_codes = [runs[case, side] for side in SIDES]
        audit_codes = [audits[case, side] for side in SIDES]
        same &= not found and run_codes[0] == run_codes[1] and audit_codes[0] == audit_codes[1] == crossed[case]
        verdict = f"{len(found)} files differ" if found else f"same outputs ({len(compared(a, b))} files)"
        codes = (
            f"run exit {run_codes[0]} {run_codes[1]}; check-energy exit {audit_codes[0]} {audit_codes[1]}; "
            f"change's check-energy of parent exit {crossed[case]}"
        )
        print("\n  ".join([f"{case}: {verdict}; {codes}", *found]))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
