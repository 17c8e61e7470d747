"""One benchmark job, in a fresh process so that its peak RSS is its own.

    python3 perfbench/job.py --mode run --preset sent --scale 0.1 --steps 76 --out DIR

Modes:

- ``probe``: ``pffrac run`` cut short at the first load step; measures set-up.
- ``run``: ``pffrac run``, then ``pffrac check-energy`` ``--audits`` times.
- ``trace``: as ``run``, every layer wrapped by the tracer.

Both commands are called in-process through ``pffrac.cli.main``.  The last
line of standard output is one JSON object describing the job: the wall
times, and for ``probe`` and ``run`` the same times scaled to the nominal
host speed (``scaled``, perfbench/calibrate.py) with the references taken.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> None:
    """One BLAS/OpenMP thread.  The pools are sized when numpy is first
    imported, so this must run before that import."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


class _SetupDone(Exception):
    """Raised at the first load step of a set-up probe."""


def output_digest(out_dir: Path) -> str:
    """sha256 over the CSV outputs and every snapshot, in name order."""
    h = hashlib.sha256()
    files = [out_dir / "load_disp.csv", out_dir / "energy.csv"]
    files += sorted((out_dir / "snapshots").glob("*.vtk"))
    for f in files:
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    ap.add_argument("--src", default="src", help="directory holding the pffrac package")
    ap.add_argument("--preset", required=True)
    ap.add_argument("--scale", required=True)
    ap.add_argument("--steps", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--audits", type=int, default=1, help="times to run check-energy")
    args = ap.parse_args(argv)

    pin_threads()
    sys.path.insert(0, str(Path(args.src).resolve()))
    import numpy  # noqa: F401  (imported before timing starts)
    import scipy.sparse.linalg  # noqa: F401

    from pffrac import cli, driver

    import calibrate
    import tracing as tr

    tracer = None
    run_main = check_main = cli.main
    if args.mode == "trace":
        tracer = tr.Tracer()
        tracer.install(tr.TARGETS)
        run_main = tracer.span(tr.RUN_ROOT, cli.main)
        check_main = tracer.span(tr.CHECK_ROOT, cli.main)

    # Untraced jobs scale each timed interval to the nominal host speed
    # (perfbench/calibrate.py).  Traced jobs take no references, which
    # would fall inside the traced spans.
    cal = calibrate.Calibrator(calibrate.Reference()) if tracer is None else None

    def timed(seconds, force=False):
        """(seconds, index of the interval in ``cal``)."""
        if cal is None:
            return seconds, None
        k = cal.record(seconds)
        cal.checkpoint(force)
        return seconds, k

    # Each call into AM starts a solve; the first one ends set-up.  A
    # segment runs from one solve to the next, the last one to the end of
    # run; the references taken between segments are left out of them.
    setup, segments, audits = [], [], []
    t0 = seg_start = None

    def timed_solve(*a, **kw):
        nonlocal seg_start
        now = time.perf_counter()
        if seg_start is None:
            setup.append(timed(now - t0, force=True))
        else:
            segments.append(timed(now - seg_start))
        if args.mode == "probe":
            raise _SetupDone
        seg_start = time.perf_counter()
        return solve(*a, **kw)

    solve = driver.alternate_minimize
    driver.alternate_minimize = timed_solve

    out = Path(args.out)
    run_argv = ["run", "--preset", args.preset, "--scale", args.scale,
                "--steps", args.steps, "--out", str(out)]
    result = {"mode": args.mode}
    if cal is not None:
        cal.checkpoint()
    t0 = time.perf_counter()
    try:
        rc_run = run_main(run_argv)
    except _SetupDone:
        rc_run = None
    t1 = time.perf_counter()
    result["rc_run"] = rc_run
    if seg_start is not None:
        segments.append(timed(t1 - seg_start, force=True))
    if setup:
        result["setup_s"] = setup[0][0]
        result["run_s"] = sum(s for s, _ in segments)

    if args.mode != "probe":
        for _ in range(args.audits):
            err = io.StringIO()
            t = time.perf_counter()
            with contextlib.redirect_stderr(err):
                rc_check = check_main(["check-energy", str(out)])
            audits.append(timed(time.perf_counter() - t))
        if cal is not None:
            cal.checkpoint(force=True)
        result.update(
            rc_check=rc_check,
            check_stderr=err.getvalue(),
            audit_s=[s for s, _ in audits],
            digest=output_digest(out),
        )

    if cal is not None:
        cal.ref.close()
        result["ref_s"] = cal.refs
        result["scaled"] = {
            "setup_s": cal.scaled(setup[0][1]) if setup else None,
            "run_s": sum(cal.scaled(k) for _, k in segments),
            "audit_s": [cal.scaled(k) for _, k in audits],
        }

    if tracer is not None:
        tracer.uninstall()
        info = json.loads((out / "run.json").read_text())
        result["layers"] = tr.layer_metrics(
            tracer.spans,
            {
                "accepted_steps": info["accepted_steps"],
                "back_steps": len(info["backtrack_events"]),
                "accepted_alternations": info["solver_counters"]["alternations"],
            },
        )
        result["missing_targets"] = tracer.missing

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
