"""Benchmark workloads and the correctness gate applied to every job.

A workload is one shipped preset at one resolution, run with its shipped
defaults.  Only the number of load steps can be cut short (``steps``).
The load is w(n) = n * dw whatever the program length, but a truncated
program has no later steps to fail the energy check and send the driver
back, so its last steps can differ from those of the full program: each
workload's bands are recorded from its own program.  The presets are
deterministic, so no seed changes the inputs.

The gate reads what a job left in its output directory:

- ``pffrac run`` exits 0 (completed) or 3 (aborted; the steps it never
  accepted count as failed), ``check-energy`` exits 0 or 1 (steps whose
  two-sided inequality fails count as failed); any other code fails the job;
- ``check-energy`` finds no mismatch between energy.csv and its recomputation;
- the peak reaction and its step lie in the band recorded from measured
  runs, when the run got past that band or to the end of its program;
- the per-step reactions match the recorded values.

A job that fails the gate counts all of its program steps as failed.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    scale: float
    steps: int  # program steps this workload runs
    job_s: float  # nominal wall time of one job; sets the job count of a run
    audits: int  # check-energy calls per job, 4 to 8 s of audits
    probes: int  # set-up probes of an untraced run
    why: str
    peak: tuple | None = None  # (reaction N, rel. tolerance, step, step tolerance)
    reactions: tuple | None = None  # recorded reaction of steps 1, 2, ...
    timed: bool = True  # fits the per-run time limit; listed in BENCHMARK.json


# Measured with numpy 2.4.6 / scipy 1.17.1.  The bands allow the 1% a
# solver change may move the curve within its tolerances.  The full sent@0.1
# program peaks at 1024.136 N at step 74 (100 steps, 124 solves, 12 back
# steps); cut at step 76, nothing sends the driver back from step 77, and
# step 76 keeps its first solution, 1027.074 N, the largest of the cut
# program (step 75 dips to 1011.5 N as the crack starts).

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sent-crack",
            preset="sent",
            scale=0.1,
            steps=76,
            job_s=25.0,
            audits=40,
            probes=4,
            why=(
                "sent@0.1 cut at step 76: load rises to 1027 N while the crack starts (147 and 98 "
                "alternations in one solve); AM, line search and small-array kernels dominate"
            ),
            peak=(1027.0738484986748, 0.01, 76, 2),
        ),
        Workload(
            name="bend3d-elastic",
            preset="bend3d",
            scale=0.2,
            steps=2,
            job_s=20.0,
            audits=4,
            probes=2,
            why=(
                "bend3d@0.2, 2 pre-crack steps on 14.7k dofs: factorisation and 3-D assembly "
                "dominate, at most 2 alternations a step, largest set-up and audit"
            ),
            reactions=(15.372764651119052, 31.812083507711979),
        ),
        Workload(
            name="sent-crack-full",
            preset="sent",
            scale=0.1,
            steps=100,
            job_s=100.0,
            audits=24,
            probes=2,
            why="the full sent@0.1 program with its 12 back steps; about 90 s a job, too long for a timed run",
            peak=(1024.1360618063482, 0.01, 74, 1),
            timed=False,
        ),
        Workload(
            name="sent-fine",
            preset="sent",
            scale=0.2,
            steps=100,
            job_s=90.0,
            audits=16,
            probes=2,
            why="the full sent@0.2 program, which aborts at step 64 (failure path); about 80 s a job",
            timed=False,
        ),
    )
}

# Per-step reactions may move this much when a solver change moves the
# converged state within the solver tolerances.
REACTION_RTOL = 1e-4
RUN_EXIT_OK = (0, 3)
CHECK_EXIT_OK = (0, 1)
_FAILING_STEPS = re.compile(r"two-sided inequality fails at steps: ([\d, ]+)")


def read_reactions(out_dir: Path) -> list:
    """(step, reaction) rows of load_disp.csv, step 0 included."""
    with open(out_dir / "load_disp.csv") as fh:
        return [(int(r["step"]), float(r["reaction"])) for r in csv.DictReader(fh)]


def gate(w: Workload, out_dir: Path, rc_run: int, rc_check: int, check_stderr: str):
    """Return (failed steps, list of gate violations) for one job."""
    problems = []
    if rc_run not in RUN_EXIT_OK:
        problems.append(f"run exit {rc_run}")
    if rc_check not in CHECK_EXIT_OK:
        problems.append(f"check-energy exit {rc_check}")
    if problems:
        return w.steps, problems

    info = json.loads((out_dir / "run.json").read_text())
    accepted = info["accepted_steps"]
    if (rc_run == 3) != bool(info["aborted"]):
        problems.append(f"run exit {rc_run} but run.json aborted={info['aborted']}")
    audit_failed = set()
    if rc_check == 1:
        m = _FAILING_STEPS.search(check_stderr)
        if m is None:
            first = (check_stderr.strip().splitlines() or ["no message"])[0]
            problems.append("check-energy mismatch: " + first)
        else:
            audit_failed = {int(s) for s in m.group(1).split(",")}

    rows = read_reactions(out_dir)
    if len(rows) != accepted + 1:
        problems.append(f"load_disp.csv has {len(rows) - 1} steps, run.json {accepted}")
    if w.peak is not None and accepted >= min(w.peak[2] + w.peak[3], w.steps):
        want, rtol, step, step_tol = w.peak
        got_step, got = max(rows, key=lambda r: r[1])
        if abs(got - want) > rtol * want or abs(got_step - step) > step_tol:
            problems.append(f"peak {got!r} N at step {got_step}, recorded {want!r} N at step {step}")
    if w.reactions is not None:
        for (step, got), want in zip(rows[1:], w.reactions):
            if abs(got - want) > REACTION_RTOL * abs(want):
                problems.append(f"reaction {got!r} at step {step}, recorded {want!r}")

    if problems:
        return w.steps, problems
    return (w.steps - accepted) + len(audit_failed), []
