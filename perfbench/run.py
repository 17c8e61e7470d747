"""Benchmark of the pffrac command line: one closed-loop client, one job at a time.

    python3 perfbench/run.py --workload sent-crack --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; the program is imported from ./src.
A job is ``pffrac run`` on a shipped preset followed by ``pffrac
check-energy`` on its output directory, both in a fresh child process
(perfbench/job.py), so that each job's peak RSS is its own.  The presets
are deterministic: ``--seed`` names the run and changes no input.

``--trace 0`` measures the end-to-end metrics over a fixed number of
set-up probes and jobs: the workload's probes, and as many of its
nominal job length as fit in ``--seconds`` (at least one).  No sample
count depends on how fast the code runs, so two commits are measured with
the same estimator over the same samples.  On a shared host the same code
runs at speeds up to about 1.9x apart, in phases of seconds to minutes,
so every timed interval is scaled to a nominal host speed by the host
speed references taken just before and after it (perfbench/calibrate.py):

- ``setup_s``: from the ``run`` call to the first load step (mesh, preset
  build, kernels, dof map, step-0 snapshot); median over the set-ups of
  the run: the probes (``run`` stopped at the first load step, each in a
  fresh process) and the jobs;
- ``run_s``: from the first load step to the end of ``run`` (snapshots
  and CSV output included, references left out); median over the jobs;
  missing when a job aborted;
- ``audit_s``: wall time of ``check-energy`` on a job's output, the read
  path; median over the workload's fixed number of audits per job;
- ``peak_rss_mb``: peak resident set of a job's process (the references
  run in a helper process and do not count); median over jobs.

``attempted`` and ``failed`` count load steps: a step fails when the run
never accepted it, when the energy audit rejects it, or when its job fails
the correctness gate (perfbench/workloads.py).

``--trace 1`` runs one untraced job and two traced jobs and reports the
per-layer metrics of the first traced job (perfbench/tracing.py), the
tracing overhead, and ``determinism.count_drift``: how many of the
deterministic counts differ between the two traced jobs.  A run whose
traced jobs drift is not correct.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and each job.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from job import THREAD_VARS, pin_threads  # noqa: E402
from tracing import DETERMINISTIC_COUNTS, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, gate  # noqa: E402

MIN_JOBS = 1
# A run of a timed workload must end within 180 s; a job still running at
# this point is stopped and fails.
DEADLINE_S = 165.0


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


class Runner:
    """Starts jobs of one workload under a common deadline."""

    def __init__(self, workload, work_dir: Path, t_start: float):
        self.w = workload
        self.work = work_dir
        self.t_start = t_start
        self.n = 0

    def remaining(self) -> float:
        if not self.w.timed:
            return float("inf")
        return DEADLINE_S - (time.perf_counter() - self.t_start)

    def job(self, mode: str, audits: int = 1):
        """Run one job and gate its output."""
        self.n += 1
        out = self.work / f"{mode}-{self.n}"
        cmd = [
            sys.executable, str(HERE / "job.py"), "--mode", mode, "--src", "src",
            "--preset", self.w.preset, "--scale", repr(self.w.scale),
            "--steps", str(self.w.steps), "--out", str(out), "--audits", str(audits),
        ]
        remaining = self.remaining()
        t = time.perf_counter()
        # its own process group, so that a job stopped at the deadline is
        # stopped with its host speed helper
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            stdout, err = proc.communicate(timeout=None if remaining == float("inf") else max(1.0, remaining))
            lines = stdout.strip().splitlines()
            res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            res, err = None, f"timed out after {exc.timeout:.0f} s"
        wall = time.perf_counter() - t
        if res is None:
            sys.stderr.write(f"job {mode}-{self.n} failed:\n{err[-2000:]}\n")
            res = {"mode": mode, "crashed": True}
        res["wall_s"] = wall
        if res.get("crashed"):
            failed, problems = self.w.steps, ["job did not finish"]
        elif mode == "probe":
            ok = res["rc_run"] is None and "setup_s" in res
            failed, problems = 0, [] if ok else [f"probe ended with exit {res['rc_run']} before the first step"]
        else:
            failed, problems = gate(self.w, out, res["rc_run"], res["rc_check"], res["check_stderr"])
        res["failed_steps"] = failed
        res["problems"] = problems
        for p in problems:
            sys.stderr.write(f"gate: {self.w.name} {mode}-{self.n}: {p}\n")
        shutil.rmtree(out, ignore_errors=True)
        return res


def job_count(w, seconds: float) -> int:
    """Jobs of an untraced run: as many nominal jobs of the workload as fit
    in ``--seconds``, never set by the measured speed."""
    return max(MIN_JOBS, int(seconds // w.job_s))


def measure_untraced(r: Runner, seconds: float):
    probes = [r.job("probe") for _ in range(r.w.probes)]
    jobs = [r.job("run", r.w.audits) for _ in range(job_count(r.w, seconds))]
    done = [j for j in jobs if not j.get("crashed")]
    completed = [j for j in done if j["rc_run"] == 0]
    setups = [j["scaled"]["setup_s"] for j in probes + done if not j.get("crashed")]
    values = (
        ("setup_s", "s", [s for s in setups if s is not None]),
        # an aborted job has no run time: run_s is missing, not its time to abort
        ("run_s", "s", [j["scaled"]["run_s"] for j in completed] if len(completed) == len(jobs) else []),
        ("audit_s", "s", [a for j in done for a in j["scaled"]["audit_s"]]),
        ("peak_rss_mb", "MB", [j["peak_rss_mb"] for j in done]),
    )
    metrics = {name: {"value": median(xs), "unit": unit} for name, unit, xs in values if xs}
    return probes + jobs, metrics, True


def measure_traced(r: Runner):
    plain = r.job("run")
    first = r.job("trace")
    second = r.job("trace")
    jobs = [plain, first, second]
    if first.get("crashed"):
        return jobs, {}, False

    layers = dict(first["layers"])
    if plain.get("rc_run") == 0 and first["rc_run"] == 0:
        untraced_run = plain["run_s"]
        layers["trace.untraced_run_s"] = untraced_run
        layers["trace.overhead_s"] = layers["trace.run_s"] - untraced_run
        layers["trace.overhead_frac"] = layers["trace.overhead_s"] / untraced_run
    steady = False
    if not second.get("crashed"):
        drift = [k for k in DETERMINISTIC_COUNTS if first["layers"][k] != second["layers"][k]]
        for k in drift:
            sys.stderr.write(f"nondeterminism: {k} = {first['layers'][k]} then {second['layers'][k]}\n")
        layers["determinism.count_drift"] = len(drift)
        steady = not drift
    if first["missing_targets"]:
        sys.stderr.write("trace targets missing: " + ", ".join(first["missing_targets"]) + "\n")
    metrics = {k: {"value": layers[k], "unit": unit} for k, (unit, *_) in LAYER_METRICS.items() if k in layers}
    return jobs, metrics, steady


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not Path("src/pffrac/cli.py").is_file():
        print("no program: run from the root of a checkout holding src/pffrac", file=sys.stderr)
        return 2
    pin_threads()

    t_start = time.perf_counter()
    w = WORKLOADS[args.workload]
    work = HERE / "_work" / f"{w.name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(w, work, t_start)
    try:
        if args.trace:
            jobs, metrics, steady = measure_traced(runner)
        else:
            jobs, metrics, steady = measure_untraced(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print("# env " + json.dumps(environment()))
    print("# workload " + json.dumps({"name": w.name, "preset": w.preset, "scale": w.scale,
                                      "steps": w.steps, "seed": args.seed, "trace": args.trace}))
    for j in jobs:
        rec = {k: v for k, v in j.items() if k not in ("layers", "check_stderr", "digest")}
        print("# job " + json.dumps(rec))

    measured = [j for j in jobs if j["mode"] != "probe"]
    digests = {j["digest"] for j in measured if not j.get("crashed")}
    if len(digests) > 1:
        sys.stderr.write("nondeterminism: job outputs differ between jobs of one run\n")
    correct = (
        steady
        and len(digests) == 1
        and all(not j["problems"] for j in jobs)
    )
    print(json.dumps({
        "correct": bool(correct),
        "attempted": w.steps * len(measured),
        "failed": sum(j["failed_steps"] for j in measured),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
