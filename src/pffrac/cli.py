"""Command-line entry point: run simulations and audit their energies.

Subcommands
-----------
run          execute a preset's load program, writing load_disp.csv (w
             and the reaction, the force conjugate to w, of every accepted
             step), energy.csv, intermediates.csv (the solves of back-step
             rounds), run.json and the legacy VTK BINARY snapshots of the
             accepted steps (``vtkio``), all read from the driver's solve
             records; run.json sums the iteration and line-search trial
             counts over the accepted chain (solver_counters) and over
             every solve (all_solves).  One writer owns the CSVs and
             snapshots: it creates each CSV with its header, appends each
             row once (cutting a file back to the first row a back step
             replaced) and prunes the snapshots at every acceptance, so
             they always hold the accepted chain (an aborted run's as its
             last acceptance left it)
check-energy recompute the energy audit from the snapshots of a finished
             (or partial) run, the two-sided inequality of every step pair,
             and compare against energy.csv, whose step-0 row must be the
             initial state's report (all 0, passed); a figure that is not
             finite is a mismatch.  Each snapshot must be the bytes that
             a run of run.json's config writes of its mesh (``vtkio``),
             field blocks aside, and snapshots/ must hold no snapshot
             (``step_``, digits, ``.vtk``) of a step outside the accepted
             chain, and each CSV must start with its header and hold rows
             of its fields: load_disp.csv energy.csv's steps with finite
             reactions, and intermediates.csv steps in 1..program.n_steps,
             b in 0..backtrack.k_back, passed flags of 0 or 1 and finite
             figures, and run.json's counters must be integers
             >= 0, each over all solves at least its count over the
             accepted chain; anything else is unreadable output.  A w
             in load_disp.csv or intermediates.csv other than its step's
             is a mismatch (their other figures are not recomputed).
             The summary of an aborted run gives its accepted steps and
             the abort reason

A run is a preset plus overrides.  ``--set section.key=value`` overrides
one key of the preset's config.  [run] holds ``preset`` and ``scale``;
each other section's keys are the scalar fields, with their names and
units, of the part of the run setup it sets: [material] of
``material.MaterialParams`` (moduli ``lam`` and ``mu`` in N/mm^2),
[program] of ``driver.LoadProgram`` (``n_steps`` and ``dw``; its Dirichlet
specs are the preset's), [solver] of ``solver.SolverConfig`` and
[backtrack] of ``driver.BacktrackConfig``.  A section or key that no run
reads is a config error, and so is a value that does not parse or a float
that is not finite (named by its key) or a value outside its range (named
by its key and value).  ``--preset``, ``--scale``, ``--steps``,
``--k-back`` and ``--eta`` are the overrides ``run.preset``,
``run.scale``, ``program.n_steps``, ``backtrack.k_back`` and
``backtrack.eta``, applied before the ``--set`` items.  The reaction a run
records is the force conjugate to w, which the program's Dirichlet specs
define.  run.json records the resolved config, which check-energy reads
back: a run.json written under other config keys (``material.lam_kn`` of
older versions) is refused, naming its first unknown key, and so is a
malformed run.json (not an object, a config that is not sections of
string values, accepted_steps that is not an integer).  Exit codes: 0 ok,
1 audit mismatch, 2 bad config, run outputs that cannot be written or run
outputs that cannot be read (a malformed run.json too), 3 solver failure
(partial outputs retained).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

from . import presets
from .driver import RunHistory, build_dofmap, run
from .energetics import INITIAL_REPORT, StateEnergy, check_two_sided, dis_from_beta, erg, grad_term
from .fem import beta_at_qp, build_kernels, weights_from_beta
from .vtkio import grid_text, read_field_snapshot, write_field_snapshot

__all__ = ["main", "cmd_run", "cmd_check_energy", "config_from_setup", "resolve_config"]

# Relative tolerance of check-energy between a recorded and a recomputed figure.
_AUDIT_RTOL = 1e-10
# The run-setup part that each config section past [run] sets.
_SECTIONS = {"material": "params", "program": "program", "solver": "solver", "backtrack": "backtrack"}


def _fmt(x: float) -> str:
    return "%.17g" % x


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def _finite(value: str) -> float:
    """The float a config value gives, which must be finite."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{value.strip()!r} is not a finite number")
    return x


# The parser of a config value, by the annotation of its field; a field of
# another type (the program's Dirichlet specs) is no config key.
_PARSERS = {"float": _finite, "float | None": _finite, "int": int, "str": str.strip}


def _keys(part) -> dict:
    """The config keys of a run-setup part, its scalar fields, each with its
    parser."""
    return {f.name: _PARSERS[f.type] for f in dataclasses.fields(part) if f.type in _PARSERS}


def config_from_setup(setup: presets.RunSetup) -> dict:
    """Serialize a run setup to the nested dict of config strings (floats
    as ``%.17g``; a field that is None is left out)."""
    cfg = {"run": {"preset": setup.name, "scale": _fmt(setup.scale)}}
    for section, attr in _SECTIONS.items():
        part = getattr(setup, attr)
        cfg[section] = {
            key: _fmt(value) if isinstance(value, float) else str(value)
            for key in _keys(part)
            if (value := getattr(part, key)) is not None
        }
    return cfg


def _parse(key: str, value: str, kind):
    """``kind(value)``, with the config key named in a value error."""
    try:
        return kind(value)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _build(section: str, make, *args, **kw):
    """``make(*args, **kw)``, with the config section named in a range error
    (which names its field)."""
    try:
        return make(*args, **kw)
    except ValueError as exc:
        raise ValueError(f"{section}.{exc}") from None


def resolve_config(given: dict) -> tuple[dict, presets.RunSetup]:
    """Lay the keys of ``given`` over its preset's config and parse them.

    The base is the run setup of the preset that ``run.preset`` names, at
    ``run.scale`` (1 if not given).  Each other section's keys are the
    scalar fields of the part it sets, and each given value is parsed by
    its field's annotation into a copy of the base part.  A missing
    ``run.preset``, a section or key that no run reads, a value that does
    not parse or a float that is not finite (named by its key), a value
    outside its range (named by its key and value, ``program.dw`` = 0 too) is
    a config error, raised before any output exists.
    Returns the preset's config with the given keys laid over it, and the
    run setup.
    """
    run_sec = given.get("run", {})
    preset = run_sec.get("preset", "").strip()
    if not preset:
        raise ValueError("missing config key run.preset")
    scale = _parse("run.scale", run_sec.get("scale", "1"), _finite)
    base = _build("run", presets.load_preset, preset, scale)
    cfg = config_from_setup(base)
    parts = {}
    for section, values in given.items():
        if section not in cfg:
            raise ValueError(f"unknown config section [{section}]")
        part = getattr(base, _SECTIONS[section]) if section in _SECTIONS else None
        keys = cfg["run"] if part is None else _keys(part)
        unknown = sorted(set(values) - set(keys))
        if unknown:
            raise ValueError("unknown config key " + ", ".join(f"{section}.{k}" for k in unknown))
        if part is not None:
            kw = {key: _parse(f"{section}.{key}", value, keys[key]) for key, value in values.items()}
            parts[_SECTIONS[section]] = _build(section, dataclasses.replace, part, **kw)
        cfg[section].update(values)
    return cfg, dataclasses.replace(base, **parts)


def _apply_overrides(cfg: dict, overrides) -> dict:
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ValueError(f"bad --set {item!r} (want section.key=value)")
        key, value = item.split("=", 1)
        section, name = key.split(".", 1)
        cfg.setdefault(section.strip(), {})[name.strip()] = value.strip()
    return cfg


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def _snapshot_name(step: int) -> str:
    """The name of the snapshot a run writes of its accepted step ``step``."""
    return f"step_{step:06d}.vtk"


def _snapshot_path(out_dir: Path, step: int) -> str:
    return f"{out_dir}/snapshots/{_snapshot_name(step)}"


def _snapshots(out_dir: Path) -> list:
    """The snapshots in ``out_dir``: the files of ``snapshots/`` named
    ``step_``, digits and ``.vtk``.  Any other file is no snapshot."""
    paths = (out_dir / "snapshots").glob("step_*.vtk")
    return [path for path in paths if (step := path.stem[5:]).isascii() and step.isdigit()]


# The figures of an energy.csv row, between its step and its passed flag.
_ENERGY_FIGURES = ("E", "sum_D", "delta", "LB", "UB")


def _flag(field: str) -> bool:
    """A passed flag, 0 or 1; anything else is a ValueError."""
    if field.strip() not in ("0", "1"):
        raise ValueError(f"passed flag {field!r}, not 0 or 1")
    return field.strip() == "1"


# The columns of the run's CSVs, by file, each with the parser of its field:
# the writer creates each file with their header, and check-energy parses
# each row with them.  intermediates.csv's first column is each solve's step.
_CSV_COLUMNS = {
    "load_disp.csv": {"step": int, "w": float, "reaction": _finite},
    "energy.csv": {"step": int, **dict.fromkeys(_ENERGY_FIGURES, float), "passed": _flag},
    "intermediates.csv": {"target_step": int, "w": _finite, "b": int, "passed": _flag}
    | dict.fromkeys(("delta", "LB", "UB", "reaction"), _finite),
}


def _energy_figures(report, sum_d: float) -> tuple:
    """The ``_ENERGY_FIGURES`` of a step: its report's and the running sum
    of D through it."""
    return (report.e_next, sum_d, report.delta, report.lb, report.ub)


class _RunWriter:
    """The one writer of a run's CSVs and snapshots.  It clears an earlier
    run's snapshots and creates each CSV with its header when made, and is
    the run's ``on_accept``: each call, first with the initial history and
    then after every acceptance, appends the rows of the records new to the
    accepted chain and of the round solves logged since, and writes the
    last step's snapshot, so that they always hold the accepted chain.  A
    back step replaces accepted rows: the writer cuts their files at the
    first of them and unlinks the snapshots of the dropped steps past the
    new chain's end.  An unchanged chain gets no snapshot.

    Each row is formatted and written once: the writer keeps, per record of
    the chain, the record and the running sum of D through it, and per CSV
    the end offsets of its header and rows.  ``grid`` is the bytes that
    every snapshot starts with (``vtkio.grid_text``: header, points and
    cells), formatted once per run, so a snapshot adds only its two
    big-endian field blocks."""

    def __init__(self, out_dir: Path, mesh, program):
        self.out = out_dir
        self.mesh = mesh
        self.program = program
        self.grid = grid_text(mesh)
        self.chain: list = []  # (record, sum_D through it)
        (out_dir / "snapshots").mkdir(parents=True, exist_ok=True)
        for path in _snapshots(out_dir):  # an earlier run's
            path.unlink()
        self.ends = {}
        for name, columns in _CSV_COLUMNS.items():
            with open(out_dir / name, "w") as fh:
                self.ends[name] = [fh.write(",".join(columns) + "\n")]

    def __call__(self, history: RunHistory) -> None:
        keep = 0
        for rec, (kept, _) in zip(history.steps, self.chain):
            if rec is not kept:
                break
            keep += 1
        for rec, _ in self.chain[keep:]:
            if rec.step > history.n_accepted:
                Path(_snapshot_path(self.out, rec.step)).unlink()
        del self.chain[keep:]
        w = self.program.w
        sum_d = self.chain[-1][1] if self.chain else 0.0
        loads, energies = [], []
        for rec in history.steps[keep:]:
            r = rec.report
            sum_d += r.d_inc
            self.chain.append((rec, sum_d))
            loads.append(f"{rec.step},{_fmt(w(rec.step))},{_fmt(rec.reaction)}\n")
            energies.append(f"{rec.step},{','.join(map(_fmt, _energy_figures(r, sum_d)))},{int(r.passed)}\n")
        done = len(self.ends["intermediates.csv"]) - 1  # the round solves written; none is replaced
        rounds = [
            f"{rec.step},{_fmt(w(rec.step))},{rec.b},{int(rec.report.passed)},{_fmt(rec.report.delta)},"
            f"{_fmt(rec.report.lb)},{_fmt(rec.report.ub)},{_fmt(rec.reaction)}\n"
            for rec in history.intermediates[done:]
        ]
        files = [("load_disp.csv", loads, keep), ("energy.csv", energies, keep), ("intermediates.csv", rounds, done)]
        for name, rows, kept in files:
            ends = self.ends[name]
            with open(self.out / name, "a") as fh:
                if len(ends) > kept + 1:  # cut the replaced rows
                    del ends[kept + 1 :]
                    fh.truncate(ends[-1])
                for row in rows:
                    ends.append(ends[-1] + fh.write(row))
        if keep < len(history.steps):
            rec = history.steps[-1]
            write_field_snapshot(rec.u + rec.u_d, rec.a, self.mesh, _snapshot_path(self.out, rec.step), self.grid)


# run.json's counter keys, each with the solve record field it sums.
_COUNTERS = {
    "alternations": "alt_iters",
    "newton_u": "newton_iters_u",
    "newton_beta": "newton_iters_beta",
    "trials_u": "trials_u",
    "trials_beta": "trials_beta",
}


def _counters(records) -> dict:
    """Alternations, Newton iterations and line-search trial merits summed
    over ``records``."""
    return {key: sum(getattr(r, field) for r in records) for key, field in _COUNTERS.items()}


def _write_run_json(out_dir: Path, cfg: dict, history: RunHistory, elapsed: float) -> None:
    payload = {
        "config": cfg,
        "accepted_steps": history.n_accepted,
        "aborted": history.aborted,
        "abort_reason": history.abort_reason,
        "backtrack_events": [
            {"failed_step": r.round_of, "resolved_step": r.step, "b": r.b} for r in history.backtracks
        ],
        "k_exhausted_steps": history.k_exhausted_steps,
        "irreversibility_steps": history.irreversibility_steps,
        "solver_counters": _counters(history.steps),
        "all_solves": {"solves": len(history.solves), **_counters(history.solves)},
        "elapsed_s": elapsed,
    }
    with open(out_dir / "run.json", "w") as fh:
        json.dump(payload, fh, indent=2)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def run_to_dir(cfg: dict, out_dir) -> RunHistory:
    """Execute a config into an output directory, writing all run artifacts;
    returns the in-memory history (also used by the acceptance suite).  A
    config error is raised before the directory is created, and run.json
    records the resolved config.  ``_RunWriter`` owns the directory: it
    writes the CSVs and the snapshots, from step 0 on and once more after
    the run (for the round solves of an aborted round), so that at every
    acceptance and after the run ``snapshots/`` holds the accepted steps'
    snapshots only, whatever the directory held before:
    ``step_NNNNNN.vtk`` in legacy VTK BINARY, whose raw doubles
    ``check-energy`` reads back bit for bit.  A snapshot of an earlier
    version, in ASCII, is refused by that audit."""
    cfg, setup = resolve_config(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    writer = _RunWriter(out_dir, setup.mesh, setup.program)

    t0 = time.perf_counter()
    history = run(
        setup.program,
        setup.backtrack,
        setup.solver,
        setup.params,
        setup.mesh,
        on_accept=writer,
    )
    elapsed = time.perf_counter() - t0

    writer(history)
    _write_run_json(out_dir, cfg, history, elapsed)
    return history


def cmd_run(args) -> int:
    # each flag is stored under the config key it overrides
    flags = [f"{key}={value}" for key, value in vars(args).items() if "." in key and value is not None]
    try:
        history = run_to_dir(_apply_overrides({}, flags + (args.set or [])), args.out)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write run outputs: {exc}", file=sys.stderr)
        return 2

    if history.aborted:
        print(f"solver failure after {history.n_accepted} steps: {history.abort_reason}", file=sys.stderr)
        return 3
    print(
        f"{history.n_accepted} steps, "
        f"{len(history.backtracks)} back steps, "
        f"{len(history.k_exhausted_steps)} steps with failed energy bounds "
        f"-> {args.out}"
    )
    return 0


def _rel_close(a: float, b: float) -> bool:
    """Whether two figures agree to ``_AUDIT_RTOL``; a figure that is not
    finite agrees with none."""
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= _AUDIT_RTOL * (1.0 + max(abs(a), abs(b)))


def _read_csv(out_dir: Path, name: str) -> list:
    """The rows of the run CSV ``name``, each a tuple of its fields parsed
    by their ``_CSV_COLUMNS``.  A file that does not start with their
    header, a row of another field count and a field that does not parse
    are ValueErrors naming the file, and the row."""
    columns = _CSV_COLUMNS[name]
    header, *lines = (out_dir / name).read_text().strip().splitlines() or [""]
    if header != ",".join(columns):
        raise ValueError(f"{name} does not start with the header {','.join(columns)!r}")
    rows = []
    for line in lines:
        fields = line.split(",")
        try:
            if len(fields) != len(columns):
                raise ValueError(f"{len(fields)} fields, not {len(columns)}")
            rows.append(tuple(parse(field) for parse, field in zip(columns.values(), fields)))
        except ValueError as exc:
            raise ValueError(f"{name} row {line!r}: {exc}") from None
    return rows


def _read_run_json(path: Path) -> dict:
    """The record in run.json, an object whose ``config`` maps each section
    to an object of string values, whose ``accepted_steps`` is an integer,
    ``aborted`` a boolean and ``abort_reason`` a string, and whose
    ``solver_counters`` and ``all_solves`` hold each ``_COUNTERS`` key, and
    ``all_solves`` also ``solves``, as an integer >= 0.  Every accepted
    step is a solve, so each ``all_solves`` count is at least its
    ``solver_counters`` count and ``solves`` at least ``accepted_steps``.
    Any other shape is a ValueError."""
    with open(path) as fh:
        info = json.load(fh)
    if not isinstance(info, dict):
        raise ValueError(f"run.json holds a {type(info).__name__}, not an object")
    cfg = info["config"]
    if not isinstance(cfg, dict):
        raise ValueError(f"run.json config is a {type(cfg).__name__}, not an object of sections")
    for section, values in cfg.items():
        if not isinstance(values, dict):
            raise ValueError(f"run.json config section [{section}] is a {type(values).__name__}, not an object")
        for key, value in values.items():
            if not isinstance(value, str):
                raise ValueError(f"run.json config key {section}.{key} = {value!r} is not a string")
    kinds = {int: "an integer", bool: "a boolean", str: "a string"}
    for key, kind in [("accepted_steps", int), ("aborted", bool), ("abort_reason", str)]:
        if type(info[key]) is not kind:
            raise ValueError(f"run.json {key} = {info[key]!r} is not {kinds[kind]}")
    accepted, every = info["solver_counters"], info["all_solves"]
    for name, counts, keys in [("solver_counters", accepted, _COUNTERS), ("all_solves", every, ["solves", *_COUNTERS])]:
        if not isinstance(counts, dict):
            raise ValueError(f"run.json {name} is a {type(counts).__name__}, not an object")
        for key in keys:
            if key not in counts:
                raise ValueError(f"run.json {name} has no {key}")
            if type(counts[key]) is not int or counts[key] < 0:
                raise ValueError(f"run.json {name}.{key} = {counts[key]!r} is not an integer >= 0")
    for key, least in [("solves", info["accepted_steps"]), *((key, accepted[key]) for key in _COUNTERS)]:
        if every[key] < least:
            raise ValueError(f"run.json all_solves.{key} = {every[key]} is fewer than the accepted chain's {least}")
    return info


def cmd_check_energy(args) -> int:
    out_dir = Path(args.dir)
    try:
        info = _read_run_json(out_dir / "run.json")
        abort = ""
        if info["aborted"]:
            abort = f"; the run aborted after {info['accepted_steps']} accepted steps: {info['abort_reason']}"
        _, setup = resolve_config(info["config"])
        rows = _read_csv(out_dir, "energy.csv")
        steps = [row[0] for row in rows]
        if steps != list(range(info["accepted_steps"] + 1)):
            raise ValueError(f"energy.csv holds steps {steps}, not 0..{info['accepted_steps']} as run.json")
        loads = _read_csv(out_dir, "load_disp.csv")
        if [row[0] for row in loads] != steps:
            raise ValueError(f"load_disp.csv holds steps {[row[0] for row in loads]}, not energy.csv's 0..{steps[-1]}")
        if info["accepted_steps"] > setup.program.n_steps:
            raise ValueError(
                f"run.json has {info['accepted_steps']} accepted steps, more than program.n_steps = "
                f"{setup.program.n_steps}"
            )
        solves = _read_csv(out_dir, "intermediates.csv")
        n, k_back = setup.program.n_steps, setup.backtrack.k_back
        for step, _, b, *_ in solves:
            if not (1 <= step <= n and 0 <= b <= k_back):
                raise ValueError(f"intermediates.csv holds a solve of step {step}, b = {b}: not in 1..{n}, 0..{k_back}")
        names = set(map(_snapshot_name, steps))
        outside = sorted(path for path in _snapshots(out_dir) if path.name not in names)
        if outside:
            raise ValueError(f"snapshot {outside[0]} is not one the run writes of its steps 0..{info['accepted_steps']}")
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"cannot load run outputs: {exc}", file=sys.stderr)
        return 2

    mesh = setup.mesh
    kernels = build_kernels(mesh)
    p = setup.params
    load = build_dofmap(mesh, setup.program).load
    grid = grid_text(mesh)

    def state(step: int) -> StateEnergy:
        """The evaluated state of the snapshot of ``step``."""
        disp, a = read_field_snapshot(_snapshot_path(out_dir, step), mesh, grid)
        u_d = setup.program.w(step) * load
        u = disp - u_d
        beta = beta_at_qp(kernels, a)  # once, for the weights and the dissipation
        rw, dissipation = weights_from_beta(kernels, beta, p), dis_from_beta(beta, kernels, p)
        del beta  # not held through the strain spectrum's arrays
        return StateEnergy(u, u_d, rw, erg(u, u_d, rw, kernels, p), grad_term(a, kernels, p), dissipation)

    failing = []
    w = setup.program.w
    mismatches = [f"step {step}: w csv={got!r} program={w(step)!r}" for step, got, _ in loads if got != w(step)]
    mismatches += [
        f"intermediates.csv step {step}: w csv={got!r} program={w(step)!r}" for step, got, *_ in solves if got != w(step)
    ]
    sum_d = 0.0
    try:
        prev = state(0)
        report = INITIAL_REPORT  # row 0's, the initial state's
        for step, *figures, passed_csv in rows:
            if step > 0:
                curr = state(step)
                report = check_two_sided(prev, curr, kernels, p, setup.backtrack.eta)
                prev = curr
            sum_d += report.d_inc
            for name, got, want in zip(_ENERGY_FIGURES, figures, _energy_figures(report, sum_d)):
                if not _rel_close(got, want):
                    mismatches.append(f"step {step}: {name} csv={got!r} recomputed={want!r}")
            if passed_csv != report.passed:
                mismatches.append(f"step {step}: passed flag csv={passed_csv} recomputed={report.passed}")
            if not report.passed:
                failing.append(step)
    except (OSError, ValueError) as exc:
        print(f"cannot load run outputs: {exc}", file=sys.stderr)
        return 2

    if mismatches:
        for line in mismatches:
            print(line, file=sys.stderr)
        return 1
    if failing:
        print("two-sided inequality fails at steps: " + ", ".join(map(str, failing)), file=sys.stderr)
        return 1
    print(f"energy audit ok ({len(rows) - 1} steps){abort}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pffrac", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a load program")
    p_run.add_argument("--preset", dest="run.preset", choices=presets.PRESET_NAMES, help="run.preset")
    scale_help = "run.scale, in (0, 1] and 1 if not given; sens and bend3d fit the band budget at 0.3, not at 1"
    p_run.add_argument("--scale", dest="run.scale", metavar="SCALE", help=scale_help)
    p_run.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p_run.add_argument("--k-back", dest="backtrack.k_back", metavar="K", help="backtrack.k_back, the back-step budget")
    p_run.add_argument("--eta", dest="backtrack.eta", metavar="ETA", help="backtrack.eta, the energy tolerance")
    p_run.add_argument("--steps", dest="program.n_steps", metavar="N", help="program.n_steps")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_chk = sub.add_parser("check-energy", help="audit a run directory")
    p_chk.add_argument("dir")
    p_chk.set_defaults(func=cmd_check_energy)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
