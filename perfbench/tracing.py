"""Span tracing from outside the program, and the per-layer metrics built on it.

The tracer replaces a function under the exact name its caller looks up
(``pffrac.solver.factor_solve`` is what the Newton loop calls), so each call
becomes a span: name, parent span, start, end, the exception it raised if
any, and one optional number taken from its arguments once it has returned
(a size).  Spans stay in memory; self time is a span's duration minus the
time its child spans cover.  Nothing inside the program is edited.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from statistics import median

NAME, PARENT, T0, T1, ERR, SIZE = range(6)

TAIL_LEVELS = (90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


class Tracer:
    """In-memory span recorder with call wrapping and undo."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []
        self.missing: list = []

    def span(self, name: str, fn, size=None):
        """Return ``fn`` wrapped so that every call records a span."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERR] = type(exc).__name__
                raise
            finally:
                rec[T1] = clock()
                stack.pop()
            if size is not None:
                rec[SIZE] = size(args)
            return result

        return wrapper

    def install(self, targets) -> None:
        """Wrap each ``(module, attribute path, span name, size)`` target in
        place.  Targets the program no longer has are listed in ``missing``."""
        for module, path, name, size in targets:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{module}.{path}")
                continue
            setattr(owner, attr, self.span(name, original, size))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and
    do not overlap each other.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[T1] - s[T0]
    return [(s[T1] - s[T0]) - c for s, c in zip(spans, covered)]


def tail_percentile(samples):
    """(level, value) of the highest level in ``TAIL_LEVELS`` that leaves at
    least ``MIN_BEYOND`` samples strictly beyond its nearest-rank value.

    When no level qualifies, the tail is the median, at level 50.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return 50.0, 0.0
    best = (50.0, median(xs))
    for level in TAIL_LEVELS:
        rank = -(-round(level * 100) * n // 10000)  # ceil(level% of n), exact
        if n - rank >= MIN_BEYOND:
            best = (level, xs[rank - 1])
    return best


def _rows(args) -> int:
    """Leading dimension of the first argument: strain points, matrix size."""
    return int(args[0].shape[0])


# (module, attribute path, span name, size of the call).  Each entry is the
# name the *caller* resolves at call time, so the same program function
# reached through two callers gives two span names (line-search merits in
# the solver versus step audits in the driver).
TARGETS = (
    # set-up: preset build, mesh generation/validation, kernels
    ("pffrac.presets", "load_preset", "presets.load_preset", None),
    ("pffrac.presets", "generate_grid", "mesh.generate_grid", None),
    ("pffrac.mesh", "Mesh.validate", "mesh.validate", None),
    ("pffrac.driver", "build_kernels", "fem.build_kernels", None),
    ("pffrac.cli", "build_kernels", "fem.build_kernels", None),
    # load stepping
    ("pffrac.cli", "run", "driver.run", None),
    ("pffrac.cli", "_RunWriter.__call__", "cli.on_accept", None),
    ("pffrac.driver", "alternate_minimize", "solver.alternate_minimize", None),
    ("pffrac.driver", "check_two_sided", "energetics.audit", None),
    ("pffrac.driver", "dis", "energetics.audit", None),
    ("pffrac.driver", "reaction_force", "fem.reaction", None),
    # alternate minimisation and the two Newton solves
    ("pffrac.solver", "newton_u", "solver.newton_u", None),
    ("pffrac.solver", "newton_beta", "solver.newton_beta", None),
    ("pffrac.solver", "residual_and_tangent_u", "fem.tangent_u", None),
    ("pffrac.solver", "residual_and_tangent_beta", "fem.tangent_beta", None),
    ("pffrac.solver", "element_psi_split", "fem.psi", None),
    ("pffrac.solver", "factor_solve", "linsolve.factor_solve", None),
    ("pffrac.linsolve", "spla.splu", "linsolve.splu", _rows),
    ("pffrac.solver", "erg", "energetics.merit", None),
    ("pffrac.solver", "functional_from_psi", "energetics.merit", None),
    ("pffrac.solver", "total_functional", "energetics.trace", None),
    # constitutive split, from every caller
    ("pffrac.fem", "tangent_split", "material.tangent_split", _rows),
    ("pffrac.fem", "sigma_split", "material.sigma_split", _rows),
    ("pffrac.fem", "psi_split", "material.psi_split", _rows),
    ("pffrac.energetics", "psi_split", "material.psi_split", _rows),
    # energy audit and snapshot I/O
    ("pffrac.cli", "check_two_sided", "energetics.check", None),
    ("pffrac.cli", "write_field_snapshot", "vtkio.write", lambda args: os.path.getsize(args[3])),
    ("pffrac.cli", "read_field_snapshot", "vtkio.read", None),
)

# Root spans the job opens around the two CLI calls.
RUN_ROOT = "cli.run"
CHECK_ROOT = "cli.check_energy"

# Per-layer metric -> (unit, better, end-to-end metric it should move,
# workload where it should move most).  BENCHMARK.json lists the names,
# units and directions; this table keeps the predictions next to them.
LAYER_METRICS = {
    "presets.builds": ("count", "lower", "setup_s", "bend3d-elastic"),
    "presets.build_s": ("s", "lower", "setup_s", "bend3d-elastic"),
    "mesh.generate_grid_s": ("s", "lower", "setup_s", "bend3d-elastic"),
    "mesh.validate_s": ("s", "lower", "setup_s", "bend3d-elastic"),
    "fem.build_kernels_s": ("s", "lower", "setup_s", "bend3d-elastic"),
    "material.tangent_split_s": ("s", "lower", "run_s", "sent-crack"),
    "material.sigma_split_s": ("s", "lower", "run_s", "sent-crack"),
    "material.psi_split_s": ("s", "lower", "run_s", "sent-crack"),
    "material.points": ("count", "lower", "run_s", "sent-crack"),
    "fem.tangent_u.calls": ("count", "lower", "run_s", "sent-crack"),
    "fem.tangent_u.self_s": ("s", "lower", "run_s", "bend3d-elastic"),
    "fem.tangent_u.ms.p50": ("ms", "lower", "run_s", "bend3d-elastic"),
    "fem.tangent_u.ms.tail": ("ms", "lower", "run_s", "bend3d-elastic"),
    "fem.tangent_u.ms.tail_pct": ("%", "higher", "run_s", "bend3d-elastic"),
    "fem.tangent_beta.self_s": ("s", "lower", "run_s", "sent-crack"),
    "fem.psi_s": ("s", "lower", "run_s", "sent-crack"),
    "fem.reaction_s": ("s", "lower", "run_s", "bend3d-elastic"),
    "linsolve.factorizations": ("count", "lower", "run_s", "sent-crack"),
    "linsolve.factor_u_s": ("s", "lower", "run_s", "bend3d-elastic"),
    "linsolve.factor_beta_s": ("s", "lower", "run_s", "bend3d-elastic"),
    "linsolve.factor_ms.p50": ("ms", "lower", "run_s", "bend3d-elastic"),
    "linsolve.factor_ms.tail": ("ms", "lower", "peak_rss_mb", "bend3d-elastic"),
    "linsolve.factor_ms.tail_pct": ("%", "higher", "run_s", "bend3d-elastic"),
    "linsolve.factor_ms.n": ("count", "lower", "run_s", "sent-crack"),
    "linsolve.dofs_mean": ("count", "lower", "peak_rss_mb", "bend3d-elastic"),
    "linsolve.failures": ("count", "lower", "run_s", "sent-crack"),
    "solver.solves": ("count", "lower", "run_s", "sent-crack"),
    "solver.solve_failures": ("count", "lower", "run_s", "sent-crack"),
    "solver.alternations": ("count", "lower", "run_s", "sent-crack"),
    "solver.alt_useful_ratio": ("ratio", "higher", "run_s", "sent-crack"),
    "solver.newton_u_iters": ("count", "lower", "run_s", "sent-crack"),
    "solver.newton_beta_iters": ("count", "lower", "run_s", "sent-crack"),
    "solver.merit_evals": ("count", "lower", "run_s", "sent-crack"),
    "solver.merit_per_newton": ("ratio", "lower", "run_s", "sent-crack"),
    "solver.self_s": ("s", "lower", "run_s", "sent-crack"),
    "energetics.merit_s": ("s", "lower", "run_s", "sent-crack"),
    "energetics.trace_s": ("s", "lower", "run_s", "sent-crack"),
    "energetics.audit_s": ("s", "lower", "run_s", "sent-crack"),
    "energetics.check_s": ("s", "lower", "audit_s", "bend3d-elastic"),
    "driver.accepted_steps": ("count", "higher", "run_s", "sent-crack"),
    "driver.back_steps": ("count", "lower", "run_s", "sent-crack"),
    "driver.solves_per_accepted": ("ratio", "lower", "run_s", "sent-crack"),
    "driver.self_s": ("s", "lower", "run_s", "sent-crack"),
    "vtkio.write_s": ("s", "lower", "run_s", "bend3d-elastic"),
    "vtkio.bytes_written": ("B", "lower", "run_s", "bend3d-elastic"),
    "vtkio.read_s": ("s", "lower", "audit_s", "bend3d-elastic"),
    "cli.self_s": ("s", "lower", "run_s", "sent-crack"),
    "trace.spans": ("count", "lower", "run_s", "sent-crack"),
    "trace.run_s": ("s", "lower", "run_s", "sent-crack"),
    "trace.untraced_run_s": ("s", "lower", "run_s", "sent-crack"),
    "trace.overhead_s": ("s", "lower", "run_s", "sent-crack"),
    "trace.overhead_frac": ("ratio", "lower", "run_s", "sent-crack"),
    "determinism.count_drift": ("count", "lower", "run_s", "sent-crack"),
}

# Counts that must repeat exactly between two traced runs of the same code.
DETERMINISTIC_COUNTS = (
    "solver.solves",
    "solver.alternations",
    "linsolve.factorizations",
    "driver.back_steps",
    "solver.merit_evals",
)


def layer_metrics(spans, run_info: dict) -> dict:
    """Per-layer numbers of one traced job.

    ``run_info`` carries what the run wrote about itself: ``accepted_steps``,
    ``back_steps`` and ``accepted_alternations`` (run.json counts only the
    alternations of accepted solves).  Times are in seconds and summed over
    the ``run`` call, except ``energetics.check_s`` and ``vtkio.read_s``,
    which belong to ``check-energy``.
    """
    selfs = self_times(spans)
    groups: dict = {}
    root = [0] * len(spans)
    for i, s in enumerate(spans):
        root[i] = i if s[PARENT] < 0 else root[s[PARENT]]
        groups.setdefault((spans[root[i]][NAME], s[NAME]), []).append(i)

    def where(name, phase=RUN_ROOT, parent=None):
        idx = groups.get((phase, name), [])
        if parent is not None:
            idx = [i for i in idx if spans[spans[i][PARENT]][NAME] == parent]
        return idx

    def self_s(name, phase=RUN_ROOT):
        return sum(selfs[i] for i in where(name, phase))

    def incl_s(idx):
        return sum(spans[i][T1] - spans[i][T0] for i in idx)

    def per_call_ms(idx):
        return [1e3 * (spans[i][T1] - spans[i][T0]) for i in idx]

    tangent_u_ms = per_call_ms(where("fem.tangent_u"))
    factor = where("linsolve.factor_solve")
    factor_ms = per_call_ms(factor)
    splu = where("linsolve.splu")
    solves = where("solver.alternate_minimize")
    t_pct, t_tail = tail_percentile(tangent_u_ms)
    f_pct, f_tail = tail_percentile(factor_ms)

    alternations = len(where("solver.newton_u"))
    newton_u = len(tangent_u_ms)
    newton_beta = len(where("fem.tangent_beta"))
    merits = len(where("energetics.merit"))
    accepted = run_info["accepted_steps"]
    material = [i for n in ("tangent_split", "sigma_split", "psi_split") for i in where("material." + n)]
    run_root = where(RUN_ROOT)
    run_s = (spans[run_root[0]][T1] - spans[solves[0]][T0]) if run_root and solves else 0.0

    return {
        "presets.builds": len(where("presets.load_preset")),
        "presets.build_s": self_s("presets.load_preset"),
        "mesh.generate_grid_s": self_s("mesh.generate_grid"),
        "mesh.validate_s": self_s("mesh.validate"),
        "fem.build_kernels_s": self_s("fem.build_kernels"),
        "material.tangent_split_s": self_s("material.tangent_split"),
        "material.sigma_split_s": self_s("material.sigma_split"),
        "material.psi_split_s": self_s("material.psi_split"),
        "material.points": sum(spans[i][SIZE] or 0 for i in material),
        "fem.tangent_u.calls": newton_u,
        "fem.tangent_u.self_s": self_s("fem.tangent_u"),
        "fem.tangent_u.ms.p50": median(tangent_u_ms) if tangent_u_ms else 0.0,
        "fem.tangent_u.ms.tail": t_tail,
        "fem.tangent_u.ms.tail_pct": t_pct,
        "fem.tangent_beta.self_s": self_s("fem.tangent_beta"),
        "fem.psi_s": self_s("fem.psi"),
        "fem.reaction_s": self_s("fem.reaction"),
        "linsolve.factorizations": len(splu),
        "linsolve.factor_u_s": incl_s(where("linsolve.factor_solve", parent="solver.newton_u")),
        "linsolve.factor_beta_s": incl_s(where("linsolve.factor_solve", parent="solver.newton_beta")),
        "linsolve.factor_ms.p50": median(factor_ms) if factor_ms else 0.0,
        "linsolve.factor_ms.tail": f_tail,
        "linsolve.factor_ms.tail_pct": f_pct,
        "linsolve.factor_ms.n": len(factor_ms),
        "linsolve.dofs_mean": sum(spans[i][SIZE] or 0 for i in splu) / len(splu) if splu else 0.0,
        "linsolve.failures": sum(1 for i in factor if spans[i][ERR] == "LinearSolveError"),
        "solver.solves": len(solves),
        "solver.solve_failures": sum(1 for i in solves if spans[i][ERR] is not None),
        "solver.alternations": alternations,
        "solver.alt_useful_ratio": (
            run_info["accepted_alternations"] / alternations if alternations else 0.0
        ),
        "solver.newton_u_iters": newton_u,
        "solver.newton_beta_iters": newton_beta,
        "solver.merit_evals": merits,
        "solver.merit_per_newton": merits / (newton_u + newton_beta) if newton_u + newton_beta else 0.0,
        "solver.self_s": sum(
            self_s(n) for n in ("solver.alternate_minimize", "solver.newton_u", "solver.newton_beta")
        ),
        "energetics.merit_s": incl_s(where("energetics.merit")),
        "energetics.trace_s": incl_s(where("energetics.trace")),
        "energetics.audit_s": incl_s(where("energetics.audit")),
        "energetics.check_s": incl_s(where("energetics.check", CHECK_ROOT)),
        "driver.accepted_steps": accepted,
        "driver.back_steps": run_info["back_steps"],
        "driver.solves_per_accepted": len(solves) / accepted if accepted else 0.0,
        "driver.self_s": self_s("driver.run"),
        "vtkio.write_s": self_s("vtkio.write"),
        "vtkio.bytes_written": sum(spans[i][SIZE] or 0 for i in where("vtkio.write")),
        "vtkio.read_s": self_s("vtkio.read", CHECK_ROOT),
        "cli.self_s": self_s(RUN_ROOT) + self_s("cli.on_accept"),
        "trace.spans": len(spans),
        "trace.run_s": run_s,
    }
