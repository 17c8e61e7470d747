"""Path signatures of one preset run under random element orders.

    PYTHONPATH=src python scripts/path_ensemble.py --preset sent --scale 0.1 \
        --steps 66 --set material.ell=0.1 --members 8 --seed 1

The preset is built through the library exactly as ``pffrac run`` builds it
(``cli.resolve_config`` with the same ``--set section.key=value``
overrides).  The load program then runs once on the mesh in its native
element order and once under each of ``--members`` random permutations of
the element rows (the same nodes, connectivity and node sets; only the order
in which elements are assembled and summed changes).  Round-off differs
between the members, so a path that forks on round-off shows up as a spread
of the signatures.

Each member's path signature:

- ``back_steps``: the walk-back re-solves, as (target step, re-solved step);
- ``peak``: the largest reaction of the accepted chain and its step;
- ``reactions``: the reaction at each step of ``--at`` (default every tenth
  step and the last);
- ``alternations``: alternations summed over all solves, discarded ones
  included;
- ``accepted_steps``, ``aborted`` and ``abort_reason``.

One line per member is printed as it finishes, then the spread over the
members; the last line of standard output is one JSON object with the case,
every member's signature and the spread.  Nothing here changes the program:
it has no knob for element order, and the script needs none.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from pffrac.cli import _apply_overrides, resolve_config
from pffrac.driver import run
from pffrac.mesh import Mesh


def build(preset: str, scale: float, steps: int, sets: list):
    """The run setup ``pffrac run --preset P --scale S --steps N --set ...``
    resolves to."""
    flags = [f"run.preset={preset}", f"run.scale={scale}", f"program.n_steps={steps}"]
    return resolve_config(_apply_overrides({}, flags + sets))[1]


def permuted(mesh: Mesh, perm: np.ndarray) -> Mesh:
    """The same mesh with its element rows in the order ``perm``."""
    return Mesh(mesh.dim, mesh.nodes, mesh.elements[perm], mesh.node_sets)


def signature(history, at) -> dict:
    """The path signature of a run history (see the module docstring)."""
    chain = [(rec.step, rec.reaction) for rec in history.steps]
    peak_step, peak = max(chain, key=lambda r: r[1])
    reaction = dict(chain)
    return {
        "accepted_steps": history.n_accepted,
        "aborted": history.aborted,
        "abort_reason": history.abort_reason,
        "back_steps": [[rec.round_of, rec.step] for rec in history.backtracks],
        "peak": [peak_step, peak],
        "reactions": {str(n): reaction[n] for n in at if n in reaction},
        "alternations": sum(rec.alt_iters for rec in history.solves),
    }


def spread(members: list) -> dict:
    """How far the members' signatures fall apart: the distinct back-step
    lists and peak steps, the range of the peak and of the alternations,
    and per fixed step the range of the reaction and its relative width."""
    sigs = [m["signature"] for m in members]
    peaks = [s["peak"][1] for s in sigs]
    alts = [s["alternations"] for s in sigs]
    reactions = {}
    for step in sigs[0]["reactions"]:
        values = [s["reactions"][step] for s in sigs if step in s["reactions"]]
        lo, hi = min(values), max(values)
        reactions[step] = {"min": lo, "max": hi, "rel": (hi - lo) / max(abs(lo), abs(hi), 1e-300)}
    distinct_back = sorted({json.dumps(s["back_steps"]) for s in sigs})
    return {
        "back_steps": [json.loads(b) for b in distinct_back],
        "peak_steps": sorted({s["peak"][0] for s in sigs}),
        "peak": [min(peaks), max(peaks)],
        "alternations": [min(alts), max(alts)],
        "reactions": reactions,
    }


def _line(member: dict) -> str:
    s = member["signature"]
    back = s["back_steps"]
    targets = sorted({t for t, _ in back})
    return (
        f"{member['order']:>8}  {len(back):2d} back steps (targets {targets})  "
        f"peak {s['peak'][1]:.6f} N at step {s['peak'][0]}  {s['alternations']} alternations  "
        f"{s['accepted_steps']} steps  {member['seconds']:.1f} s"
        + (f"  aborted: {s['abort_reason']}" if s["aborted"] else "")
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--preset", required=True)
    ap.add_argument("--scale", type=float, required=True)
    ap.add_argument("--steps", type=int, required=True, help="program steps to run (program.n_steps)")
    ap.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE")
    ap.add_argument("--members", type=int, default=8, help="random element orders besides the native one")
    ap.add_argument("--seed", type=int, default=1, help="seed of the element permutations")
    ap.add_argument("--at", help="comma-separated steps whose reaction is reported")
    args = ap.parse_args(argv)

    setup = build(args.preset, args.scale, args.steps, args.set)
    n_steps = setup.program.n_steps
    at = [int(x) for x in args.at.split(",")] if args.at else sorted(set(range(10, n_steps + 1, 10)) | {n_steps})
    rng = np.random.default_rng(args.seed)
    n_e = setup.mesh.n_elements
    orders = [("native", np.arange(n_e))] + [(f"perm {k}", rng.permutation(n_e)) for k in range(1, args.members + 1)]

    members = []
    for name, perm in orders:
        t0 = time.perf_counter()
        history = run(setup.program, setup.backtrack, setup.solver, setup.params, permuted(setup.mesh, perm))
        members.append({"order": name, "seconds": time.perf_counter() - t0, "signature": signature(history, at)})
        print(_line(members[-1]), flush=True)

    summary = spread(members)
    print(
        f"spread over {len(members)} members: back steps {summary['back_steps']}, "
        f"peak steps {summary['peak_steps']}, peak {summary['peak'][0]:.6f}..{summary['peak'][1]:.6f} N, "
        f"alternations {summary['alternations'][0]}..{summary['alternations'][1]}, "
        f"largest relative reaction spread {max((r['rel'] for r in summary['reactions'].values()), default=0.0):.3g}"
    )
    case = {"preset": args.preset, "scale": args.scale, "steps": n_steps, "set": args.set, "seed": args.seed}
    print(json.dumps({"case": case, "members": members, "spread": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
