"""Host speed reference: a fixed piece of work timed between the timed parts of a job.

A shared host runs the same code at speeds far apart (up to about 1.9x on
the 2-vCPU machine the bounds were set on), in phases that last from
seconds to minutes, often longer than a run.  Each timed interval is
therefore scaled to a nominal host speed: multiplied by ``NOMINAL_S`` over
the mean time of the two references taken just before and just after it.
The reference uses none of the program's code, so a change to the program
moves the scaled times as it moves the wall times, while a slow phase of
the host slows the reference too.  It mixes the kinds of work the program
does: interpreted loops over tuples and dicts, batched 3x3
eigen-decompositions, large array arithmetic and a sparse LU factorisation.
It runs in a helper process (``Reference``), which waits while the job runs.

    python3 perfbench/calibrate.py    # one reference time per input line
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# The reference time the scaled figures are given at; it sets their scale
# only.
NOMINAL_S = 0.1
# Timed work between two references (one interval may be longer); about 8%
# of a job's wall time then goes to references.
EVERY_S = 2.0


def _inputs():
    rng = np.random.default_rng(20090588)
    tets = [tuple(t) for t in rng.integers(0, 6000, (9000, 4)).tolist()]
    m = rng.standard_normal((9000, 3, 3))
    sym = m + m.transpose(0, 2, 1)
    big = np.sin(np.arange(1_000_000, dtype=float))
    n = 90
    lap1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    lap = (sp.kron(lap1, sp.identity(n)) + sp.kron(sp.identity(n), lap1)).tocsc()
    return tets, sym, big, lap


def _work(inputs) -> float:
    tets, sym, big, lap = inputs
    t = time.perf_counter()
    faces = {}
    for a, b, c, d in tets:
        for f in ((a, b, c), (a, b, d), (a, c, d), (b, c, d)):
            faces.setdefault(tuple(sorted(f)), []).append(a)
    np.linalg.eigh(sym)
    x = big
    for _ in range(4):
        x = np.sqrt(x * x + 1.0) - 0.5 * x
    spla.splu(lap).solve(np.ones(lap.shape[0]))
    return time.perf_counter() - t


def _serve() -> None:
    """For each line read, run the reference once in a fresh fork of this
    process, and print its time.  Each pass then builds its inputs and
    takes its pages afresh, as the program's own steps do."""
    for _ in sys.stdin:
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(r)
                os.write(w, repr(_work(_inputs())).encode())
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        with os.fdopen(r) as fh:
            out = fh.read()
        os.waitpid(pid, 0)
        print(out, flush=True)


class Reference:
    """The reference work, in a helper process of its own.

    Its memory never counts in the caller's peak RSS, and its heap does not
    depend on what the program under test allocated.  The helper waits on
    its standard input between references and ends when that closes, also
    when the caller dies.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def __call__(self) -> float:
        """Wall time of one pass of the reference work, about 0.1 s."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host speed reference ended with exit {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Calibrator:
    """Timed intervals of one process, with references taken between them.

    ``checkpoint()`` takes a reference once at least ``EVERY_S`` of timed
    work has been recorded since the last one, so every interval lies
    between two references; ``checkpoint(force=True)`` takes one whenever
    any work was recorded since the last.  The first checkpoint always
    takes one; end with a forced checkpoint.
    """

    def __init__(self, ref):
        self.ref = ref
        self.refs = []
        self.intervals = []  # (seconds, index of the reference before it)
        self.since = None  # timed work since the last reference

    def checkpoint(self, force: bool = False) -> None:
        if self.since is None or self.since >= EVERY_S or (force and self.since > 0):
            self.refs.append(self.ref())
            self.since = 0.0

    def record(self, seconds: float) -> int:
        """Record one timed interval; returns its index."""
        self.intervals.append((seconds, len(self.refs) - 1))
        self.since += seconds
        return len(self.intervals) - 1

    def scaled(self, k: int) -> float:
        """Interval ``k`` at the nominal host speed."""
        seconds, i = self.intervals[k]
        return seconds * NOMINAL_S / (0.5 * (self.refs[i] + self.refs[i + 1]))


if __name__ == "__main__":
    _serve()
