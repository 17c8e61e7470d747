"""Sparse symmetric positive-definite solves for the Newton tangents.

Each tangent is factored by LAPACK banded Cholesky (``pbtrf``/``pbtrs``,
called directly) after a reverse Cuthill-McKee reordering, which keeps the
band of the P1 finite-element graphs narrow: scipy's, unless a candidate
(the node-level ``pseudo_peripheral_rcm`` for the displacement tangent)
gives a strictly narrower band, the one rule of ``BandOrdering.narrowest``.
The ordering depends only on the sparsity structure, so a ``BandOrdering``
is built once per structure.  It fixes the stored entries of every matrix
on that structure: the entries on or above the reordered diagonal, with
their row, column and band-storage slot.  It also fixes the precision of
the band: float64 below a bandwidth of ``_SINGLE_BANDWIDTH`` (64), float32
from it up.  A matrix is an ``UpperMatrix``, the values of the stored
entries (always float64) and their ordering; assembly adds element
matrices straight into those values, and the entries below the reordered
diagonal are never formed.  Each factorization is then a zeroed band
array of the ordering's precision, one scatter of the values and one
LAPACK call.  ``factor_solve(a, b)`` factors ``a`` under ``a.ordering``
and returns the solution, one factorization per call: each Newton
iteration solves one system, and no factor is kept for another;
``eliminate`` pins dofs of a tangent before its solve.  This is the only
solve path.

``BandFactor.solve`` is the one solve: it checks the right-hand side,
returns zeros for b = 0 and checks the solution's residual against the
stored entries, the matrix that was factored (the band is overwritten by
its factor), so it reports a tangent that is not positive definite
instead of returning garbage.  On a float64 band the solution is one
back-solve.  On a float32 band it is refined (Langou et al. 2006; Higham
2002, ch. 12): each further sweep back-solves the float64 residual with
the float32 factor and corrects the solution in float64, until the
residual meets the same bound, so what a passing solve guarantees does
not depend on the precision.  A float32 band takes half the memory and,
where the factor dominates a Newton iteration, less time; below the
threshold the sweeps cost more than the cheaper factor saves.  A
structure whose band would take more than ``BAND_BYTES_BUDGET`` is refused
while its ordering is built, as soon as the bandwidth is known and before
any band is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from scipy.sparse.csgraph import reverse_cuthill_mckee, shortest_path

__all__ = [
    "LinearSolveError",
    "BandOrdering",
    "UpperMatrix",
    "BandFactor",
    "eliminate",
    "factor_solve",
    "concat_ranges",
    "pseudo_peripheral_rcm",
    "BAND_BYTES_BUDGET",
    "index_dtype",
]

# Band storage, (bandwidth + 1) * n entries of the band's precision, above
# which a structure is refused when its ordering is built.
BAND_BYTES_BUDGET = 2 * 1024**3

# The bandwidth from which a band is float32.  Factor and refined solve
# measured 1.3x slower than float64 at bandwidth 56 and faster from 75 up.
_SINGLE_BANDWIDTH = 64

_DIRECT_RTOL = 1e-10

# Banded Cholesky factorization and solve of each precision, fetched once.
_PBTRF = {np.dtype(t): sla.get_lapack_funcs("pbtrf", dtype=t) for t in (np.float32, np.float64)}
_PBTRS = {np.dtype(t): sla.get_lapack_funcs("pbtrs", dtype=t) for t in (np.float32, np.float64)}


def index_dtype(maxval: int) -> type:
    """Index dtype for values up to ``maxval``: int32 below 2**31 - 1, else
    int64 (scipy's choice for the index arrays of a sparse matrix with
    ``maxval`` entries)."""
    return np.int32 if maxval < np.iinfo(np.int32).max else np.int64


class LinearSolveError(RuntimeError):
    """A band over ``BAND_BYTES_BUDGET``, a factorization breakdown or an
    unacceptable solve residual."""


@dataclass(frozen=True)
class BandOrdering:
    """Reverse Cuthill-McKee ordering of a square symmetric CSC structure,
    with the stored entries of the matrices on it.

    ``perm[i]`` is the original index of reordered row i and ``inv`` its
    inverse.  The stored entries are the structure's entries on or above
    the reordered diagonal, in CSC order: ``rows`` and ``cols`` are their
    original row and column, in the ``index_dtype`` of n, ``col_starts``
    (n + 1, same dtype) is where each column's entries start, ``diagonal``
    indexes the entries on the diagonal, and ``slot`` is their flat index
    into the column-major ``(bandwidth + 1, n)`` array that ``dpbtrf`` reads
    (``ab[bandwidth + i - j, j] = a[i, j]``), in the ``index_dtype`` of the
    band size.  The stored entries number at most the band size, which the
    budget keeps below 2**29, so ``col_starts`` fits the dtype of ``rows``.
    ``precision`` is the dtype of the band: float32 from a bandwidth of
    ``_SINGLE_BANDWIDTH`` up, float64 below it.
    """

    perm: np.ndarray
    inv: np.ndarray
    bandwidth: int
    rows: np.ndarray
    cols: np.ndarray
    col_starts: np.ndarray
    diagonal: np.ndarray
    slot: np.ndarray
    precision: np.dtype

    @property
    def n(self) -> int:
        return self.perm.size

    @classmethod
    def from_structure(cls, indptr: np.ndarray, indices: np.ndarray, perm) -> "BandOrdering":
        """Band storage of the symmetric CSC structure (indptr, indices) under
        ``perm``.  Raises LinearSolveError as soon as the bandwidth, and so
        the band's precision, is known, before any band exists, when the
        band would exceed ``BAND_BYTES_BUDGET``."""
        n = indptr.size - 1
        perm = np.asarray(perm, dtype=np.intp)
        inv = _inverse(perm)
        cols = np.repeat(np.arange(n), np.diff(indptr))
        upper = _upper(indices, cols, inv)
        rows, cols = indices[upper], cols[upper]
        offset = inv[cols] - inv[rows]
        bandwidth = int(offset.max(initial=0))
        precision = np.dtype(np.float32 if bandwidth >= _SINGLE_BANDWIDTH else np.float64)
        band_bytes = (bandwidth + 1) * n * precision.itemsize
        if band_bytes > BAND_BYTES_BUDGET:
            raise LinearSolveError(
                f"band of {band_bytes} bytes (bandwidth {bandwidth}, n {n}) "
                f"exceeds the budget of {BAND_BYTES_BUDGET} bytes"
            )
        slot = (bandwidth - offset) + inv[cols] * (bandwidth + 1)
        dtype = index_dtype(n)
        col_starts = np.zeros(n + 1, dtype=dtype)
        np.cumsum(np.bincount(cols, minlength=n), out=col_starts[1:])
        diagonal = np.flatnonzero(rows == cols).astype(dtype)
        return cls(
            perm,
            inv,
            bandwidth,
            rows.astype(dtype),
            cols.astype(dtype),
            col_starts,
            diagonal,
            slot.astype(index_dtype((bandwidth + 1) * n)),
            precision,
        )

    @classmethod
    def narrowest(cls, indptr: np.ndarray, indices: np.ndarray, candidates) -> "BandOrdering":
        """Band storage of the CSC structure under scipy's reverse
        Cuthill-McKee order, unless a perm of ``candidates`` gives a
        strictly narrower band: then under the first of the narrowest.  Only
        the chosen ordering is built."""
        perm = min([_scipy_rcm(indptr, indices), *candidates], key=lambda order: _bandwidth(indptr, indices, order))
        return cls.from_structure(indptr, indices, perm)

    def stored_index(self, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """The stored entry of each entry of the CSC structure this ordering
        was built from, then of one entry past its end.  The entries below
        the reordered diagonal, and the one past the end, get ``rows.size``,
        one past the stored entries.  In the ``index_dtype`` of the stored
        entries."""
        upper = _upper(indices, np.repeat(np.arange(indptr.size - 1), np.diff(indptr)), self.inv)
        index = np.full(upper.size + 1, self.rows.size, dtype=index_dtype(self.rows.size))
        index[:-1][upper] = np.arange(self.rows.size)
        return index


@dataclass(frozen=True)
class UpperMatrix:
    """A symmetric matrix by the ``values`` of the stored entries of its
    ``ordering``: its entries on or above the reordered diagonal."""

    values: np.ndarray
    ordering: BandOrdering

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The symmetric product U x + U^T x - D x, with U the stored entries
        and D their diagonal.  scipy's compiled CSC product of the stored
        entries gives U x; the same arrays read as CSR are U^T, whose CSR
        product gives U^T x."""
        o = self.ordering
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.zeros(o.n)
        _sparsetools.csc_matvec(o.n, o.n, o.col_starts, o.rows, self.values, x, y)
        _sparsetools.csr_matvec(o.n, o.n, o.col_starts, o.rows, self.values, x, y)
        d = o.rows[o.diagonal]
        y[d] -= self.values[o.diagonal] * x[d]
        return y


def _upper(rows: np.ndarray, cols: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Which entries (rows, cols) lie on or above the diagonal reordered by
    ``inv``."""
    return inv[rows] <= inv[cols]


def _scipy_rcm(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """scipy's reverse Cuthill-McKee order of a symmetric CSC structure
    (empty for an empty structure, which scipy rejects).  scipy reads only
    the index arrays, so the graph's data is a broadcast of one byte."""
    n = indptr.size - 1
    if n == 0:
        return np.empty(0, dtype=np.intp)
    graph = sp.csc_matrix((np.broadcast_to(np.int8(1), indices.shape), indices, indptr), shape=(n, n))
    return reverse_cuthill_mckee(graph, symmetric_mode=True)


def _inverse(perm: np.ndarray) -> np.ndarray:
    inv = np.empty(perm.size, dtype=np.intp)
    inv[perm] = np.arange(perm.size)
    return inv


def _bandwidth(indptr: np.ndarray, indices: np.ndarray, perm) -> int:
    """The ``bandwidth`` of ``BandOrdering.from_structure`` under ``perm``,
    without its band-storage arrays: the largest offset above the reordered
    diagonal."""
    inv = _inverse(np.asarray(perm, dtype=np.intp))
    offset = np.repeat(inv, np.diff(indptr))
    offset -= inv[indices]
    return int(offset.max(initial=0))


def concat_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """``np.concatenate([np.arange(a, b) for a, b in zip(starts, stops)])``."""
    lens = stops - starts
    return np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens - starts, lens)


def _neighbours(indptr, indices, nodes):
    """Neighbour lists of ``nodes``, concatenated in the order given."""
    return indices[concat_ranges(indptr[nodes], indptr[nodes + 1])]


def pseudo_peripheral_rcm(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Reverse Cuthill-McKee order of a symmetric graph given as a CSC (or
    CSR) structure, each connected component numbered from a George-Liu
    pseudo-peripheral node (George & Liu 1979).

    Each breadth-first search is scipy's unweighted ``shortest_path`` from
    one node: the nodes at a finite distance are its component, and their
    distances its level structure.  Components are taken in the order of
    their lowest node.  The start node is searched from the component's
    lowest-degree node: move to the lowest-degree node of the last level
    (ties by index) as long as that raises the eccentricity.  Cuthill-McKee
    numbers the unnumbered neighbours of each numbered node by increasing
    degree (ties by index); one level of the search is numbered at a time.
    """
    n = indptr.size - 1
    degree = np.diff(indptr)
    # the structure read as CSR is its transpose, the same graph
    graph = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))

    def distances(root: int) -> np.ndarray:
        return shortest_path(graph, unweighted=True, indices=root)

    numbered = np.zeros(n, dtype=bool)
    order = []
    while not numbered.all():
        members = np.flatnonzero(np.isfinite(distances(int(np.argmin(numbered)))))
        depth = distances(int(members[np.argmin(degree[members])]))[members]
        while True:
            last = members[depth == depth.max()]
            root = int(last[np.argmin(degree[last])])
            depth_root = distances(root)[members]
            if depth_root.max() <= depth.max():
                break
            depth = depth_root
        numbered[root] = True
        front = np.array([root])
        while front.size:
            order.append(front)
            nxt = _neighbours(indptr, indices, front)
            parent = np.repeat(np.arange(front.size), degree[front])
            fresh = ~numbered[nxt]
            nxt, parent = nxt[fresh], parent[fresh]
            first = np.unique(nxt, return_index=True)[1]  # first parent wins
            nxt, parent = nxt[first], parent[first]
            front = nxt[np.lexsort((nxt, degree[nxt], parent))]
            numbered[front] = True
    return np.concatenate(order)[::-1] if order else np.empty(0, dtype=np.intp)


def eliminate(mat: UpperMatrix, pinned: np.ndarray) -> None:
    """Decouple the pinned dofs of a tangent in place: zero their rows and
    columns and put 1 on their diagonal (which every pattern stores), so
    that with a zeroed right-hand side their increment is 0."""
    o = mat.ordering
    drop = pinned[o.rows] | pinned[o.cols]
    mat.values[drop] = o.rows[drop] == o.cols[drop]


@dataclass(frozen=True)
class BandFactor:
    """The banded Cholesky factor ``band`` of ``matrix``, in the precision
    of its ordering, which ``factor_solve`` makes for its one system and
    drops after it: the solve is one ``dpbtrs`` back-solve for a float64
    band, refinement sweeps of ``spbtrs`` back-solves for a float32 one."""

    matrix: UpperMatrix
    band: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The x of ``matrix`` x = b, zeros for b = 0.  A right-hand side of
        another size or with a non-finite entry raises LinearSolveError, and
        so does a relative residual, taken with the stored entries, above
        1e-10 ("indefinite/singular").

        The first back-solve is of b.  A float64 band stops there.  A
        float32 band refines: each further sweep back-solves the float64
        residual A x - b, cast to float32 in the reordered order, and
        subtracts the correction from x in float64, until the residual
        meets the bound.  A sweep that does not halve the residual raises
        LinearSolveError, so refinement ends on a matrix too ill-conditioned
        for the float32 factor (about cond(A) > 1e7).
        """
        o = self.matrix.ordering
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != o.n:
            raise LinearSolveError(f"matrix of size {o.n} incompatible with rhs {b.shape[0]}")
        if not np.all(np.isfinite(b)):
            raise LinearSolveError("non-finite right-hand side")
        b_norm = float(np.linalg.norm(b))
        if b_norm == 0.0:
            return np.zeros(o.n)
        x = self._back_solve(b)
        last = np.inf
        while True:
            r = self.matrix @ x - b
            res = float(np.linalg.norm(r)) / b_norm
            if res <= _DIRECT_RTOL:
                return x
            if self.band.dtype == np.float64 or not res <= 0.5 * last:
                raise LinearSolveError(
                    f"indefinite/singular tangent: solve residual {res:.3e} > {_DIRECT_RTOL:.1e}"
                )
            last = res
            x -= self._back_solve(r)

    def _back_solve(self, r: np.ndarray) -> np.ndarray:
        """The factor's back-solve of r, cast to the band's precision in the
        reordered order, returned in float64 in the original order."""
        o = self.matrix.ordering
        rhs = r[o.perm].astype(self.band.dtype, copy=False)
        y, _ = _PBTRS[self.band.dtype](self.band, rhs, lower=0, overwrite_b=1)
        return y[o.inv].astype(np.float64, copy=False)


def _banded_factor(a: UpperMatrix) -> BandFactor:
    """Factor ``a``: scatter its float64 stored entries into a zeroed band
    of its ordering's precision (rounding them to float32 for a float32
    band), which that precision's ``pbtrf`` overwrites with the factor."""
    o = a.ordering
    n, bw = o.n, o.bandwidth
    flat = np.zeros((bw + 1) * n, dtype=o.precision)
    flat[o.slot] = a.values
    c, info = _PBTRF[o.precision](flat.reshape((bw + 1, n), order="F"), lower=0, overwrite_ab=1)
    if info > 0:
        raise LinearSolveError(f"indefinite/singular tangent: {info}-th leading minor not positive definite")
    return BandFactor(a, c)


def factor_solve(a: UpperMatrix, b: np.ndarray) -> np.ndarray:
    """The x of the SPD system a x = b by banded Cholesky under
    ``a.ordering``: one factorization, then ``BandFactor.solve`` with its
    checks.  The factor is dropped on return, so every call factors.  The
    band is within ``BAND_BYTES_BUDGET``, since its ordering was built.  A
    factorization breakdown raises LinearSolveError ("indefinite/singular").
    """
    return _banded_factor(a).solve(b)
