import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from conftest import box_mesh, constrained_dofmap, dense, displacement_system, rcm_solve, stored
from oracles import element_dofs_pattern, george_liu_starts
from pffrac import linsolve
from pffrac.fem import build_kernels
from pffrac.linsolve import BandOrdering, LinearSolveError, factor_solve, pseudo_peripheral_rcm


def random_sparse_spd(rng, n, density):
    """Symmetric, strictly diagonally dominant (so SPD) sparse matrix."""
    m = sp.random(n, n, density=density, random_state=rng, format="csr")
    m = m + m.T
    return sp.csc_matrix(m + sp.diags(abs(m).sum(axis=1).A1 + 1.0))


def test_identity():
    b = np.array([1.0, -2.0, 3.0])
    x = rcm_solve(sp.eye(3, format="csr"), b)
    assert np.array_equal(x, b)


def test_hand_elimination_2x2():
    a = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    x = rcm_solve(a, np.array([1.0, 2.0]))
    assert x == pytest.approx([1.0 / 11.0, 7.0 / 11.0], rel=1e-14)


def test_empty_structure():
    indptr, indices = np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32)
    for o in (
        BandOrdering.from_structure(indptr, indices, np.zeros(0, dtype=np.intp)),
        BandOrdering.narrowest(indptr, indices, []),
        BandOrdering.narrowest(indptr, indices, [np.zeros(0, dtype=np.intp)]),
    ):
        assert o.n == 0 and o.bandwidth == 0 and o.rows.size == 0 and o.cols.size == 0 and o.slot.size == 0


def test_singular_raises():
    a = sp.csr_matrix(np.diag([1.0, 0.0]))
    with pytest.raises(LinearSolveError, match="indefinite/singular"):
        rcm_solve(a, np.array([1.0, 1.0]))


def test_zero_rhs():
    a = sp.csr_matrix(np.diag([2.0, 5.0]))
    assert np.array_equal(rcm_solve(a, np.zeros(2)), np.zeros(2))


def test_structure_mismatch_raises_on_zero_rhs(rng):
    # the matrix size is checked before the zero right-hand side returns zeros
    k = stored(random_sparse_spd(rng, 20, 0.2))
    with pytest.raises(LinearSolveError, match="incompatible with rhs 19"):
        factor_solve(k, np.zeros(19))
    assert np.array_equal(factor_solve(k, np.zeros(20))[0], np.zeros(20))


def test_random_spd_residual_bound(rng):
    n = 50
    m = rng.normal(size=(n, n))
    a = sp.csr_matrix(m @ m.T + n * np.eye(n))
    b = rng.normal(size=n)
    x = rcm_solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_deterministic(rng):
    n = 30
    m = rng.normal(size=(n, n))
    a = sp.csr_matrix(m @ m.T + n * np.eye(n))
    b = rng.normal(size=n)
    assert np.array_equal(rcm_solve(a, b), rcm_solve(a, b))


def test_shape_mismatch():
    with pytest.raises(LinearSolveError):
        rcm_solve(sp.eye(3, format="csr"), np.ones(2))


@pytest.mark.parametrize("n, density", [(1, 1.0), (7, 0.3), (60, 0.05), (200, 0.01), (300, 0.002)])
def test_banded_matches_dense_solve(rng, n, density):
    # the sparsest cases have several disconnected components
    a = random_sparse_spd(rng, n, density)
    b = rng.normal(size=n)
    want = np.linalg.solve(a.toarray(), b)
    k = stored(a)
    x = factor_solve(k, b)[0]
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()
    assert np.abs(k @ x - a @ x).max() <= 1e-12 * np.abs(a @ x).max()  # the symmetric product


def test_ordering_band_storage(rng):
    # the stored entries are the structure's entries on or above the
    # reordered diagonal, each lands on its band slot, and the band holds
    # the reordered upper triangle exactly
    a = random_sparse_spd(rng, 40, 0.1)
    o = BandOrdering.narrowest(a.indptr, a.indices, [])
    assert np.array_equal(np.sort(o.perm), np.arange(40))
    assert np.array_equal(o.perm[o.inv], np.arange(40))
    ap = a.toarray()[np.ix_(o.perm, o.perm)]
    i, j = np.nonzero(np.triu(ap))
    assert o.bandwidth == (j - i).max()
    assert sorted(zip(o.inv[o.rows], o.inv[o.cols])) == sorted(zip(i, j))
    index = o.stored_index(a.indptr, a.indices)
    assert index.size == a.nnz + 1 and index[-1] == o.rows.size
    upper = index[:-1] < o.rows.size
    assert np.array_equal(index[:-1][upper], np.arange(o.rows.size))
    assert np.array_equal(a.indices[upper], o.rows)
    flat = np.zeros((o.bandwidth + 1) * o.n)
    flat[o.slot] = a.toarray()[o.rows, o.cols]
    ab = flat.reshape((o.bandwidth + 1, o.n), order="F")
    for d in range(o.bandwidth + 1):
        assert np.array_equal(ab[o.bandwidth - d, d:], np.diagonal(ap, d))


def graph(edges, n):
    """CSC structure of the symmetric graph with the given edges and every
    diagonal entry, rows sorted."""
    i, j = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    g = sp.csc_matrix((np.ones(2 * i.size + n), (np.r_[i, j, np.arange(n)], np.r_[j, i, np.arange(n)])), shape=(n, n))
    g.sum_duplicates()
    return g


def grid_edges(rows, cols):
    """Edges of the rows x cols grid graph, node id r * cols + c."""
    ids = np.arange(rows * cols).reshape(rows, cols)
    return np.r_[
        np.c_[ids[:, :-1].ravel(), ids[:, 1:].ravel()],
        np.c_[ids[:-1, :].ravel(), ids[1:, :].ravel()],
    ]


def bandwidth(g, perm=None):
    """The band of g under perm, by default under scipy's RCM."""
    if perm is None:
        return BandOrdering.narrowest(g.indptr, g.indices, []).bandwidth
    return BandOrdering.from_structure(g.indptr, g.indices, perm).bandwidth


def test_pseudo_peripheral_rcm_multi_component(rng):
    # a path, a grid, a lone node and a pair, numbered at random: every node
    # once, each component a contiguous block
    parts = [np.c_[np.arange(9), np.arange(1, 10)], grid_edges(4, 6), np.empty((0, 2), int), [[0, 1]]]
    sizes = [10, 24, 1, 2]
    offsets = np.cumsum([0] + sizes[:-1])
    n = sum(sizes)
    new = rng.permutation(n)
    edges = np.concatenate([np.asarray(e, dtype=np.int64).reshape(-1, 2) + o for e, o in zip(parts, offsets)])
    g = graph(new[edges], n)
    perm = pseudo_peripheral_rcm(g.indptr, g.indices)
    assert perm.dtype.kind == "i" and np.array_equal(np.sort(perm), np.arange(n))
    labels = np.repeat(np.arange(len(sizes)), sizes)[np.argsort(new)][perm]
    assert np.count_nonzero(np.diff(labels)) == len(sizes) - 1
    assert bandwidth(g, perm) <= 5  # the 4 x 6 grid's, numbered from a corner
    assert pseudo_peripheral_rcm(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)).size == 0


@pytest.mark.parametrize("rows, cols", [(3, 17), (5, 5), (6, 40), (10, 12)])
def test_pseudo_peripheral_start_is_a_corner(rng, rows, cols):
    # a grid with one pendant node on its middle node: the lowest-degree
    # node is the pendant, but the search moves out to a grid corner, and
    # the band is narrower than scipy's RCM gives
    n = rows * cols + 1
    middle = (rows // 2) * cols + cols // 2
    new = rng.permutation(n)
    g = graph(new[np.r_[grid_edges(rows, cols), [[middle, n - 1]]]], n)
    perm = pseudo_peripheral_rcm(g.indptr, g.indices)
    start = np.argsort(new)[perm[-1]]  # RCM numbers the start node last
    assert start in {0, cols - 1, (rows - 1) * cols, rows * cols - 1}
    assert bandwidth(g, perm) < bandwidth(g)


def random_parts(rng) -> list:
    """(edges, node count) of 2 to 6 random graphs: a lone node, a path, a
    grid with a pendant node on a random node, or a random sparse graph."""
    parts = []
    for kind in rng.integers(0, 4, rng.integers(2, 7)):
        if kind == 0:
            parts.append((np.empty((0, 2), dtype=np.int64), 1))
        elif kind == 1:
            m = int(rng.integers(2, 30))
            parts.append((np.c_[np.arange(m - 1), np.arange(1, m)], m))
        elif kind == 2:
            rows, cols = (int(v) for v in rng.integers(2, 9, 2))
            pendant = [[rng.integers(rows * cols), rows * cols]]
            parts.append((np.r_[grid_edges(rows, cols), pendant], rows * cols + 1))
        else:
            m = int(rng.integers(5, 40))
            parts.append((rng.integers(0, m, (int(rng.integers(m // 2, 2 * m)), 2)), m))
    return parts


@pytest.mark.parametrize("seed", range(20))
def test_pseudo_peripheral_start_matches_bfs_oracle(seed):
    # each component's block of the Cuthill-McKee order starts at the node
    # that a plain breadth-first George-Liu search finds
    rng = np.random.default_rng(seed)
    parts = random_parts(rng)
    offsets = np.cumsum([0] + [m for _, m in parts[:-1]])
    n = sum(m for _, m in parts)
    edges = np.concatenate([np.asarray(e, dtype=np.int64).reshape(-1, 2) + o for (e, _), o in zip(parts, offsets)])
    g = graph(rng.permutation(n)[edges], n)
    components = george_liu_starts(g.indptr, g.indices)
    first = np.cumsum([0] + [size for _, size, _ in components[:-1]])
    cm = pseudo_peripheral_rcm(g.indptr, g.indices)[::-1]
    assert np.array_equal(cm[first], [start for start, _, _ in components])


def test_pseudo_peripheral_start_after_two_moves():
    # a 10-cycle with a pendant node 10 on node 0 and a tail 11-12-13 on
    # node 1: the search moves from the pendant to node 5, opposite on the
    # cycle, then to the tail's end, and starts at node 6, opposite node 1
    edges = np.r_[np.c_[np.arange(10), (np.arange(10) + 1) % 10], [[0, 10], [1, 11], [11, 12], [12, 13]]]
    g = graph(edges, 14)
    assert george_liu_starts(g.indptr, g.indices) == [(6, 14, 2)]
    assert pseudo_peripheral_rcm(g.indptr, g.indices)[-1] == 6


def test_indefinite_nonsingular_raises():
    a = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(LinearSolveError, match="indefinite/singular"):
        rcm_solve(a, np.array([1.0, 0.0]))


def pulled_box(p, divisions):
    """Displacement structure (indptr, indices), dense tangent and
    right-hand side of a unit box of ``divisions`` cells stretched along
    its last axis, whose upper half is fully damaged (degraded to the
    residual stiffness k)."""
    dim = len(divisions)
    mesh = box_mesh([1.0] * dim, divisions)
    axis = "xyz"[dim - 1]
    low, high = mesh.node_sets[f"{axis}min"], mesh.node_sets[f"{axis}max"]
    dm = constrained_dofmap(mesh, [(low, c) for c in range(dim)] + [(high, dim - 1)])
    u_d = np.zeros(dim * mesh.n_nodes)
    u_d[dim * high + dim - 1] = 1e-3
    a = (mesh.nodes[:, -1] > 0.5).astype(float)
    kern = build_kernels(mesh)
    r, k = displacement_system(np.zeros_like(u_d), u_d, a, kern, p, dm)
    return element_dofs_pattern(kern.udofs, dm.free)[:2], dense(k), -r


@pytest.fixture
def patch_system(sent_params):
    """A 4x4 square: 35 free dofs, bandwidth 10, a float64 band."""
    return pulled_box(sent_params, [4, 4])


@pytest.fixture
def wide_system(sent_params):
    """A 4x4x5 box: 350 free dofs, bandwidth 75, a float32 band."""
    return pulled_box(sent_params, [4, 4, 5])


def displacement_ordering(structure) -> BandOrdering:
    indptr, indices = structure
    return BandOrdering.narrowest(indptr, indices, [pseudo_peripheral_rcm(indptr, indices)])


def test_wide_band_is_float32_and_refines_to_the_bound(wide_system, rng):
    # half the bytes of a float64 band, and every solve, of the factored
    # system or another, meets the residual bound of a float64 solve
    structure, k, b = wide_system
    o = displacement_ordering(structure)
    assert o.bandwidth >= linsolve._SINGLE_BANDWIDTH
    a = stored(k, o)
    x, factor = factor_solve(a, b)
    assert factor.band.dtype == np.float32
    assert factor.band.nbytes == (o.bandwidth + 1) * o.n * 4
    other = rng.normal(size=o.n)
    for rhs, sol in ((b, x), (other, factor.solve(other))):
        assert np.linalg.norm(a @ sol - rhs) <= 1e-10 * np.linalg.norm(rhs)
    want = np.linalg.solve(k, b)
    assert np.abs(x - want).max() <= 1e-6 * np.abs(want).max()


def test_narrow_band_is_one_dpbtrs_back_solve(patch_system):
    # below the threshold the band is float64, the factor is dpbtrf's and
    # the solution is bitwise one dpbtrs back-solve of it
    structure, k, b = patch_system
    o = displacement_ordering(structure)
    assert o.bandwidth < linsolve._SINGLE_BANDWIDTH
    a = stored(k, o)
    x, factor = factor_solve(a, b)
    flat = np.zeros((o.bandwidth + 1) * o.n)
    flat[o.slot] = a.values
    c = sla.cholesky_banded(flat.reshape((o.bandwidth + 1, o.n), order="F"))
    assert factor.band.dtype == np.float64 and np.array_equal(factor.band, c)
    assert np.array_equal(x, sla.cho_solve_banded((c, False), b[o.perm])[o.inv])


@pytest.mark.parametrize("cond, reason", [(1e8, "solve residual"), (1e12, "leading minor")])
def test_float32_factor_that_cannot_refine_raises(rng, monkeypatch, cond, reason):
    # an 80 x 80 SPD matrix stored dense, so its band is 79 wide and float32:
    # at condition 1e8 a refinement sweep fails to halve the residual, at
    # 1e12 the float32 factor breaks down; a float64 band solves both
    n = 80
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    m = (q * np.logspace(0.0, -np.log10(cond), n)) @ q.T
    m = (m + m.T) / 2
    b = m @ rng.normal(size=n)
    with pytest.raises(LinearSolveError, match=f"indefinite/singular tangent: .*{reason}"):
        rcm_solve(m, b)
    monkeypatch.setattr(linsolve, "_SINGLE_BANDWIDTH", n)
    k = stored(m)
    assert k.ordering.precision == np.float64
    x = factor_solve(k, b)[0]
    assert np.linalg.norm(k @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_band_budget_boundary(patch_system, monkeypatch):
    # both constructors check the band: one of exactly the budget is built
    # and factored, one byte more is refused while the ordering is built
    check_budget_boundary(patch_system, monkeypatch)


def test_float32_band_budget_boundary(wide_system, monkeypatch):
    # the budget counts the 4 bytes of each float32 band entry
    assert displacement_ordering(wide_system[0]).precision == np.float32
    check_budget_boundary(wide_system, monkeypatch)


def check_budget_boundary(system, monkeypatch):
    """Build the ordering of ``system``'s structure with each constructor
    under a budget of exactly its band's bytes, factor and solve, and
    build it again under one byte less, which is refused."""
    (indptr, indices), k, b = system
    perm = pseudo_peripheral_rcm(indptr, indices)
    for build in (
        lambda: BandOrdering.from_structure(indptr, indices, perm),
        lambda: BandOrdering.narrowest(indptr, indices, [perm]),
    ):
        monkeypatch.undo()
        o = build()
        band = (o.bandwidth + 1) * o.n * o.precision.itemsize
        monkeypatch.setattr(linsolve, "BAND_BYTES_BUDGET", band)
        built = build()
        x, factor = factor_solve(stored(k, built), b)
        assert factor.band.nbytes == band
        assert np.linalg.norm(k @ x - b) <= 1e-10 * np.linalg.norm(b)
        monkeypatch.setattr(linsolve, "BAND_BYTES_BUDGET", band - 1)
        with pytest.raises(LinearSolveError, match=f"band of {band} bytes .* budget of {band - 1} bytes"):
            build()
