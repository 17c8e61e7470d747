import numpy as np
import pytest

from conftest import (
    box_mesh,
    constrained_dofmap,
    damage_system,
    dense,
    displacement_system,
    internal_force,
    random_state,
    rcm_solve,
)
from oracles import damage_merit, projected_newton_beta, total_functional
from pffrac.energetics import dis
from pffrac.fem import build_kernels, degradation_weights, strain_spectrum, u_pattern
from pffrac import energetics, fem, linsolve, solver
from pffrac.material import MaterialParams, StrainSpectrum, psi_split
from pffrac.linsolve import eliminate, factor_solve
from pffrac.driver import BacktrackConfig, DirichletSpec, LoadProgram, run
from pffrac.solver import SolverConfig, StepFailure, alternate_minimize, newton_beta


def make_patch(divisions=2, constrain_x=True):
    mesh = box_mesh([1.0, 1.0], [divisions, divisions])
    constraints = [(mesh.node_sets["ymin"], 1), (mesh.node_sets["ymax"], 1)]
    if constrain_x:
        constraints += [(mesh.node_sets["ymin"], 0), (mesh.node_sets["ymax"], 0)]
    dm = constrained_dofmap(mesh, constraints)
    return mesh, build_kernels(mesh), dm


def make_clamped_patch(divisions=3):
    """All-boundary clamp: definite affine states stay inside one branch of
    the split, making the displacement problem exactly quadratic."""
    mesh = box_mesh([1.0, 1.0], [divisions, divisions])
    boundary = np.unique(np.concatenate([mesh.node_sets[t] for t in ("xmin", "xmax", "ymin", "ymax")]))
    dm = constrained_dofmap(mesh, [(boundary, 0), (boundary, 1)])
    return mesh, build_kernels(mesh), dm


def displacement_state(kern, total_disp, p):
    """(spectrum, psi_p, psi_m) of the displacement ``total_disp``."""
    spectrum = strain_spectrum(kern, total_disp)
    return (spectrum, *psi_split(spectrum, p))


def newton_u_from(u0, u_d, a, kern, p, cfg, dm):
    """``newton_u`` from u0 at the damage a, with the state of its start:
    (u, iterations, state)."""
    start = u0.copy()
    start[~dm.free] = 0.0
    rw = degradation_weights(kern, a, p)
    return solver.newton_u(u0, u_d, rw, kern, p, cfg, dm, displacement_state(kern, start + u_d, p))[:3]


def newton_beta_at(a0, u_fixed, u_d, a_n, kern, p, cfg):
    """``newton_beta`` at the displacement u_fixed + u_d: (a, iterations,
    functional)."""
    _, psi_p, psi_m = displacement_state(kern, u_fixed + u_d, p)
    return newton_beta(a0, a_n, dis(a_n, kern, p), kern, p, cfg, psi_p, psi_m)[:3]


def alternate(u0, a0, a_n, u_d, kern, p, cfg, dm):
    """``alternate_minimize`` from (u0, a0), given the degradation weights
    of a0 and the dissipation of the anchor a_n."""
    return alternate_minimize(u0, a0, degradation_weights(kern, a0, p), a_n, dis(a_n, kern, p), u_d, kern, p, cfg, dm)


def counted(fn, name, counts):
    """``fn``, counting its calls in ``counts[name]``."""

    def spy(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return spy


def stretch_lifting(mesh, wx, wy, bump=None, rng=None):
    """Affine biaxial field, optionally perturbed at interior nodes so the
    solve has a nontrivial right-hand side."""
    u_d = np.zeros(2 * mesh.n_nodes)
    u_d[0::2] = wx * mesh.nodes[:, 0]
    u_d[1::2] = wy * mesh.nodes[:, 1]
    if bump is not None:
        interior = np.flatnonzero(
            (mesh.nodes[:, 0] > 1e-12) & (mesh.nodes[:, 0] < 1 - 1e-12)
            & (mesh.nodes[:, 1] > 1e-12) & (mesh.nodes[:, 1] < 1 - 1e-12)
        )
        u_d[2 * interior] += bump * rng.normal(size=interior.size)
        u_d[2 * interior + 1] += bump * rng.normal(size=interior.size)
    return u_d


class TestNewtonU:
    def test_zero_start_at_solution(self, sent_params):
        mesh, kern, dm = make_patch()
        z = np.zeros(2 * mesh.n_nodes)
        u, iters, _ = newton_u_from(z, z, np.zeros(mesh.n_nodes), kern, sent_params, SolverConfig(), dm)
        assert np.all(u == 0.0)
        assert iters == 1

    def test_compressive_branch_is_linear(self, sent_params, rng):
        # negative-definite strains keep sigma on the compressive branch:
        # the problem is exactly quadratic and one update solves it
        mesh, kern, dm = make_clamped_patch()
        u_d = stretch_lifting(mesh, -1e-3, -2e-3, bump=1e-5, rng=rng)
        cfg = SolverConfig(tol_u=1e-12)
        u, iters, _ = newton_u_from(np.zeros_like(u_d), u_d, np.zeros(mesh.n_nodes), kern, sent_params, cfg, dm)
        assert iters <= 2
        r, _ = displacement_system(u, u_d, np.zeros(mesh.n_nodes), kern, sent_params, dm)
        assert np.abs(r).max() <= 1e-9

    def test_tensile_branch_matches_dense_minimization(self, sent_params, rng):
        # positive-definite biaxial stretch with fixed random damage: the
        # R-weighted problem is quadratic; compare against a dense solve
        mesh, kern, dm = make_clamped_patch()
        u_d = stretch_lifting(mesh, 2e-3, 3e-3, bump=1e-5, rng=rng)
        a = rng.uniform(0.0, 0.6, mesh.n_nodes)
        cfg = SolverConfig(tol_u=1e-12)
        u, _, _ = newton_u_from(np.zeros_like(u_d), u_d, a, kern, sent_params, cfg, dm)

        h = 1e-8
        free = np.flatnonzero(dm.free)
        kmat = np.zeros((free.size, free.size))
        rhs = -displacement_system(np.zeros_like(u_d), u_d, a, kern, sent_params, dm)[0]
        for j in range(free.size):
            up = np.zeros_like(u_d)
            up[free[j]] = h
            kmat[:, j] = (displacement_system(up, u_d, a, kern, sent_params, dm)[0] + rhs) / h
        dense = np.linalg.solve(kmat, rhs)
        assert np.abs(u[dm.free] - dense).max() <= 1e-8 * (1 + np.abs(dense).max())


    def test_every_dof_fixed(self, sent_params):
        # an empty displacement system: an empty pattern of bandwidth 0, and
        # the zero free vector
        mesh = box_mesh([1.0, 1.0], [2, 2])
        kern = build_kernels(mesh)
        every = np.arange(mesh.n_nodes)
        dm = constrained_dofmap(mesh, [(every, 0), (every, 1)])
        u_d = stretch_lifting(mesh, 1e-3, 2e-3)
        u, _, _ = newton_u_from(np.ones(u_d.size), u_d, np.zeros(mesh.n_nodes), kern, sent_params, SolverConfig(), dm)
        assert np.array_equal(u, np.zeros(u_d.size))
        pattern = u_pattern(kern, dm)
        assert pattern.ordering.n == 0 and pattern.ordering.bandwidth == 0


class TestNewtonBeta:
    def test_elimination_matches_reduced_solve(self, sent_params, rng):
        # pinned dofs decoupled in place: their increment is exactly zero and
        # the rest solves the reduced system of the free dofs
        mesh, kern, _ = make_patch(divisions=3)
        u, a, a_n = random_state(mesh, rng)
        r, mat = damage_system(u, np.zeros_like(u), a, a_n, kern, sent_params)
        reduced = dense(mat)
        pinned = rng.uniform(size=a.size) < 0.4
        free = np.flatnonzero(~pinned)
        want = rcm_solve(reduced[np.ix_(free, free)], -r[free])
        eliminate(mat, pinned)
        dx = factor_solve(mat, -np.where(pinned, 0.0, r))[0]
        assert np.all(dx[pinned] == 0.0)
        assert np.abs(dx[free] - want).max() <= 1e-12 * np.abs(want).max()
        eliminated = reduced.copy()
        eliminated[pinned] = eliminated[:, pinned] = 0.0
        eliminated[pinned, pinned] = 1.0
        assert np.array_equal(dense(mat), eliminated)

    def test_unloaded_stationary(self, sent_params):
        mesh, kern, _ = make_patch()
        z = np.zeros(2 * mesh.n_nodes)
        a0 = np.zeros(mesh.n_nodes)
        a, _, _ = newton_beta_at(a0, z, z, a0, kern, sent_params, SolverConfig())
        assert np.all(a == 0.0)

    def test_homogeneous_fixed_point(self, sent_params):
        # all displacement dofs constrained to a uniform stretch: the
        # stationary damage equals the closed-form homogeneous value
        mesh = box_mesh([1.0, 1.0], [1, 1])
        kern = build_kernels(mesh)
        w = 1e-3
        u_d = stretch_lifting(mesh, 0.0, w)
        cfg = SolverConfig(tol_a=1e-12)
        a, _, _ = newton_beta_at(
            np.zeros(mesh.n_nodes), np.zeros_like(u_d), u_d, np.zeros(mesh.n_nodes), kern, sent_params, cfg
        )
        [psi_p], _ = psi_split(StrainSpectrum(np.array([[0.0], [w], [0.0]])), sent_params)
        beta = 2 * psi_p / (2 * psi_p + sent_params.gc / sent_params.ell)
        assert np.abs(a - beta).max() <= 1e-8

    def test_unloading_stays_within_penalty_slack(self, sent_params):
        mesh, kern, _ = make_patch()
        z = np.zeros(2 * mesh.n_nodes)
        a_n = np.full(mesh.n_nodes, 0.5)
        cfg = SolverConfig(tol_a=1e-10)
        a, _, _ = newton_beta_at(a_n.copy(), z, z, a_n, kern, sent_params, cfg)
        slack = 2 * sent_params.eps_pen * sent_params.gc / sent_params.ell
        assert np.abs(a - 0.5).max() <= slack

    def test_at1_elastic_stage(self):
        # below the activation threshold the damage stays at zero
        p = MaterialParams(
            lam=121153.8, mu=80769.2, gc=2.7, ell=0.0175, dissipation="AT1", kappa=1.0, eps_pen=1e-6
        )
        mesh, kern, _ = make_patch()
        u_d = stretch_lifting(mesh, 0.0, 1e-4)  # 2*psi+ << kappa*gc/ell
        [psi_p], _ = psi_split(StrainSpectrum(np.array([[0.0], [1e-4], [0.0]])), p)
        assert 2 * psi_p < p.kappa * p.gc / p.ell
        a, _, _ = newton_beta_at(
            np.zeros(mesh.n_nodes), np.zeros(2 * mesh.n_nodes), u_d, np.zeros(mesh.n_nodes), kern, p, SolverConfig()
        )
        assert np.abs(a).max() <= 1e-6

    def test_bounds_enforced_at_crack(self, sent_params):
        # a stretch localized in the upper half drives the unconstrained
        # minimizer above one at the edge of the band (a uniform stretch
        # never does: its homogeneous damage stays below one); the
        # box-constrained solve caps it exactly
        mesh, kern, _ = make_patch()
        u_d = np.zeros(2 * mesh.n_nodes)
        u_d[1::2] = 0.2 * np.maximum(mesh.nodes[:, 1] - 0.5, 0.0)
        a, _, _ = newton_beta_at(
            np.zeros(mesh.n_nodes), np.zeros_like(u_d), u_d, np.zeros(mesh.n_nodes), kern, sent_params, SolverConfig()
        )
        assert a.min() >= 0.0 and a.max() == 1.0

    def test_one_tangent_assembly_per_damage_iteration(self, sent_params, monkeypatch):
        # every damage Newton iteration assembles its tangent: over a run
        # that cracks the patch, the assemblies are the damage iterations
        # of all its solves
        assembled = []
        real = solver.residual_and_tangent_beta

        def counted(*args):
            assembled.append(1)
            return real(*args)

        monkeypatch.setattr(solver, "residual_and_tangent_beta", counted)
        hist = crack_patch(sent_params)
        assert len(assembled) == sum(rec.newton_iters_beta for rec in hist.solves)

    def test_factor_reused_while_its_system_repeats(self, sent_params, monkeypatch):
        # on a run that cracks the patch, a damage solve factors its
        # eliminated tangent only when that is not bit for bit the matrix
        # it last factored: its solves make fewer factorizations than the
        # loop that assembles and factors at every iteration
        # (oracles.projected_newton_beta), and each returns what that
        # returns, bit for bit
        calls, factored = [], []
        real_beta, real_factor = solver.newton_beta, solver.factor_solve

        def counted(a, b):
            if factored:
                factored[-1] += 1
            return real_factor(a, b)

        def spy(*args):
            factored.append(0)
            res = real_beta(*args)
            calls.append(([np.copy(x) if isinstance(x, np.ndarray) else x for x in args], res, factored.pop()))
            return res

        monkeypatch.setattr(solver, "newton_beta", spy)
        monkeypatch.setattr(solver, "factor_solve", counted)
        monkeypatch.setattr(linsolve, "factor_solve", counted)
        crack_patch(sent_params)

        with_reuse = every = 0
        for args, res, n_factored in calls:
            factored.append(0)
            a, iters, merit, rw, trials = projected_newton_beta(*args)
            assert a.tobytes() == res[0].tobytes() and (iters, merit, trials) == (res[1], res[2], res[4])
            assert rw.tobytes() == res[3].tobytes()
            n_every = factored.pop()
            assert n_factored <= n_every
            with_reuse += n_factored
            every += n_every
        assert with_reuse < every


def crack_patch(p):
    """Run 4 steps of a tension stretch that cracks the 3x3 patch; returns
    the run's history."""
    mesh = box_mesh([1.0, 1.0], [3, 3])
    bcs = (DirichletSpec("ymin", 1, 0.0), DirichletSpec("ymax", 1, 1.0), DirichletSpec("xmin", 0, 0.0))
    hist = run(LoadProgram(4, 1e-2, bcs), BacktrackConfig(), SolverConfig(), p, mesh)
    assert not hist.aborted and hist.steps[-1].a.max() == 1.0
    return hist


def scan_from_one(phi, slope):
    """The plain Armijo scan of a line: halve from 1 until a step passes."""
    t = 1.0
    while t >= solver._ARMIJO_MIN_STEP:
        if phi(t) <= phi(0.0) + solver._ARMIJO_C * t * slope:
            return t
        t *= 0.5
    return None


# Convex lines phi(t) with their slope at 0: quadratics whose Armijo steps
# end at many powers of two, kinked maxima of two quadratics (the kink
# between the start and the minimizer), and a line with no descent.
def _quadratic(m):
    return (lambda t: (t - m) ** 2 - m**2), -2.0 * m


def _kinked(m):
    return (lambda t: max((t - m) ** 2 - m**2, 4.0 * (t - 0.5 * m) ** 2 - m**2)), -2.0 * m


LINES = {
    **{f"quadratic {m:g}": _quadratic(m) for m in (2.0, 0.7, 0.3, 0.04, 3e-3, 1e-4, 2e-6)},
    **{f"kinked {m:g}": _kinked(m) for m in (2.0, 0.5, 0.05, 1e-3, 1e-5)},
    "no descent": ((lambda t: t * t + t), -1.0),
}


class TestLineSearch:
    @pytest.mark.parametrize("line", sorted(LINES))
    def test_any_start_finds_the_scan_step(self, line):
        # from every start 2^0 ... 2^-12: the step, trial and energy of the
        # scan from 1, each step evaluated once, and only the steps from the
        # start to the answer (and the one past it when growing) evaluated
        phi, slope = LINES[line]
        want = scan_from_one(phi, slope)
        dx = np.array([1.0])
        for j in range(13):
            start = 2.0**-j
            seen = []

            def evaluate(trial):
                seen.append(float(trial[0]))
                return phi(trial[0]), len(seen)

            found, trials = solver._line_search(evaluate, lambda v: v, np.zeros(1), dx, phi(0.0), slope, start)
            assert trials == len(seen) == len(set(seen))
            if want is None:
                assert found is None
                assert seen == [2.0**-i for i in range(j, 31)]
                continue
            t, trial, energy, data = found
            assert t == want and trial[0] == want and energy == phi(want) and data == seen.index(want) + 1
            k = -int(np.log2(want))
            assert trials == abs(k - j) + 1 + (j >= k > 0)
            if start == want:
                assert trials <= 2 and trials <= k + 1


    def test_bounded_searches_start_from_one(self, sent_params, monkeypatch):
        # on a run that cracks the patch, each displacement search after a
        # call's first starts from the step the last one accepted, and
        # every damage search starts from 1 (a projection arc need not be
        # convex); each kind accepts steps below 1 before a later search of
        # the same call, so a search that broke its rule would show
        searches = {"newton_u": [], "newton_beta": []}  # per call, (start, accepted step) per search
        solving = []
        real_search = solver._line_search

        def search(*args):
            found, trials = real_search(*args)
            searches[solving[-1]][-1].append((args[-1], found and found[0]))
            return found, trials

        def spied(name):
            real = getattr(solver, name)

            def call(*args, **kw):
                solving.append(name)
                searches[name].append([])
                try:
                    return real(*args, **kw)
                finally:
                    solving.pop()

            return call

        for name in searches:
            monkeypatch.setattr(solver, name, spied(name))
        monkeypatch.setattr(solver, "_line_search", search)
        crack_patch(sent_params)

        u_calls, beta_calls = searches["newton_u"], searches["newton_beta"]
        for calls in (u_calls, beta_calls):
            assert any(t < 1.0 for call in calls for _, t in call[:-1])
        for call in u_calls:
            assert [start for start, _ in call[1:]] == [t for _, t in call[:-1]]
        assert all(start == 1.0 for call in beta_calls for start, _ in call)


class TestAlternateMinimize:
    def test_zero_lifting_one_alternation(self, sent_params):
        mesh, kern, dm = make_patch()
        z = np.zeros(2 * mesh.n_nodes)
        a0 = np.zeros(mesh.n_nodes)
        res = alternate(z, a0, a0, z, kern, sent_params, SolverConfig(), dm)
        assert res.alt_iters == 1
        assert np.all(res.u == 0.0) and np.all(res.a == 0.0)

    def test_monotone_descent_trace(self, sent_params):
        mesh, kern, dm = make_patch(divisions=3)
        u_d = stretch_lifting(mesh, 0.0, 5e-3)
        a0 = np.zeros(mesh.n_nodes)
        res = alternate(np.zeros(2 * mesh.n_nodes), a0, a0, u_d, kern, sent_params, SolverConfig(), dm)
        f = res.functional_trace
        assert len(f) == res.alt_iters
        for i in range(len(f) - 1):
            assert f[i + 1] <= f[i] + 1e-10 * (1 + abs(f[i]))

    def test_kkt_at_tight_tolerance(self, sent_params, rng):
        # biaxial (definite) stretch keeps the state off the split kinks, so
        # the discrete KKT system holds to solver precision
        mesh, kern, dm = make_clamped_patch()
        u_d = stretch_lifting(mesh, 2e-3, 3e-3, bump=1e-5, rng=rng)
        a0 = np.zeros(mesh.n_nodes)
        cfg = SolverConfig(tol_u=1e-10, tol_a=1e-10)
        res = alternate(np.zeros(2 * mesh.n_nodes), a0, a0, u_d, kern, sent_params, cfg, dm)
        force_scale = 1.0 + np.abs(internal_force(res.u, u_d, res.a, kern, sent_params)).max()
        r_u, _ = displacement_system(res.u, u_d, res.a, kern, sent_params, dm)
        assert np.abs(r_u).max() <= 1e-8 * force_scale
        r_b = damage_system(res.u, u_d, res.a, a0, kern, sent_params)[0]
        slack = 1e-6
        grown = (res.a > a0 + slack) & (res.a < 1.0 - slack)
        assert np.abs(r_b[grown]).max() <= 1e-6
        assert res.a.min() >= -slack and res.a.max() <= 1.0 + slack

    def test_deterministic(self, sent_params):
        mesh, kern, dm = make_patch(divisions=3)
        u_d = stretch_lifting(mesh, 0.0, 4e-3)
        a0 = np.zeros(mesh.n_nodes)
        r1 = alternate(np.zeros(2 * mesh.n_nodes), a0, a0, u_d, kern, sent_params, SolverConfig(), dm)
        r2 = alternate(np.zeros(2 * mesh.n_nodes), a0, a0, u_d, kern, sent_params, SolverConfig(), dm)
        assert np.array_equal(r1.u, r2.u)
        assert np.array_equal(r1.a, r2.a)
        assert r1.functional_trace == r2.functional_trace

    def test_one_decomposition_per_displacement_state(self, sent_params, monkeypatch):
        # a stretch band cracks the patch, so the line searches back off;
        # every displacement state (the start and each line-search trial)
        # is decomposed once, and its spectrum serves its merit, residual
        # and tangent and the damage solve that follows
        mesh, kern, dm = make_patch(divisions=3)
        u_d = np.zeros(2 * mesh.n_nodes)
        u_d[1::2] = 0.04 * np.maximum(mesh.nodes[:, 1] - 0.5, 0.0)
        counts = {"spectrum": 0, "merit": 0}
        real_init, real_merit = StrainSpectrum.__init__, solver.erg_from_psi

        def spectrum_init(self, voigt):
            counts["spectrum"] += 1
            real_init(self, voigt)

        def merit(*args):
            counts["merit"] += 1
            return real_merit(*args)

        monkeypatch.setattr(StrainSpectrum, "__init__", spectrum_init)
        monkeypatch.setattr(solver, "erg_from_psi", merit)
        a0 = np.zeros(mesh.n_nodes)
        res = alternate(np.zeros(2 * mesh.n_nodes), a0, a0, u_d, kern, sent_params, SolverConfig(), dm)
        # each displacement solve evaluates the merit of its start once and
        # of each trial once; only the first start is a new state
        trials = counts["merit"] - res.alt_iters
        assert res.a.max() > 0.3 and trials > res.newton_iters_u
        assert counts["spectrum"] == 1 + trials
        assert trials == res.trials_u

    def test_each_state_evaluated_once(self, sent_params, monkeypatch):
        # on the cracking patch, two solves in a row (the second starts from
        # the first's state, as the driver's next step does): a displacement
        # state's energy densities are computed once per spectrum, the
        # damage quadrature fields once per damage merit (each iterate's,
        # the trials', and each solve's start), which is beta's only use;
        # the anchor's dissipation is given, and no degradation weights are
        # computed from scratch
        mesh, kern, dm = make_patch(divisions=3)
        u_d = np.zeros(2 * mesh.n_nodes)
        u_d[1::2] = 0.04 * np.maximum(mesh.nodes[:, 1] - 0.5, 0.0)
        names = ("strain_spectrum", "psi_split", "dis", "beta_at_qp", "degradation_weights")
        counts = dict.fromkeys(names, 0)
        for module in (fem, energetics, solver):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(getattr(module, name), name, counts))
        a0 = np.zeros(mesh.n_nodes)
        rw = fem.degradation_weights(kern, a0, sent_params)
        u, a = np.zeros(2 * mesh.n_nodes), a0
        for scale in (1.0, 1.1):
            dis_n = dis(a, kern, sent_params)
            counts.update(dict.fromkeys(names, 0))
            res = alternate_minimize(u, a, rw, a, dis_n, scale * u_d, kern, sent_params, SolverConfig(), dm)
            assert res.alt_iters > 1 and res.a.max() > 0.3
            assert 0 < counts["psi_split"] <= counts["strain_spectrum"]
            assert counts["dis"] == 0
            assert 0 < counts["beta_at_qp"] <= res.trials_beta + res.alt_iters
            assert counts["degradation_weights"] == 0
            assert np.array_equal(res.rw, fem.degradation_weights(kern, res.a, sent_params))
            u, a, rw = res.u, res.a, res.rw

    def test_warm_started_search_keeps_every_iterate(self, sent_params, monkeypatch):
        # the cracking patch above with every displacement search forced to
        # start from 1, the plain scan down: the same states, counts and
        # trace bit for bit.  Only the merit count differs (here the warm
        # start takes more: a search after a step of 2^-10 climbs back to
        # 2^-1; on the sent@0.1 path it takes about a third of the scan's)
        mesh, kern, dm = make_patch(divisions=3)
        u_d = np.zeros(2 * mesh.n_nodes)
        u_d[1::2] = 0.04 * np.maximum(mesh.nodes[:, 1] - 0.5, 0.0)
        a0 = np.zeros(mesh.n_nodes)
        merits = []
        real_merit, real_newton_u = solver.erg_from_psi, solver.newton_u

        def merit(*args):
            merits[-1] += 1
            return real_merit(*args)

        def from_one(*args, **kwargs):
            kwargs["step"] = 1.0
            return real_newton_u(*args, **kwargs)

        monkeypatch.setattr(solver, "erg_from_psi", merit)
        results = []
        for newton_u in (real_newton_u, from_one):
            monkeypatch.setattr(solver, "newton_u", newton_u)
            merits.append(0)
            results.append(alternate(np.zeros(2 * mesh.n_nodes), a0, a0, u_d, kern, sent_params, SolverConfig(), dm))
        warm, cold = results
        assert np.array_equal(warm.u, cold.u) and np.array_equal(warm.a, cold.a)
        assert warm.functional_trace == cold.functional_trace
        counts = ("alt_iters", "newton_iters_u", "newton_iters_beta", "trials_beta")
        assert [getattr(warm, c) for c in counts] == [getattr(cold, c) for c in counts]
        assert warm.a.max() > 0.3
        assert merits == [warm.alt_iters + warm.trials_u, cold.alt_iters + cold.trials_u]
        assert warm.trials_u != cold.trials_u

    def test_trace_is_total_functional(self, sent_params, monkeypatch):
        # the damage solve's merit of its result is the trace entry, equal
        # bit for bit to the plainly summed merit evaluated from scratch
        mesh, kern, dm = make_patch(divisions=3)
        u_d = np.zeros(2 * mesh.n_nodes)
        u_d[1::2] = 0.04 * np.maximum(mesh.nodes[:, 1] - 0.5, 0.0)
        a_n = np.zeros(mesh.n_nodes)
        displacements, states = [], []
        real_newton_u, real_newton_beta = solver.newton_u, solver.newton_beta

        def spy_u(*args, **kwargs):
            out = real_newton_u(*args, **kwargs)
            displacements.append(out[0])
            return out

        def spy_beta(a0, a_n, *rest):
            out = real_newton_beta(a0, a_n, *rest)
            states.append((out[0], a_n))
            return out

        monkeypatch.setattr(solver, "newton_u", spy_u)
        monkeypatch.setattr(solver, "newton_beta", spy_beta)
        res = alternate(np.zeros(2 * mesh.n_nodes), a_n, a_n, u_d, kern, sent_params, SolverConfig(), dm)
        assert len(res.functional_trace) == len(displacements) == len(states) == res.alt_iters > 1
        for f, u, (a, an) in zip(res.functional_trace, displacements, states):
            assert f == damage_merit(u, u_d, a, an, kern, sent_params)

    def test_failure_carries_alternation_start(self, sent_params, monkeypatch):
        # a damage solve failing in the second alternation of the cracking
        # patch: the failure leaves with that alternation's starting state,
        # the first alternation's result
        mesh, kern, dm = make_patch(divisions=3)
        u_d = np.zeros(2 * mesh.n_nodes)
        u_d[1::2] = 0.04 * np.maximum(mesh.nodes[:, 1] - 0.5, 0.0)
        a_n = np.zeros(mesh.n_nodes)
        results = []
        real_newton_u, real_newton_beta = solver.newton_u, solver.newton_beta

        def spy_u(*args, **kwargs):
            out = real_newton_u(*args, **kwargs)
            results.append(out[0])
            return out

        def fail_second(*args):
            if len(results) == 3:  # the first alternation's (u, a), then u
                raise StepFailure("newton_beta: no convergence in 0 iterations")
            out = real_newton_beta(*args)
            results.append(out[0])
            return out

        monkeypatch.setattr(solver, "newton_u", spy_u)
        monkeypatch.setattr(solver, "newton_beta", fail_second)
        with pytest.raises(StepFailure) as exc:
            alternate(np.zeros(2 * mesh.n_nodes), a_n, a_n, u_d, kern, sent_params, SolverConfig(), dm)
        u_first, a_first, u_second = results[:3]
        assert len(results) == 3 and a_first.max() > 0.0
        assert np.array_equal(exc.value.u, u_first) and np.array_equal(exc.value.a, a_first)
        assert not np.array_equal(exc.value.u, u_second)

    def test_failure_carries_best_state(self, sent_params):
        mesh, kern, dm = make_patch(divisions=3)
        u_d = stretch_lifting(mesh, 0.0, 5e-3)
        a0 = np.zeros(mesh.n_nodes)
        cfg = SolverConfig(max_alt=1)
        with pytest.raises(StepFailure) as exc:
            alternate(np.zeros(2 * mesh.n_nodes), a0, a0, u_d, kern, sent_params, cfg, dm)
        assert exc.value.u is not None and exc.value.a is not None

    def test_descent_across_half_steps(self, sent_params):
        # F(u_new, a_old) <= F(u_old, a_old) and F(u_new, a_new) <= F(u_new, a_old)
        mesh, kern, dm = make_patch(divisions=3)
        u_d = stretch_lifting(mesh, 0.0, 5e-3)
        a_n = np.zeros(mesh.n_nodes)
        u = np.zeros(2 * mesh.n_nodes)
        a = a_n.copy()
        cfg = SolverConfig()
        for _ in range(4):
            f0 = total_functional(u, u_d, a, a_n, kern, sent_params)
            u_new, _, _ = newton_u_from(u, u_d, a, kern, sent_params, cfg, dm)
            f1 = total_functional(u_new, u_d, a, a_n, kern, sent_params)
            a_new, _, _ = newton_beta_at(a, u_new, u_d, a_n, kern, sent_params, cfg)
            f2 = total_functional(u_new, u_d, a_new, a_n, kern, sent_params)
            assert f1 <= f0 + 1e-10 * (1 + abs(f0))
            assert f2 <= f1 + 1e-10 * (1 + abs(f1))
            u, a = u_new, a_new
