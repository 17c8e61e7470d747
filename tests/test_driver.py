import copy

import numpy as np
import pytest

from conftest import box_mesh, made_states, scripted_checks, with_dissipation
from oracles import bulk_energy, dirichlet_partition, fresh_check
from pffrac.cli import _apply_overrides, resolve_config
import pffrac.driver as driver
import pffrac.solver as solver
from pffrac.driver import (
    BacktrackConfig,
    DirichletSpec,
    LoadProgram,
    RunHistory,
    SolveRecord,
    advance,
    build_dofmap,
    run,
)
from pffrac import energetics
from pffrac.energetics import INITIAL_REPORT, dis, grad_term
from pffrac.fem import build_kernels, degradation_weights, reaction_force, strain_spectrum
from pffrac.material import StrainSpectrum, psi_split
from pffrac.presets import load_preset
from pffrac.solver import SolverConfig, StepFailure


def tension_program(n_steps=6, dw=5e-5):
    return LoadProgram(
        n_steps=n_steps,
        dw=dw,
        bcs=(
            DirichletSpec("ymin", 1, 0.0),
            DirichletSpec("ymax", 1, 1.0),
            DirichletSpec("xmin", 0, 0.0),
        ),
    )


@pytest.fixture
def patch():
    return box_mesh([1.0, 1.0], [3, 3])


class TestLifting:
    def test_step_zero_is_zero(self, patch):
        prog = tension_program()
        assert np.all(prog.w(0) * build_dofmap(patch, prog).load == 0.0)

    def test_step_arithmetic(self, patch):
        prog = tension_program(n_steps=12, dw=1e-5)
        u_d = prog.w(10) * build_dofmap(patch, prog).load
        top = patch.node_sets["ymax"]
        assert np.allclose(u_d[2 * top + 1], 1e-4)
        assert np.all(u_d[2 * patch.node_sets["ymin"] + 1] == 0.0)

    def test_shear_style_constraints(self, patch):
        prog = LoadProgram(
            n_steps=4,
            dw=1e-4,
            bcs=(
                DirichletSpec("ymin", 1, 0.0),
                DirichletSpec("ymax", 1, 0.0),
                DirichletSpec("xmin", 1, 0.0),
                DirichletSpec("xmax", 1, 0.0),
                DirichletSpec("ymin", 0, 0.0),
                DirichletSpec("ymax", 0, 1.0),
            ),
        )
        u_d = prog.w(3) * build_dofmap(patch, prog).load
        top = patch.node_sets["ymax"]
        assert np.allclose(u_d[2 * top], 3e-4)  # horizontal = n*dw
        for tag in ("ymin", "ymax", "xmin", "xmax"):
            assert np.all(u_d[2 * patch.node_sets[tag] + 1] == 0.0)

    def test_lifting_is_w_times_the_load_vector(self, patch, sent_params):
        # g holds each spec's scale on its dofs, a later spec overwriting an
        # earlier one, and the lifting a run records at step n is w(n) * g
        # bit for bit
        prog = LoadProgram(
            n_steps=3, dw=1e-4, bcs=(DirichletSpec("xmax", 0, 2.0), DirichletSpec("ymax", 0, 0.5))
        )
        g = build_dofmap(patch, prog).load
        xmax, ymax = patch.node_sets["xmax"], patch.node_sets["ymax"]
        want = np.zeros(2 * patch.n_nodes)
        want[2 * xmax] = 2.0
        want[2 * ymax] = 0.5
        assert np.array_equal(g, want) and np.intersect1d(xmax, ymax).size == 1
        tension = tension_program(n_steps=2)
        hist = run(tension, BacktrackConfig(), SolverConfig(), sent_params, patch)
        g = build_dofmap(patch, tension).load
        for rec in hist.steps:
            assert rec.u_d.tobytes() == (tension.w(rec.step) * g).tobytes()

    @pytest.mark.parametrize("name, scale", [("sent", 0.05), ("sens", 0.02), ("lshape", 0.15), ("bend3d", 0.1)])
    def test_dofmap_is_the_per_spec_partition(self, name, scale):
        # the one walk gives bitwise the free mask and the load vector of
        # the specs taken one at a time
        setup = load_preset(name, scale)
        dm = build_dofmap(setup.mesh, setup.program)
        fixed, load = dirichlet_partition(setup.mesh, setup.program)
        assert dm.free.dtype == bool and np.array_equal(np.flatnonzero(~dm.free), fixed)
        assert dm.load.dtype == load.dtype and dm.load.tobytes() == load.tobytes()

    def test_a_later_spec_overwrites_an_earlier_scale(self, patch):
        # one component constrained twice with different scales, and
        # another partly by two specs: each dof is fixed once and takes its
        # last spec's scale
        prog = LoadProgram(
            n_steps=1,
            dw=1e-4,
            bcs=(
                DirichletSpec("xmax", 0, 2.0),
                DirichletSpec("ymin", 1, 0.0),
                DirichletSpec("ymax", 1, 1.5),
                DirichletSpec("xmax", 0, -0.5),
                DirichletSpec("xmax", 1, 0.25),
            ),
        )
        dm = build_dofmap(patch, prog)
        fixed, load = dirichlet_partition(patch, prog)
        assert np.array_equal(np.flatnonzero(~dm.free), fixed) and dm.load.tobytes() == load.tobytes()
        xmax, ymax = patch.node_sets["xmax"], patch.node_sets["ymax"]
        assert np.all(dm.load[2 * xmax] == -0.5) and np.all(dm.load[2 * xmax + 1] == 0.25)
        assert np.all(dm.load[2 * np.setdiff1d(ymax, xmax) + 1] == 1.5)

    def test_unknown_set(self, patch):
        prog = LoadProgram(n_steps=2, dw=1e-4, bcs=(DirichletSpec("nope", 0, 1.0),))
        with pytest.raises(KeyError):
            build_dofmap(patch, prog)

    def test_run_rejects_zero_dw_before_any_work(self):
        # a program whose dw is 0, of either sign, loads nothing: it is a
        # range error of the program, which names its field, so no run of
        # it can start
        bcs = (DirichletSpec("ymin", 1, 0.0), DirichletSpec("ymax", 1, 1.0))
        for dw in (0.0, -0.0):
            with pytest.raises(ValueError) as err:
                LoadProgram(n_steps=2, dw=dw, bcs=bcs)
            assert str(err.value) == f"dw = {dw!r} must not be 0: the program loads nothing"


class TestRun:
    def test_k0_never_backtracks(self, patch, sent_params):
        hist = run(tension_program(), BacktrackConfig(k_back=0), SolverConfig(), sent_params, patch)
        assert hist.backtracks == []
        assert hist.n_accepted == 6
        assert not hist.aborted

    def test_monotone_damage_and_dissipation(self, patch, sent_params, monkeypatch):
        state = made_states(monkeypatch)
        hist = run(
            tension_program(n_steps=8, dw=2e-4),
            BacktrackConfig(k_back=5),
            SolverConfig(),
            sent_params,
            patch,
        )
        slack = 2 * sent_params.eps_pen * sent_params.gc / sent_params.ell
        d_sum = 0.0
        for prev, rec in zip(hist.steps, hist.steps[1:]):
            assert np.all(state(rec).a >= state(prev).a - slack)
            assert rec.report.d_inc >= -1e-8 * (1 + d_sum)
            d_sum += rec.report.d_inc
        assert d_sum >= 0.0

    def test_passed_when_backtracking_enabled(self, patch, sent_params):
        hist = run(
            tension_program(n_steps=8, dw=2e-4),
            BacktrackConfig(k_back=5),
            SolverConfig(),
            sent_params,
            patch,
        )
        assert all(r.report.passed for r in hist.steps[1:])
        assert hist.k_exhausted_steps == []

    def test_abort_returns_partial_history(self, patch, sent_params):
        hist = run(
            tension_program(n_steps=6, dw=2e-4),
            BacktrackConfig(k_back=0),
            SolverConfig(max_alt=1),
            sent_params,
            patch,
        )
        assert hist.aborted
        assert "alternate_minimize" in hist.abort_reason
        assert hist.n_accepted < 6

    def test_replay_reproduces_bitwise(self, patch, sent_params, monkeypatch):
        # every solve, the discarded ones included, is a function of its
        # arguments alone: re-running it from a copy of them gives the same
        # result bit for bit, and each accepted state is one of those results;
        # each solve is given the degradation weights of its start damage
        # and the dissipation of its anchor
        solves = []
        real = driver.alternate_minimize

        def spy(*args):
            saved = [np.copy(x) if isinstance(x, np.ndarray) else x for x in args]
            res = real(*args)
            solves.append((saved, res))
            return res

        monkeypatch.setattr(driver, "alternate_minimize", spy)
        scripted_checks(monkeypatch, lambda step, nth: step == 4 and nth == 1)
        state = made_states(monkeypatch)
        prog = tension_program(n_steps=5, dw=2e-4)
        hist = run(prog, BacktrackConfig(k_back=3), SolverConfig(), sent_params, patch)
        assert hist.n_accepted == 5 and hist.backtracks
        # steps 1-4, step 3 again as the back step, then steps 4 and 5
        assert len(solves) == 7

        kern = build_kernels(patch)
        for args, res in solves:
            assert np.array_equal(args[2], degradation_weights(kern, args[1], sent_params))
            assert np.array_equal(res.rw, degradation_weights(kern, res.a, sent_params))
            again = real(*args)
            assert np.array_equal(again.u, res.u)
            assert np.array_equal(again.a, res.a)
            counts = ("alt_iters", "newton_iters_u", "newton_iters_beta", "trials_u", "trials_beta")
            assert [getattr(again, c) for c in counts] == [getattr(res, c) for c in counts]
            assert again.functional_trace == res.functional_trace
        # each accepted state comes from a solve anchored at the damage the
        # history accepted one step earlier, under that step's own lifting
        g = build_dofmap(patch, prog).load
        for prev, rec in zip(hist.steps, hist.steps[1:]):
            found = [
                args for args, r in solves
                if np.array_equal(state(rec).u, r.u) and np.array_equal(state(rec).a, r.a)
            ]
            assert found
            for args in found:
                assert np.array_equal(args[3], state(prev).a)
                assert args[4] == prev.dissipation == dis(state(prev).a, kern, sent_params)
                assert np.array_equal(args[5], prog.w(rec.step) * g)


class TestReusedDecomposition:
    def test_records_match_fresh_evaluation(self, patch, sent_params, monkeypatch):
        # each solved state is decomposed once, by the solver: outside it
        # the driver decomposes, per check, the two cross-lifting energies
        # and nothing before the first solve; each solve's reaction is
        # computed once, and the unloaded initial state's not at all; and
        # every stored figure, the initial record's too, is the one a fresh
        # evaluation gives, bit for bit, across a back step: the lifting,
        # the weights, the bulk and gradient energies, the dissipation, the
        # reaction and the report
        counts = {"outside": 0, "solves": 0, "reactions": 0}
        inside = []
        real_init, real_solve, real_reaction = StrainSpectrum.__init__, driver.alternate_minimize, reaction_force

        def spectrum_init(self, voigt):
            counts["outside"] += not inside
            real_init(self, voigt)

        def solve(*args):
            counts["solves"] += 1
            inside.append(True)
            try:
                return real_solve(*args)
            finally:
                inside.pop()

        def reaction(*args):
            counts["reactions"] += 1
            return real_reaction(*args)

        monkeypatch.setattr(StrainSpectrum, "__init__", spectrum_init)
        monkeypatch.setattr(driver, "alternate_minimize", solve)
        monkeypatch.setattr(driver, "reaction_force", reaction)
        checks = scripted_checks(monkeypatch, lambda step, nth: step == 3 and nth == 1)
        state = made_states(monkeypatch)
        prog = tension_program(n_steps=4, dw=2e-4)
        hist = run(prog, BacktrackConfig(k_back=3), SolverConfig(), sent_params, patch)
        assert hist.backtracks and len(checks) == counts["solves"] == 6
        assert counts["reactions"] == counts["solves"]
        assert counts["outside"] == 2 * len(checks)
        monkeypatch.undo()

        kern = build_kernels(patch)
        g = build_dofmap(patch, prog).load
        for prev, rec in zip([None] + hist.steps[:-1], hist.steps):
            u_d = prog.w(rec.step) * g
            st = state(rec)
            spectrum = strain_spectrum(kern, st.u + u_d)
            rw = degradation_weights(kern, st.a, sent_params)
            assert st.u_d.tobytes() == u_d.tobytes()
            assert st.rw.tobytes() == rw.tobytes()
            assert rec.bulk_energy == bulk_energy(st.u, u_d, st.a, kern, sent_params)
            assert rec.grad_energy == grad_term(st.a, kern, sent_params)
            assert rec.dissipation == dis(st.a, kern, sent_params)
            assert rec.reaction == reaction_force(spectrum, rw, kern, sent_params, g)
            want = INITIAL_REPORT if prev is None else fresh_check(
                state(prev).u, prog.w(prev.step) * g, state(prev).a, st.u, u_d, st.a, kern, sent_params,
                BacktrackConfig().eta,
            )
            assert rec.report == want

    def test_bulk_energy_is_the_displacement_merit(self, patch, sent_params, monkeypatch):
        # one sum gives both: each record's bulk energy is, bit for bit, the
        # merit that the displacement solve takes of the record's state as
        # its start
        state = made_states(monkeypatch)
        prog = tension_program(n_steps=4, dw=2e-4)
        hist = run(prog, BacktrackConfig(), SolverConfig(), sent_params, patch)
        monkeypatch.undo()
        kern = build_kernels(patch)
        dofmap = build_dofmap(patch, prog)
        merits = []
        real_merit = solver.erg_from_psi

        def merit(*args):
            merits.append(real_merit(*args))
            return merits[-1]

        monkeypatch.setattr(solver, "erg_from_psi", merit)
        for rec in hist.steps[1:]:
            st = state(rec)
            assert st.a.max() > 0.0
            spectrum = strain_spectrum(kern, st.u + st.u_d)
            merits.clear()
            start = (spectrum, *psi_split(spectrum, sent_params))
            solver.newton_u(st.u, st.u_d, st.rw, kern, sent_params, SolverConfig(), dofmap, start)
            assert np.float64(merits[0]).tobytes() == np.float64(rec.bulk_energy).tobytes()

    @pytest.mark.parametrize("dissipation", ["AT2", "AT1"])
    def test_initial_dissipation_is_dis_of_zero_damage(self, patch, sent_params, dissipation):
        # the unloaded initial record's dissipation is not evaluated: its
        # 0.0 is dis(0) bit for bit, the anchor dissipation of the first
        # solve and the current-state term of the first check
        p = with_dissipation(sent_params, dissipation)
        hist = run(tension_program(n_steps=1), BacktrackConfig(), SolverConfig(), p, patch)
        initial = hist.steps[0]
        want = dis(np.zeros(patch.n_nodes), build_kernels(patch), p)
        assert np.float64(initial.dissipation).tobytes() == np.float64(want).tobytes()
        assert np.all(initial.u_d == 0.0) and initial.u_d.size == initial.u.size

    def test_solved_state_not_evaluated_again(self, patch, sent_params, monkeypatch):
        # on a run that cracks the patch: before the first solve the driver
        # builds the dof map, the run's one, and the weights of the
        # initial state, which it does not evaluate otherwise; once the
        # first solve starts, it computes no energy densities of its own
        # (the solve hands on the final state's densities) and one gradient
        # energy and one dissipation per solve, the state's, which the next
        # solve and check read again; each check computes the two
        # cross-lifting bulk energies (two ergs, two sets of densities) and
        # no dissipation, gradient energy or weights
        calls = {}
        # where the calls happen: step 0 until the first solve, then the
        # driver, and the solve or the check while one runs
        where = ["step 0"]

        def counted(fn, name):
            def wrapper(*args, **kw):
                calls[where[-1], name] = calls.get((where[-1], name), 0) + 1
                return fn(*args, **kw)

            return wrapper

        def within(fn, label):
            def wrapper(*args, **kw):
                where[0] = "driver"
                where.append(label)
                try:
                    return fn(*args, **kw)
                finally:
                    where.pop()

            return wrapper

        names = ("psi_split", "erg", "dis", "grad_term", "degradation_weights", "build_dofmap")
        for module in (driver, energetics):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(getattr(module, name), name))
        monkeypatch.setattr(driver, "alternate_minimize", within(driver.alternate_minimize, "solve"))
        monkeypatch.setattr(driver, "check_two_sided", within(driver.check_two_sided, "check"))
        hist = run(tension_program(n_steps=4, dw=1e-2), BacktrackConfig(), SolverConfig(), sent_params, patch)
        assert not hist.aborted and hist.steps[-1].a.max() == 1.0
        solves = len(hist.solves)
        assert calls == {
            ("step 0", "build_dofmap"): 1,
            ("step 0", "degradation_weights"): 1,
            ("driver", "grad_term"): solves,
            ("driver", "dis"): solves,
            ("check", "erg"): 2 * solves,
            ("check", "psi_split"): 2 * solves,
        }


class TestBacktrackBookkeeping:
    def test_scripted_failure_walks_back_and_resolves(self, patch, sent_params, monkeypatch):
        # fail the first evaluation of the pair (2, 3), pass everything else:
        # the driver must step back once, re-solve step 2 with the discarded
        # state as guess, then traverse forward through step 3 again
        scripted_checks(monkeypatch, lambda step, nth: step == 3 and nth == 1)
        prog = tension_program(n_steps=4)
        hist = run(prog, BacktrackConfig(k_back=5), SolverConfig(), sent_params, patch)

        assert [(r.round_of, r.step, r.b) for r in hist.backtracks] == [(3, 2, 1)]
        assert len(hist.intermediates) == 2  # the discarded attempt + the re-solve
        assert [r.step for r in hist.intermediates] == [3, 2]
        assert hist.n_accepted == 4
        assert all(r.report.passed for r in hist.steps[1:])
        # step indices remain contiguous after the replacement
        assert [r.step for r in hist.steps] == [0, 1, 2, 3, 4]

    def test_k_exhaustion_accepts_with_flag(self, patch, sent_params, monkeypatch):
        scripted_checks(monkeypatch, lambda step, nth: step == 3)
        prog = tension_program(n_steps=4)
        hist = run(prog, BacktrackConfig(k_back=2), SolverConfig(), sent_params, patch)
        # the budget for target 3 is consumed over repeated failure rounds;
        # once exhausted the step is accepted with a failed flag
        assert 3 in hist.k_exhausted_steps
        assert hist.n_accepted == 4
        assert [(r.round_of, r.b) for r in hist.backtracks] == [(3, 1), (3, 2)]
        assert not hist.steps[3].report.passed

    def test_one_record_per_solve(self, patch, sent_params, monkeypatch):
        # a two-step walk-back, a second round of the same target that
        # exhausts its budget, then an abort: the log holds one record per
        # completed solve, in call order, with that solve's state and counts,
        # and the accepted chain and the back-step views are taken from it
        results = []
        real_solve = driver.alternate_minimize

        def solve(*args):
            if len(results) == 9:
                raise StepFailure("scripted failure")
            results.append(real_solve(*args))
            return results[-1]

        monkeypatch.setattr(driver, "alternate_minimize", solve)
        # target 3 always fails; target 2 fails on its first re-solve
        checks = scripted_checks(monkeypatch, lambda step, nth: step == 3 or (step == 2 and nth == 2))
        state = made_states(monkeypatch)
        hist = run(tension_program(n_steps=5), BacktrackConfig(k_back=3), SolverConfig(), sent_params, patch)

        assert hist.aborted and hist.abort_reason == "scripted failure"
        assert [r.step for r in hist.solves] == [1, 2, 3, 2, 1, 2, 3, 2, 3]
        assert len(hist.solves) == len(results) == len(checks) == 9
        for rec, res in zip(hist.solves, results):
            assert state(rec).u is res.u and state(rec).a is res.a
            assert (rec.alt_iters, rec.newton_iters_u, rec.newton_iters_beta) == (
                res.alt_iters, res.newton_iters_u, res.newton_iters_beta
            )
        assert [(r.round_of, r.b) for r in hist.solves] == [
            (None, 0), (None, 0), (3, 0), (3, 1), (3, 2), (None, 0), (3, 2), (3, 3), (None, 0)
        ]
        assert [(r.step, r.b, r.report.passed) for r in hist.intermediates] == [
            (3, 0, False), (2, 1, False), (1, 2, True), (3, 2, False), (2, 3, True)
        ]
        assert [(r.round_of, r.step, r.b) for r in hist.backtracks] == [(3, 2, 1), (3, 1, 2), (3, 2, 3)]
        assert [r.step for r in hist.steps] == [0, 1, 2, 3]
        assert hist.steps[0].report is INITIAL_REPORT and all(r is not hist.steps[0] for r in hist.solves)
        assert [next(i for i, r in enumerate(hist.solves) if r is s) for s in hist.steps[1:]] == [4, 7, 8]
        assert hist.k_exhausted_steps == [3]

    def test_history_is_the_whole_state(self, patch, sent_params, monkeypatch):
        # a copy of the history taken between two steps, in the middle of a
        # target's budget, continues on freshly built kernels to the same
        # solves, bit for bit, as one uninterrupted run: the running guess,
        # its weights, the step and the spent budget are all in the history
        scripted_checks(monkeypatch, lambda step, nth: step == 3)
        state = made_states(monkeypatch)
        prog, bt, cfg = tension_program(n_steps=4), BacktrackConfig(k_back=2), SolverConfig()
        whole = run(prog, bt, cfg, sent_params, patch)

        kern, dofmap = build_kernels(patch), build_dofmap(patch, prog)
        a0 = np.zeros(patch.n_nodes)
        initial = SolveRecord(
            u=np.zeros_like(dofmap.load), u_d=np.zeros_like(dofmap.load), rw=degradation_weights(kern, a0, sent_params),
            bulk_energy=0.0, grad_energy=0.0, dissipation=0.0, step=0, a=a0, reaction=0.0, report=INITIAL_REPORT,
        )
        first = RunHistory(steps=[initial])
        for _ in range(3):
            advance(first, prog, bt, cfg, sent_params, kern, dofmap)
        assert [(r.step, r.round_of, r.b) for r in first.solves[2:]] == [(3, 3, 0), (2, 3, 1)]
        second = copy.deepcopy(first)
        kern = build_kernels(patch)
        while second.n_accepted < prog.n_steps:
            advance(second, prog, bt, cfg, sent_params, kern, dofmap)

        fields = ("step", "reaction", "round_of", "b", "alt_iters", "newton_iters_u", "newton_iters_beta",
                  "trials_u", "trials_beta")
        assert [r.step for r in second.solves] == [r.step for r in whole.solves] == [1, 2, 3, 2, 3, 2, 3, 4]
        for got, want in zip(second.solves, whole.solves):
            assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
        # the states, as each solve made them: the copy's first solves are
        # the ones made before it was taken
        made = first.solves + second.solves[len(first.solves) :]
        for got, want in zip(made, whole.solves):
            assert state(got).u.tobytes() == state(want).u.tobytes()
            assert state(got).a.tobytes() == state(want).a.tobytes()
        assert [r.step for r in second.steps] == [0, 1, 2, 3, 4] and second.k_exhausted_steps == [3]

    def test_states_outside_the_window_are_dropped(self, patch, sent_params, monkeypatch):
        # after a run with K = 2 that walks back, only the last three
        # accepted records hold their arrays, the last of them the running
        # guess; every other record, the discarded solve and the steps below
        # the window, keeps its scalars, as the same run with K = 50, whose
        # window holds the whole chain, has them; with K = 0 only the last
        # accepted record holds its arrays
        arrays = ("u", "u_d", "rw", "a")
        scalars = ("step", "round_of", "b", "report", "reaction", "bulk_energy", "grad_energy", "dissipation",
                   "alt_iters", "newton_iters_u", "newton_iters_beta", "trials_u", "trials_beta")
        def scripted_run(k_back):
            monkeypatch.undo()
            scripted_checks(monkeypatch, lambda step, nth: step == 5 and nth == 1)
            return run(tension_program(n_steps=6), BacktrackConfig(k_back), SolverConfig(), sent_params, patch)

        hist, whole = scripted_run(2), scripted_run(50)
        assert [r.step for r in hist.solves] == [1, 2, 3, 4, 5, 4, 5, 6] and len(hist.backtracks) == 1

        records, wholes = [hist.steps[0], *hist.solves], [whole.steps[0], *whole.solves]
        held = [id(r) for r in records if hasattr(r, "a")]
        assert held == [id(r) for r in hist.steps[-3:]] and held[-1] == id(hist.solves[-1])
        for rec, want in zip(records, wholes):
            assert [getattr(rec, f) for f in scalars] == [getattr(want, f) for f in scalars]
            if id(rec) in held:
                assert all(getattr(rec, f).tobytes() == getattr(want, f).tobytes() for f in arrays)
            else:
                assert not any(hasattr(rec, f) for f in arrays)
        assert all(hasattr(r, f) for r in whole.steps for f in arrays)  # K = 50 holds the whole chain

        plain = run(tension_program(n_steps=4), BacktrackConfig(k_back=0), SolverConfig(), sent_params, patch)
        assert [id(r) for r in [plain.steps[0], *plain.solves] if hasattr(r, "a")] == [id(plain.steps[-1])]

    def test_dropped_records_print_and_compare_by_identity(self, patch, sent_params, monkeypatch):
        # after a run with K = 2 that walks back, the records outside the
        # window have dropped their arrays; each logged record still prints
        # its scalars, naming its step, and records compare by identity
        # without reading an array
        scripted_checks(monkeypatch, lambda step, nth: step == 5 and nth == 1)
        hist = run(tension_program(n_steps=6), BacktrackConfig(k_back=2), SolverConfig(), sent_params, patch)
        assert not hasattr(hist.solves[0], "a") and len(hist.backtracks) == 1
        for rec in hist.solves:
            assert f"step={rec.step}," in repr(rec)
        assert hist.solves[0] not in hist.solves[1:]
        assert hist.solves[-1] == hist.steps[-1]

    def test_walk_back_stops_k_below_the_highest_target(self, patch, sent_params, monkeypatch):
        # K = 2: target 6 walks back two steps, to step 4; then target 5
        # fails, and its walk-back stops at step 4, two below the highest
        # target, where step 3's record is the lowest that is held; step 4
        # is accepted with its check failed, as when the budget is spent
        scripted_checks(monkeypatch, lambda step, nth: (step, nth) in {(6, 1), (5, 2), (5, 3), (4, 3)})
        hist = run(tension_program(n_steps=7), BacktrackConfig(k_back=2), SolverConfig(), sent_params, patch)
        assert not hist.aborted and hist.n_accepted == 7
        assert [r.step for r in hist.solves] == [1, 2, 3, 4, 5, 6, 5, 4, 5, 4, 5, 6, 7]
        assert [(r.round_of, r.step, r.b) for r in hist.backtracks] == [(6, 5, 1), (6, 4, 2), (5, 4, 1)]
        assert hist.k_exhausted_steps == [4]

    def test_on_accept_called_per_acceptance(self, patch, sent_params):
        seen = []
        run(
            tension_program(n_steps=4),
            BacktrackConfig(k_back=0),
            SolverConfig(),
            sent_params,
            patch,
            on_accept=lambda h: seen.append(h.steps[-1].step),
        )
        # the initial history first, then one call per acceptance
        assert seen == [0, 1, 2, 3, 4]


@pytest.fixture(scope="module")
def at1_sent_ell():
    """AT1 sent-ell cut at step 57, with the back-step budget K = 50 and
    with K = 0: ``pffrac run --preset sent --scale 0.1 --steps 57 --set
    material.ell=0.1 --set material.dissipation=AT1 --set
    material.kappa=0.375``, and ``--k-back 0``."""
    flags = [
        "run.preset=sent", "run.scale=0.1", "program.n_steps=57",
        "material.ell=0.1", "material.dissipation=AT1", "material.kappa=0.375",
    ]
    setup = resolve_config(_apply_overrides({}, flags))[1]
    assert setup.backtrack.k_back == 50
    return {
        k: run(setup.program, BacktrackConfig(k, setup.backtrack.eta), setup.solver, setup.params, setup.mesh)
        for k in (50, 0)
    }


class TestPaperResult:
    """The paper's result on AT1 sent-ell (283 nodes, h = ell / 2): with the
    back-step budget the crack breaks through early, at the step the
    walk-back reaches; without it the bar carries the load longer and its
    break is a step that fails the two-sided inequality.  The assertions
    are structural, with loose force bounds: the break's reactions fork
    under round-off (element reordering moves the peak by 1e-3)."""

    def test_backtracking_breaks_early(self, at1_sent_ell):
        hist = at1_sent_ell[50]
        assert not hist.aborted and hist.n_accepted == 57
        assert [(r.round_of, r.step) for r in hist.backtracks] == [(56, n) for n in range(55, 49, -1)]
        assert hist.k_exhausted_steps == []
        assert hist.steps[50].reaction < 100.0  # 47.13 N

    def test_plain_stepping_fails_once_at_its_break(self, at1_sent_ell):
        hist = at1_sent_ell[0]
        assert not hist.aborted and hist.n_accepted == 57 and hist.backtracks == []
        assert hist.k_exhausted_steps == [56]
        assert hist.steps[55].reaction > 500.0  # 854.23 N
        assert hist.steps[56].reaction < 100.0  # 33.80 N

    def test_paths_agree_before_the_walk_back(self, at1_sent_ell):
        k50, k0 = (at1_sent_ell[k].steps for k in (50, 0))
        assert [r.reaction for r in k50[:50]] == [r.reaction for r in k0[:50]]
        assert k50[50].reaction != k0[50].reaction
