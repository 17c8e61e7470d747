import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pffrac.material
from oracles import (
    eigh_spectrum,
    elastic_tensor,
    embedding,
    evaluate,
    psi_split_dense,
    sigma_split_dense,
    split_of,
    strain_tensor_from_voigt,
    tangent_split_c4,
    voigt_rows,
)
from pffrac.material import (
    _GAP_REL,
    VOIGT,
    MaterialParams,
    StrainSpectrum,
    _jacobi,
    degradation,
    principal_stresses,
    psi_split,
    sigma_split,
    tangent_split,
)
from pffrac.presets import load_preset


def rand_strain(rng, dim, mag=1e-3):
    e = rng.normal(size=(dim, dim))
    return 0.5 * (e + e.T) * mag


def degraded(split, eps, beta, p):
    """R(beta) times the tensile part plus the compressive part of a split
    pair: the degraded Voigt stress for ``sigma_split``, its tangent at
    fixed beta for ``tangent_split``."""
    plus, minus = split_of(split, eps, p)
    r, _ = degradation(beta, p)
    return r.reshape(r.shape + (1,) * (plus.ndim - r.ndim)) * plus + minus


def tension_compression(s):
    """eps_pm = sum_a <w_a>_pm n_a (x) n_a from a ``StrainSpectrum``, in the
    3x3 embedding, (N, 3, 3)."""
    w, v = embedding(s)
    vt = np.swapaxes(v, -1, -2)
    eps_p = (v * np.maximum(w, 0.0)[..., None, :]) @ vt
    eps_m = (v * np.minimum(w, 0.0)[..., None, :]) @ vt
    return eps_p, eps_m


def fd_grad_psi(eps, p, which, h=1e-7):
    """Central finite differences of one branch of psi_split, as a Voigt
    stress (the derivative by each engineering strain component)."""
    d = eps.shape[-1]
    scale = h * (1.0 + np.linalg.norm(eps))
    g = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            de = np.zeros((d, d))
            de[i, j] += 0.5 * scale
            de[j, i] += 0.5 * scale
            f1 = split_of(psi_split, eps + de, p)[which]
            f0 = split_of(psi_split, eps - de, p)[which]
            g[i, j] = (f1 - f0) / (2.0 * scale)
    return g[VOIGT[d]]


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MaterialParams(lam=-1.0, mu=1.0, gc=1.0, ell=1.0)
        with pytest.raises(ValueError):
            MaterialParams(lam=1.0, mu=1.0, gc=1.0, ell=1.0, k=0.0)
        with pytest.raises(ValueError):
            MaterialParams(lam=1.0, mu=1.0, gc=1.0, ell=1.0, dissipation="AT1")

    def test_kn_conversion(self):
        # the sent benchmark tabulates its Lame constants in kN/mm^2; the
        # preset holds them in N/mm^2, bit for bit the tabulated values
        # times 1e3
        p = load_preset("sent", 0.02).params
        assert (p.lam, p.mu) == (1e3 * 121.1538, 1e3 * 80.7692)

    def test_young_poisson_conversion(self):
        e, nu = 25850.0, 0.18
        p = MaterialParams.from_young_poisson(e, nu, gc=0.095, ell=20.0)
        assert p.lam == pytest.approx(e * nu / ((1 + nu) * (1 - 2 * nu)), rel=1e-14)
        assert p.mu == pytest.approx(e / (2 * (1 + nu)), rel=1e-14)


class TestSpectralSplit:
    """The tension/compression split by signed principal strains, on the
    eigenpairs of a ``StrainSpectrum``."""

    def test_zero(self):
        s = StrainSpectrum(voigt_rows(np.zeros((2, 2))))
        assert np.all(s.modes == 0.0)
        eps_p, eps_m = tension_compression(s)
        assert np.all(eps_p == 0.0) and np.all(eps_m == 0.0)

    def test_diagonal_plane_strain(self):
        s = StrainSpectrum(voigt_rows(np.diag([2.0, -3.0])))
        assert sorted(embedding(s)[0][0]) == pytest.approx([-3.0, 0.0, 2.0])
        (eps_p,), (eps_m,) = tension_compression(s)
        assert np.allclose(np.sort(np.diag(eps_p)), [0.0, 0.0, 2.0])
        assert np.allclose(np.sort(np.diag(eps_m)), [-3.0, 0.0, 0.0])

    def test_pure_shear_oracle(self):
        eps = np.array([[0.0, 0.5], [0.5, 0.0]])
        s = StrainSpectrum(voigt_rows(eps))
        # independent 2x2 eigensolver
        w, v = np.linalg.eigh(eps)
        assert np.sort(embedding(s)[0][0]) == pytest.approx([-0.5, 0.0, 0.5])
        m = v[:, 1]  # eigenvector of +0.5
        expect = 0.5 * np.outer(m, m)
        assert np.allclose(tension_compression(s)[0][0, :2, :2], expect, atol=1e-14)

    def test_reconstruction_and_orthogonality(self, rng):
        # v diag(w) v^T rebuilds the embedded strain, in plane strain (closed
        # form) and in 3-D (Jacobi)
        for dim in (2, 3):
            for _ in range(20):
                eps = rand_strain(rng, dim)
                s = StrainSpectrum(voigt_rows(eps))
                full = np.zeros((3, 3))
                full[:dim, :dim] = eps
                scale = 1.0 + np.linalg.norm(eps)
                w, v = embedding(s)
                err = np.abs((v * w[..., None, :]) @ v.swapaxes(-1, -2) - full).max()
                assert err <= 1e-12 * scale
                # exact in the eigenbasis; round-off-level after reconstruction
                assert np.all(np.maximum(w, 0) * np.minimum(w, 0) == 0.0)
                (eps_p,), (eps_m,) = tension_compression(s)
                assert abs(np.tensordot(eps_p, eps_m)) <= 1e-13 * scale**2
                gram = v.swapaxes(-1, -2) @ v
                assert np.abs(gram - np.eye(3)).max() < 1e-12

    def test_flip_symmetry(self, rng):
        for _ in range(10):
            eps = rand_strain(rng, 3)
            sp = tension_compression(StrainSpectrum(voigt_rows(eps)))
            sn = tension_compression(StrainSpectrum(voigt_rows(-eps)))
            assert np.allclose(sn[0], -sp[1], atol=1e-15)


class TestStrainSpectrum:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_shared_spectrum_matches_strain_path(self, rng, sent_params, dim):
        # one spectrum read by all three split functions, in the order a
        # Newton iterate reads them (energy first, so the plane-strain
        # vectors are built late), equals a fresh spectrum per call bit for
        # bit
        eps = np.stack([rand_strain(rng, dim) for _ in range(20)] + [np.zeros((dim, dim))])
        eps[1] = np.diag(np.full(dim, 1e-3))  # repeated principal strains
        spec = StrainSpectrum(voigt_rows(eps))
        assert spec.shape == eps.shape[:1]
        for fn in (psi_split, sigma_split, tangent_split):
            for got, want in zip(evaluate(fn, spec, sent_params), evaluate(fn, StrainSpectrum(voigt_rows(eps)), sent_params)):
                assert got.shape == want.shape
                assert np.array_equal(got, want)


    @pytest.mark.parametrize("dim", [2, 3])
    def test_block_views_match_sliced_rows(self, rng, sent_params, dim):
        # a block of a state's spectrum, as the tangent assembly reads it
        # (views of the batch's principal strains and directions), gives
        # the bits of a spectrum of the block's Voigt rows alone
        eps = np.stack([rand_strain(rng, dim) for _ in range(20)] + [np.zeros((dim, dim))])
        eps[1] = np.diag(np.full(dim, 1e-3))
        voigt = voigt_rows(eps)
        spec = StrainSpectrum(voigt)
        for lo, hi in ((0, 7), (7, 20), (20, 21), (0, 21)):
            view = spec.rows(lo, hi)
            assert view.shape == (hi - lo,)
            for fn in (psi_split, sigma_split, tangent_split):
                for got, want in zip(evaluate(fn, view, sent_params), evaluate(fn, StrainSpectrum(voigt[:, lo:hi]), sent_params)):
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()


def rotated(rng, w):
    """Strains with the principal strains ``w`` (n, 3) in random orientations."""
    q, _ = np.linalg.qr(rng.normal(size=w.shape + (3,)))
    eps = (q * w[:, None, :]) @ np.swapaxes(q, -1, -2)
    return 0.5 * (eps + np.swapaxes(eps, -1, -2))


def magnitudes(rng, n):
    return 10.0 ** rng.uniform(-8.0, 2.0, (n, 1))


def assert_matches_eigh(eps):
    """The 3-D spectrum of a strain batch against LAPACK: sorted principal
    strains within 8 ulp of each strain's Frobenius norm, directions that
    rebuild the strain to 1e-14 of that norm and are orthonormal to 1e-14."""
    w, v = embedding(StrainSpectrum(voigt_rows(eps)))
    w_ref, _ = eigh_spectrum(eps)
    fro = np.linalg.norm(eps, axis=(-2, -1))
    assert np.all(np.abs(np.sort(w, axis=-1) - w_ref).max(axis=-1) <= 8 * 2.0**-52 * fro)
    rebuilt = (v * w[..., None, :]) @ np.swapaxes(v, -1, -2)
    assert np.all(np.abs(rebuilt - eps).max(axis=(-2, -1)) <= 1e-14 * fro)
    assert np.abs(np.swapaxes(v, -1, -2) @ v - np.eye(3)).max() <= 1e-14


def _double_triple(rng, n):
    # exact: a rank-one strain (principal strains 3, 0, 0), one with
    # principal strains 2, 2, 0, and a multiple of the identity; then
    # rotated pairs and triples (equal up to the rotation's round-off)
    exact = np.array(
        [np.ones((3, 3)), [[2.0, 0, 0], [0, 1, 1], [0, 1, 1]], 1e-3 * np.eye(3)]
    )
    m = magnitudes(rng, n)
    pairs = rotated(rng, m * [1.0, 1.0, -0.3])
    triples = rotated(rng, m * [1.0, 1.0, 1.0])
    return np.concatenate([exact, pairs, triples])


def _uniaxial_poisson(rng, n):
    nu = rng.uniform(0.0, 0.5, (n, 1))
    return rotated(rng, magnitudes(rng, n) * np.hstack([np.ones((n, 1)), -nu, -nu]))


def _graded(rng, n):
    # principal strains of random sign down to 1e-12 of the largest, or a
    # pair split by 1e-12 to 1 of it
    ratio = 10.0 ** rng.uniform(-12.0, 0.0, (n, 2))
    sign = rng.choice([-1.0, 1.0], (n, 2))
    graded = np.hstack([np.ones((n, 1)), sign * ratio])
    split = np.hstack([np.ones((n, 1)), 1.0 + ratio[:, :1], sign[:, :1] * ratio[:, 1:]])
    return rotated(rng, magnitudes(rng, 2 * n) * np.vstack([graded, split]))


def _negative_definite(rng, n):
    a = rng.normal(size=(n, 3, 3))
    return -magnitudes(rng, n)[:, :, None] * (a @ np.swapaxes(a, -1, -2))


ADVERSARIAL = {
    "zero": lambda rng, n: np.zeros((n, 3, 3)),
    "diagonal": lambda rng, n: np.eye(3) * (magnitudes(rng, n) * rng.normal(size=(n, 3)))[:, None, :],
    "negative_definite": _negative_definite,
    "double_triple": _double_triple,
    "uniaxial_poisson": _uniaxial_poisson,
    "graded": _graded,
}


@st.composite
def spread_strains(draw):
    """A 3-D strain of magnitude 1e-8 to 1e2 with principal strains of any
    sign, one of them graded or a pair split down to 1e-12 of the largest,
    in a random orientation."""
    w = np.array([1.0, draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))])
    kind = draw(st.sampled_from(("any", "graded", "split")))
    if kind == "graded":
        w[1] = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-12.0, 0.0))
    elif kind == "split":
        w[1] = 1.0 + 10.0 ** draw(st.floats(-12.0, 0.0))
    m = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(9)]).reshape(3, 3)
    q, _ = np.linalg.qr(m + 3.0 * np.eye(3))
    eps = (q * (10.0 ** draw(st.floats(-8.0, 2.0)) * w)) @ q.T
    return 0.5 * (eps + eps.T)


class TestJacobiSpectrum:
    """The 3-D principal strains and directions of ``StrainSpectrum``, by
    the vectorised Jacobi eigensolver, against LAPACK."""

    @pytest.mark.parametrize("kind", list(ADVERSARIAL))
    def test_adversarial_batches(self, rng, kind):
        assert_matches_eigh(ADVERSARIAL[kind](rng, 400))

    @given(spread_strains())
    def test_matches_eigh(self, eps):
        assert_matches_eigh(eps[None])

    def test_values_pass_equals_vectors_pass(self, rng):
        voigt = voigt_rows(np.concatenate([f(rng, 50) for f in ADVERSARIAL.values()]))
        assert np.array_equal(StrainSpectrum(voigt).modes, _jacobi(voigt, vectors=True)[0])

    def test_singular_strain_keeps_exact_zero(self, sent_params):
        # a strain of determinant 0 whose off-diagonal entry is at round-off
        # of its scale: rotating that entry away would move the zero
        # principal strain to +1e-37, onto the tensile side of the split
        eps = np.array([[0.0, 0.0, 2.8e-21], [0.0, 0.0, 1e-4], [2.8e-21, 1e-4, -1e-4]])
        w = StrainSpectrum(voigt_rows(eps)).modes
        assert np.count_nonzero(w == 0.0) == 1
        fp, _, hp, _ = principal_stresses(w, sent_params)
        assert hp[w == 0.0].tolist() == [0.0] and fp[w == 0.0].tolist() == [0.0]

    def test_sweep_cap_raises(self, rng, monkeypatch):
        monkeypatch.setattr(pffrac.material, "_MAX_SWEEPS", 2)
        with pytest.raises(RuntimeError, match="no convergence"):
            StrainSpectrum(voigt_rows(rotated(rng, rng.normal(size=(20, 3)))))

    def test_non_finite_strains_give_non_finite_values(self, rng):
        eps = rotated(rng, rng.normal(size=(3, 3)))
        eps[1, 0, 1] = eps[1, 1, 0] = np.nan
        eps[2, 2, 2] = np.inf
        s = StrainSpectrum(voigt_rows(eps))
        assert not np.isfinite(s.modes[:, 1:]).all(axis=0).any()
        assert np.array_equal(s.modes[:, :1], StrainSpectrum(voigt_rows(eps[0])).modes)


class TestPsiSplit:
    def test_zero(self, sent_params):
        assert split_of(psi_split, np.zeros((3, 3)), sent_params) == (0.0, 0.0)

    def test_uniaxial_value(self):
        # lam/2 + mu times e^2, in the units of the moduli
        p = MaterialParams(lam=121.1538, mu=80.7692, gc=2.7, ell=0.0175)
        eps = np.diag([1e-3, 0.0, 0.0])
        plus, minus = split_of(psi_split, eps, p)
        assert plus == pytest.approx(1.413461e-4, rel=1e-6)
        assert minus == 0.0

    def test_sign_swap(self, rng, sent_params):
        for _ in range(10):
            eps = rand_strain(rng, 2)
            pp, pm = split_of(psi_split, eps, sent_params)
            np_, nm = split_of(psi_split, -eps, sent_params)
            assert np_ == pytest.approx(pm, rel=1e-12, abs=1e-300)
            assert nm == pytest.approx(pp, rel=1e-12, abs=1e-300)

    def test_nonnegative(self, rng, sent_params):
        for dim in (2, 3):
            eps = rand_strain(rng, dim, mag=1.0)
            pp, pm = split_of(psi_split, eps, sent_params)
            assert pp >= 0.0 and pm >= 0.0


class TestSigmaSplit:
    def test_zero(self, sent_params):
        sp, sm = split_of(sigma_split, np.zeros((2, 2)), sent_params)
        assert np.all(sp == 0.0) and np.all(sm == 0.0)

    def test_negative_definite_has_no_tensile_part(self, sent_params):
        sp, _ = split_of(sigma_split, np.diag([-1e-3, -2e-3, -5e-4]), sent_params)
        assert np.all(sp == 0.0)

    def test_fd_gradient_of_psi(self, rng, sent_params):
        for dim in (2, 3):
            for _ in range(5):
                eps = rand_strain(rng, dim)
                sp, sm = split_of(sigma_split, eps, sent_params)
                scale = np.abs(sp).max() + np.abs(sm).max()
                assert np.abs(sp - fd_grad_psi(eps, sent_params, 0)).max() <= 1e-6 * scale
                assert np.abs(sm - fd_grad_psi(eps, sent_params, 1)).max() <= 1e-6 * scale


def plane_rotated(rng, w):
    """Plane strains with the in-plane principal strains ``w`` (n, 2) in
    random orientations."""
    t = rng.uniform(0.0, np.pi, len(w))
    q = np.stack([np.stack([np.cos(t), -np.sin(t)], -1), np.stack([np.sin(t), np.cos(t)], -1)], -2)
    eps = (q * w[:, None, :]) @ np.swapaxes(q, -1, -2)
    return 0.5 * (eps + np.swapaxes(eps, -1, -2))


def kernel_batch(rng, dim, kind, n=40):
    """A batch of strains of one kind: zero; repeated principal strains
    (exactly equal on the diagonal, then rotated pairs within the
    coalescence gap); mixed signs; pure compression."""
    if kind == "zero":
        return np.zeros((n, dim, dim))
    mag = 10.0 ** rng.uniform(-6.0, -2.0, (n, 1))
    if kind == "repeated":
        w = mag * rng.choice([-1.0, 1.0], (n, 1)) * np.ones((n, dim))
        w[n // 2 :, 1] += 0.25 * _GAP_REL * rng.uniform(0.0, 1.0, n - n // 2)
        if dim == 3:
            w[: n // 4, 2] *= -0.3  # a repeated pair and a third value
        exact = np.eye(dim) * w[: n // 2, None, :]
        return np.concatenate([exact, (plane_rotated if dim == 2 else rotated)(rng, w[n // 2 :])])
    w = mag * rng.uniform(0.1, 1.0, (n, dim))
    if kind == "mixed":
        w[:, 1:] *= -1.0
        w[n // 2 :, 0] = 0.0  # one zero principal strain on the kink
    else:
        w = -w
    return (plane_rotated if dim == 2 else rotated)(rng, w)


KERNEL_KINDS = ("zero", "repeated", "mixed", "compression")


class TestComponentKernels:
    """The component-wise split kernels against their dense definitions."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_tangent_matches_dense(self, rng, sent_params, dim, kind):
        eps = kernel_batch(rng, dim, kind)
        got = evaluate(tangent_split, StrainSpectrum(voigt_rows(eps)), sent_params)
        want = tangent_split_c4(eps, sent_params)
        scale = np.maximum(np.abs(want[0]).max(axis=(-2, -1)), np.abs(want[1]).max(axis=(-2, -1)))
        for g, w in zip(got, want):
            assert g.shape == w.shape == (len(eps), 3 * dim - 3, 3 * dim - 3)
            assert np.all(np.abs(g - w).max(axis=(-2, -1)) <= 1e-12 * scale)
        if kind == "zero":
            # the compression-side convention: the full elastic tensor
            assert np.array_equal(got[0], np.zeros_like(got[0]))
            assert np.allclose(got[1], elastic_tensor(dim, sent_params), rtol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_sigma_matches_dense(self, rng, sent_params, dim, kind):
        eps = kernel_batch(rng, dim, kind)
        got = evaluate(sigma_split, StrainSpectrum(voigt_rows(eps)), sent_params)
        want = sigma_split_dense(StrainSpectrum(voigt_rows(eps)), sent_params)
        scale = np.maximum(np.abs(want[0]).max(axis=-1), np.abs(want[1]).max(axis=-1))
        for g, w in zip(got, want):
            assert g.shape == w.shape == (len(eps), 3 * dim - 3)
            assert np.all(np.abs(g - w).max(axis=-1) <= 1e-12 * scale)
        if kind == "compression":
            assert np.all(got[0] == 0.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_psi_bitwise_dense(self, rng, sent_params, dim):
        # the per-mode sums (w0 + w1) + w2 are the sums along the axis
        eps = np.concatenate(
            [kernel_batch(rng, dim, kind) for kind in KERNEL_KINDS]
            + [np.stack([rand_strain(rng, dim, mag) for mag in 10.0 ** rng.uniform(-8, 2, 200)])]
        )
        spec = StrainSpectrum(voigt_rows(eps))
        for got, want in zip(psi_split(spec, sent_params), psi_split_dense(spec, sent_params)):
            assert got.shape == want.shape == eps.shape[:1]
            assert np.array_equal(got, want)


class TestDegradation:
    @pytest.mark.parametrize(
        "beta,r,dr",
        [(0.0, 1.0 + 1e-4, -2.0), (1.0, 1e-4, 0.0), (0.5, 0.2501, -1.0)],
    )
    def test_values(self, sent_params, beta, r, dr):
        got_r, got_dr = degradation(beta, sent_params)
        assert got_r == pytest.approx(r, rel=1e-12)
        assert got_dr == pytest.approx(dr, rel=1e-12)

    def test_floor_and_argmin(self, sent_params):
        beta = np.linspace(0.0, 1.0, 101)
        r, _ = degradation(beta, sent_params)
        assert np.all(r >= sent_params.k)
        assert np.argmin(r) == 100


class TestStress:
    def test_undamaged_tension(self, sent_params):
        eps = np.diag([2e-3, 1e-3])
        sig = degraded(sigma_split, eps, 0.0, sent_params)
        lam, mu = sent_params.lam, sent_params.mu
        expect = (1 + sent_params.k) * (lam * eps.trace() * np.eye(2) + 2 * mu * eps)
        assert np.allclose(sig, expect[VOIGT[2]], rtol=1e-12)

    def test_fully_damaged_compression(self, sent_params):
        eps = np.diag([-2e-3, -1e-3, -3e-3])
        sig = degraded(sigma_split, eps, 1.0, sent_params)
        lam, mu = sent_params.lam, sent_params.mu
        expect = lam * eps.trace() * np.eye(3) + 2 * mu * eps
        assert np.allclose(sig, expect[VOIGT[3]], rtol=1e-12)

    def test_fd_oracle_with_degradation(self, rng, sent_params):
        beta = 0.3
        r, _ = degradation(beta, sent_params)
        for _ in range(5):
            eps = rand_strain(rng, 2)
            sig = degraded(sigma_split, eps, beta, sent_params)
            fd = r * fd_grad_psi(eps, sent_params, 0) + fd_grad_psi(eps, sent_params, 1)
            assert np.abs(sig - fd).max() <= 1e-6 * np.abs(sig).max()


class TestTangent:
    def fd_tangent(self, eps, beta, p, h=1e-7):
        d = eps.shape[-1]
        nv = 3 if d == 2 else 6
        c = np.zeros((nv, nv))
        for j in range(nv):
            v = np.zeros(nv)
            v[j] = h
            de = strain_tensor_from_voigt(v, d)
            ds = degraded(sigma_split, eps + de, beta, p) - degraded(sigma_split, eps - de, beta, p)
            c[:, j] = ds / (2 * h)
        return c

    def test_undamaged_tension_is_scaled_elastic(self, sent_params):
        eps = np.diag([3e-3, 1e-3, 2e-3])
        c = degraded(tangent_split, eps, 0.0, sent_params)
        expect = (1 + sent_params.k) * elastic_tensor(3, sent_params)
        assert np.allclose(c, expect, rtol=1e-10)

    def test_zero_strain_compression_branch(self, sent_params):
        # convention: at zero strain the tangent is the full elastic tensor
        for dim in (2, 3):
            c = degraded(tangent_split, np.zeros((dim, dim)), 0.0, sent_params)
            assert np.allclose(c, elastic_tensor(dim, sent_params), rtol=1e-12)

    def test_zero_strain_fd_validation(self, rng, sent_params):
        # zero strain sits on the branch kink, so a central difference sees
        # the branch average; the compression-side convention is validated
        # by one-sided differences along negative-definite directions
        c = degraded(tangent_split, np.zeros((2, 2)), 0.0, sent_params)
        h = 1e-7
        for _ in range(5):
            m = rng.normal(size=(2, 2))
            d = -(m @ m.T) - 1e-3 * np.eye(2)  # negative definite direction
            d /= np.linalg.norm(d)
            dv = degraded(sigma_split, h * d, 0.0, sent_params) / h
            gv = np.array([d[0, 0], d[1, 1], 2 * d[0, 1]])
            assert np.abs(c @ gv - dv).max() <= 1e-4 * np.abs(dv).max()

    def test_random_fd(self, rng, sent_params):
        for dim in (2, 3):
            for _ in range(4):
                eps = rand_strain(rng, dim)
                c = degraded(tangent_split, eps, 0.3, sent_params)
                fd = self.fd_tangent(eps, 0.3, sent_params)
                assert np.abs(c - fd).max() <= 1e-5 * np.abs(c).max()

    def test_symmetry(self, rng, sent_params):
        for dim in (2, 3):
            eps = rand_strain(rng, dim)
            c = degraded(tangent_split, eps, 0.42, sent_params)
            assert np.abs(c - c.T).max() <= 1e-10 * (1.0 + np.abs(c).max())

    def test_batched_matches_single(self, rng, sent_params):
        eps = np.stack([rand_strain(rng, 2) for _ in range(7)])
        beta = rng.uniform(0, 1, 7)
        batch = degraded(tangent_split, eps, beta, sent_params)
        for i in range(7):
            assert np.allclose(batch[i], degraded(tangent_split, eps[i], beta[i], sent_params))


# fixed parameters: hypothesis runs one test body per example, so no
# function-scoped fixtures
P_SENT = MaterialParams(lam=121153.8, mu=80769.2, gc=2.7, ell=0.0175, k=1e-4, eps_pen=1e-6)
_STRAIN = st.floats(-1e-2, 1e-2, allow_subnormal=False)


@st.composite
def principal_strains(draw, d):
    """Principal strains of four kinds: zero, arbitrary, sign-mixed, and
    with a pair closer than the coalescence gap."""
    kind = draw(st.sampled_from(("zero", "any", "mixed", "coalesced")))
    if kind == "zero":
        return np.zeros(d)
    w = np.array([draw(_STRAIN) for _ in range(d)])
    if kind == "mixed":
        w[0] = draw(st.floats(1e-6, 1e-2))
        w[1] = -draw(st.floats(1e-6, 1e-2))
    elif kind == "coalesced":
        w[1] = w[0] + draw(st.floats(0.0, 0.5 * _GAP_REL))
    return w


@st.composite
def strains(draw, separated=False):
    """A 2-D or 3-D strain tensor with the drawn principal strains in a
    random orientation.  ``separated`` keeps every principal strain, and
    every gap between two of them, at least 1e-4 (off the split kinks)."""
    d = draw(st.sampled_from((2, 3)))
    if separated:
        base = draw(st.floats(1e-4, 3e-3))
        signs = [draw(st.sampled_from((-1.0, 1.0))) for _ in range(d)]
        w = np.array([s * base * (k + 1) for k, s in enumerate(signs)])
    else:
        w = draw(principal_strains(d))
    m = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(d * d)]).reshape(d, d)
    q, _ = np.linalg.qr(m + 3.0 * np.eye(d))
    eps = (q * w) @ q.T
    return 0.5 * (eps + eps.T)


class TestTangentProperties:
    @given(strains())
    def test_matches_fourth_order_oracle(self, eps):
        got = split_of(tangent_split, eps, P_SENT)
        want = tangent_split_c4(eps, P_SENT)
        scale = max(np.abs(want[0]).max(), np.abs(want[1]).max())
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-12 * scale

    @given(strains())
    def test_symmetric(self, eps):
        for c in split_of(tangent_split, eps, P_SENT):
            assert np.abs(c - c.T).max() <= 1e-12 * (np.abs(c).max() + 1e-300)

    @given(strains(separated=True), st.floats(0.0, 1.0))
    def test_fd_consistent(self, eps, beta):
        d = eps.shape[-1]
        nv = 3 if d == 2 else 6
        c = degraded(tangent_split, eps, beta, P_SENT)
        h = 1e-8
        fd = np.zeros((nv, nv))
        for j in range(nv):
            dv = np.zeros(nv)
            dv[j] = h
            de = strain_tensor_from_voigt(dv, d)
            ds = degraded(sigma_split, eps + de, beta, P_SENT) - degraded(sigma_split, eps - de, beta, P_SENT)
            fd[:, j] = ds / (2 * h)
        assert np.abs(c - fd).max() <= 1e-5 * np.abs(c).max()
