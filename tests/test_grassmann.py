"""Geometry of projection pairs: tangent spaces, curvature, gradients."""

from types import SimpleNamespace

import numpy as np
import pytest

from liberlab.errors import NumericalError, ValidationError
from liberlab.grassmann import (
    GrassmannPoint,
    TangentVector,
    _stacked_trace_psi,
    apply_spectral,
    exp_normal_coordinate,
    grad_norm_trace_fn,
    haar_unitary,
    hessian_fd,
    hs_inner,
    hs_norm,
    model_projection,
    projection_point,
    ricci_quadratic_form,
    sample_haar_projection,
    tangent_basis,
)
from liberlab.potentials import PsiSpec


def random_tangent(n, k, rng):
    basis = tangent_basis(n, k)
    coeffs = rng.standard_normal(len(basis))
    x = sum(c * b.X for c, b in zip(coeffs, basis))
    return TangentVector(x, k), float(np.sum(coeffs**2))


def test_tangent_basis_is_orthonormal():
    for n, k in [(3, 1), (5, 2), (6, 3)]:
        basis = tangent_basis(n, k)
        assert len(basis) == 2 * k * (n - k)
        gram = np.array([[hs_inner(a.X, b.X) for b in basis] for a in basis])
        assert np.allclose(gram, np.eye(len(basis)), atol=1e-14)


def test_tangent_basis_rejects_trivial_ranks():
    with pytest.raises(ValidationError):
        tangent_basis(4, 0)
    with pytest.raises(ValidationError):
        tangent_basis(4, 4)


def test_ricci_identity_spot_check():
    rng = np.random.default_rng(7)
    for n, k in [(4, 1), (5, 2), (7, 3)]:
        for _ in range(10):
            x, norm_sq = random_tangent(n, k, rng)
            got = ricci_quadratic_form(n, k, x)
            expected = n * norm_sq
            assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected)), (n, k)


def test_ricci_rejects_mismatched_vector():
    x, _ = random_tangent(4, 2, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        ricci_quadratic_form(5, 2, x)


def test_exp_preserves_projection_structure():
    rng = np.random.default_rng(11)
    p = sample_haar_projection(6, 2, rng)
    x, _ = random_tangent(6, 2, rng)
    moved = exp_normal_coordinate(p, x)
    assert moved.k == 2
    assert np.linalg.norm(moved.P @ moved.P - moved.P) <= 1e-12
    assert np.real(np.trace(moved.P)) == pytest.approx(2.0, abs=1e-12)


def test_exp_zero_vector_is_identity():
    p = sample_haar_projection(5, 2, 3)
    moved = exp_normal_coordinate(p, TangentVector(np.zeros((5, 5)), 2))
    assert np.allclose(moved.P, p.P, atol=1e-14)


def test_exp_moves_compose_along_a_ray():
    rng = np.random.default_rng(13)
    p = sample_haar_projection(6, 3, rng)
    x, _ = random_tangent(6, 3, rng)
    half = TangentVector(0.3 * x.X, 3)
    twice = exp_normal_coordinate(exp_normal_coordinate(p, half), half)
    once = exp_normal_coordinate(p, TangentVector(0.6 * x.X, 3))
    assert np.allclose(twice.P, once.P, atol=1e-12)


def test_exp_initial_velocity_is_the_commutator():
    rng = np.random.default_rng(17)
    n, k = 5, 2
    p = sample_haar_projection(n, k, rng)
    x, _ = random_tangent(n, k, rng)
    u = p.frame
    pk = model_projection(n, k)
    velocity = u @ (x.X @ pk - pk @ x.X) @ u.conj().T
    s = 1e-6
    plus = exp_normal_coordinate(p, TangentVector(s * x.X, k)).P
    minus = exp_normal_coordinate(p, TangentVector(-s * x.X, k)).P
    fd = (plus - minus) / (2.0 * s)
    assert np.linalg.norm(fd - velocity) <= 1e-8 * max(1.0, np.linalg.norm(velocity))


def test_exp_rejects_foreign_tangent():
    p = sample_haar_projection(5, 2, 1)
    x, _ = random_tangent(5, 3, np.random.default_rng(1))
    with pytest.raises(ValidationError):
        exp_normal_coordinate(p, x)


def test_point_validation():
    with pytest.raises(ValidationError, match="Hermitian"):
        GrassmannPoint(np.array([[0.0, 1.0], [0.0, 1.0]]), 1)
    with pytest.raises(ValidationError, match="idempotent"):
        GrassmannPoint(0.5 * np.eye(2), 1)
    with pytest.raises(ValidationError, match="trace"):
        GrassmannPoint(np.eye(3), 1)


def test_tangent_validation():
    with pytest.raises(ValidationError, match="anti-Hermitian"):
        TangentVector(np.eye(2), 1)
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    bad[1, 0] = -1.0
    with pytest.raises(ValidationError, match="diagonal blocks"):
        TangentVector(bad, 2)


def test_projection_point_recovers_rank_and_frame():
    p = sample_haar_projection(6, 4, 9)
    wrapped = projection_point(p.P)
    assert wrapped.k == 4
    u = wrapped.frame
    assert np.allclose(u.conj().T @ u, np.eye(6), atol=1e-12)
    assert np.allclose(u @ model_projection(6, 4) @ u.conj().T, p.P, atol=1e-10)


def test_two_by_two_gradient_worked_value():
    for t in (0.15, 0.5, 0.85):
        c = np.sqrt(t)
        s = np.sqrt(1.0 - t)
        rot = np.array([[c, -s], [s, c]])
        q = projection_point(rot @ np.diag([1.0, 0.0]) @ rot.T)
        p = projection_point(np.diag([1.0, 0.0]))
        rep = grad_norm_trace_fn(p, q, PsiSpec((0.0, 1.0)))
        assert rep.closed_form == pytest.approx(4.0 * t * (1.0 - t), rel=1e-12)
        assert rep.rel_gap <= 1e-7


def test_gradient_routes_agree_at_random_pairs():
    rng = np.random.default_rng(23)
    psis = [PsiSpec((0.0, 1.0)), PsiSpec((0.0, 0.0, 0.5)), PsiSpec((0.0, 0.5, 0.0, 0.5))]
    for n in (4, 6):
        for psi in psis:
            k = int(rng.integers(1, n))
            l = int(rng.integers(1, n))
            p = sample_haar_projection(n, k, rng)
            q = sample_haar_projection(n, l, rng)
            rep = grad_norm_trace_fn(p, q, psi)
            assert rep.rel_gap <= 1e-5, (n, k, l, psi.coeffs)


def test_gradient_rejects_dimension_mismatch():
    p = sample_haar_projection(4, 2, 0)
    q = sample_haar_projection(5, 2, 0)
    with pytest.raises(ValidationError):
        grad_norm_trace_fn(p, q, PsiSpec((0.0, 1.0)))


def test_hessian_is_symmetric_and_rank_sized():
    rng = np.random.default_rng(29)
    p = sample_haar_projection(4, 2, rng)
    q = sample_haar_projection(4, 1, rng)
    hess = hessian_fd(p, q, PsiSpec((0.0, 1.0)))
    side = 2 * 2 * (4 - 2) + 2 * 1 * (4 - 1)
    assert hess.shape == (side, side)
    assert np.allclose(hess, hess.T, atol=1e-12)
    assert np.all(np.isfinite(hess))


def test_hessian_quadratic_check_trips_on_a_coarse_step():
    rng = np.random.default_rng(31)
    p = sample_haar_projection(4, 2, rng)
    q = sample_haar_projection(4, 2, rng)
    with pytest.raises(NumericalError, match="quadratic"):
        hessian_fd(p, q, PsiSpec((0.0, 0.0, 0.0, 1.0)), step=0.6)


def test_haar_sampling_is_conjugation_invariant():
    fixed_q = sample_haar_projection(6, 3, 12345).P
    v = haar_unitary(6, np.random.default_rng(999))

    def spectra(seed, conjugate):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(150):
            p = sample_haar_projection(6, 3, rng).P
            if conjugate:
                p = v @ p @ v.conj().T
            out.extend(np.linalg.eigvalsh(p @ fixed_q @ p))
        return np.sort(np.asarray(out))

    from scipy.stats import ks_2samp

    stat = ks_2samp(spectra(1, False), spectra(2, True))
    assert stat.pvalue > 1e-3


def test_frame_adapts_to_the_projection():
    p = sample_haar_projection(5, 2, 77)
    u = p.frame
    assert hs_norm(u @ model_projection(5, 2) @ u.conj().T - p.P) <= 1e-12


# ---------------------------------------------------------------- per-probe reference
# The derivative checks evaluate their probes as stacked arrays.  The
# functions below are the plain loop they replace: one TangentVector, one
# GrassmannPoint and one apply_spectral per probe.


def _reference_trace_psi(psi, p, q):
    return float(np.sum(apply_spectral(psi, p @ q @ p)[2]))


def _reference_pair_move(p, q, coeffs):
    n = p.dim
    bases = [tangent_basis(n, point.k) if 1 <= point.k <= n - 1 else [] for point in (p, q)]
    split = len(bases[0])
    moved = []
    for point, basis, cs in ((p, bases[0], coeffs[:split]), (q, bases[1], coeffs[split:])):
        x = sum((c * b.X for c, b in zip(cs, basis)), start=np.zeros_like(point.P))
        moved.append(exp_normal_coordinate(point, TangentVector(x, point.k)).P)
    return moved, split + len(bases[1])


def reference_hessian(p, q, psi, step=5e-4):
    n = p.dim
    dim = _reference_pair_move(p, q, np.zeros(0))[1]

    def value(coeffs):
        return n * _reference_trace_psi(psi, *_reference_pair_move(p, q, coeffs)[0])

    base = value(np.zeros(dim))
    unit = np.eye(dim)
    hess = np.empty((dim, dim))
    for a in range(dim):
        hess[a, a] = (value(step * unit[a]) - 2.0 * base + value(-step * unit[a])) / step**2
        for b in range(a + 1, dim):
            pp = value(step * (unit[a] + unit[b]))
            pm = value(step * (unit[a] - unit[b]))
            mp = value(step * (unit[b] - unit[a]))
            mm = value(-step * (unit[a] + unit[b]))
            hess[a, b] = hess[b, a] = (pp - pm - mp + mm) / (4.0 * step**2)
    return hess


def reference_dirichlet(p, q, psi, step=1e-4):
    derivs = []
    for point, other, point_first in ((p, q.P, True), (q, p.P, False)):
        if not 1 <= point.k <= point.dim - 1:
            continue
        for b in tangent_basis(point.dim, point.k):
            f = []
            for s in (step, -step):
                moved = exp_normal_coordinate(point, TangentVector(s * b.X, point.k)).P
                pair = (moved, other) if point_first else (other, moved)
                f.append(_reference_trace_psi(psi, *pair))
            derivs.append((f[0] - f[1]) / (2.0 * step))
    return float(np.sum(np.asarray(derivs) ** 2))


STACKED_CASES = [(4, 2, 1), (6, 1, 2), (6, 3, 3), (5, 2, 0), (5, 2, 5)]


@pytest.mark.parametrize("model", STACKED_CASES)
def test_stacked_hessian_matches_the_per_probe_loop(model):
    n, k, l = model
    rng = np.random.default_rng(sum(model))
    p = sample_haar_projection(n, k, rng)
    q = sample_haar_projection(n, l, rng)
    psi = PsiSpec((0.0, 0.7, -0.4, 0.3))
    got = hessian_fd(p, q, psi)
    want = reference_hessian(p, q, psi)
    assert got.shape == want.shape == (2 * k * (n - k) + 2 * l * (n - l),) * 2
    assert np.max(np.abs(got - want)) <= 1e-7 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("model", STACKED_CASES)
def test_stacked_dirichlet_matches_the_per_probe_loop(model):
    n, k, l = model
    rng = np.random.default_rng(100 + sum(model))
    p = sample_haar_projection(n, k, rng)
    q = sample_haar_projection(n, l, rng)
    psi = PsiSpec((0.0, 0.5, 0.25, -0.5))
    got = grad_norm_trace_fn(p, q, psi).dirichlet_fd
    want = reference_dirichlet(p, q, psi)
    if 0 < l < n:
        assert abs(got - want) <= 1e-9 * abs(want)
    else:
        # Q is 0 or I, so Tr psi(PQP) does not depend on the pair and
        # both routes read rounding noise
        assert max(got, want) <= 1e-18


def test_stacked_probes_keep_the_projection_checks():
    # a frame that is not unitary carries every moved "projection" off
    # idempotency, and the stacked checks must see it
    rng = np.random.default_rng(37)
    p = sample_haar_projection(4, 2, rng)
    q = sample_haar_projection(4, 1, rng)
    bent = GrassmannPoint(p.P, p.k, frame=1.01 * p.frame)
    psi = PsiSpec((0.0, 1.0))
    with pytest.raises(ValidationError, match="idempotent"):
        hessian_fd(bent, q, psi)
    with pytest.raises(ValidationError, match="idempotent"):
        grad_norm_trace_fn(bent, q, psi)


def test_stacked_probes_keep_the_spectrum_check():
    # moved factors are checked projections, so only a kept factor can
    # carry a stray spectrum: a scaled Q pushes P'QP' past 1
    rng = np.random.default_rng(41)
    p = sample_haar_projection(4, 2, rng)
    q = sample_haar_projection(4, 2, rng)
    wide = SimpleNamespace(P=1.5 * q.P, k=q.k, dim=q.dim)
    coeffs = np.zeros((2, 16))
    coeffs[0, 0] = 1e-4
    with pytest.raises(NumericalError, match="strays"):
        _stacked_trace_psi(p, wide, PsiSpec((0.0, 1.0)), coeffs)


def test_stacked_hessian_evaluates_the_same_probes(monkeypatch):
    import liberlab.grassmann as grassmann

    rows = []
    inner = grassmann._stacked_trace_psi

    def counted(p, q, psi, coeffs):
        rows.append(coeffs.shape[0])
        return inner(p, q, psi, coeffs)

    monkeypatch.setattr(grassmann, "_stacked_trace_psi", counted)
    rng = np.random.default_rng(43)
    p = sample_haar_projection(6, 1, rng)
    q = sample_haar_projection(6, 2, rng)
    hess = hessian_fd(p, q, PsiSpec((0.0, 1.0)))
    side = hess.shape[0]
    # base point, +-step per axis, the half-step pair, four per off-diagonal pair
    assert sum(rows) == 1 + 2 * side + 2 + 2 * side * (side - 1) == 1355
    rows.clear()
    grad_norm_trace_fn(p, q, PsiSpec((0.0, 1.0)))
    assert rows == [2 * 10, 2 * 16]
