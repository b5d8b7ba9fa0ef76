"""Spectrum ensembles: exact constants, direct draws, Markov chains."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp, kstest

from liberlab.ensemble import (
    EnsembleSpec,
    _log_density,
    log_z_quadrature,
    lsi_matrix_report,
    mcmc_tilted_spectrum,
    sample_spectra,
    selberg_log_z0,
    structural_multiplicities,
)
from liberlab.errors import NumericalError, ValidationError
from liberlab.grassmann import haar_unitary
from liberlab.potentials import PsiSpec

from conftest import FIXTURES

ORACLE = json.loads((FIXTURES / "ensemble_oracle.json").read_text())


def test_structural_multiplicities():
    assert structural_multiplicities(2, 1, 1) == (1, 0, 1)
    assert structural_multiplicities(3, 2, 2) == (1, 1, 1)
    assert structural_multiplicities(4, 2, 2) == (2, 0, 2)
    assert structural_multiplicities(5, 4, 3) == (2, 2, 1)
    assert structural_multiplicities(8, 3, 2) == (6, 0, 2)


def test_spec_rejects_degenerate_ranks():
    with pytest.raises(ValidationError):
        EnsembleSpec(4, 0, 2)
    with pytest.raises(ValidationError):
        EnsembleSpec(4, 2, 4)


def test_log_density_terms():
    spec = EnsembleSpec(5, 2, 3)
    a, b = spec.exponents
    assert (a, b) == (1, 0)
    xs = np.array([0.3, 0.7])
    expected = (
        a * (np.log(0.3) + np.log(0.7))
        + 2.0 * np.log(0.4)
    )
    assert _log_density(xs, spec) == pytest.approx(expected, rel=1e-14)
    assert _log_density(np.array([0.4, 0.4]), spec) == -math.inf
    assert _log_density(np.array([-0.1]), spec) == -math.inf
    tilted = EnsembleSpec(5, 2, 3, PsiSpec((0.0, 1.0)))
    assert _log_density(xs, tilted) == pytest.approx(expected - 5.0, rel=1e-12)


def test_selberg_constant_matches_quadrature():
    for n_dim, k, l in [(2, 1, 1), (3, 2, 2), (4, 2, 2), (5, 2, 3), (7, 3, 3)]:
        spec = EnsembleSpec(n_dim, k, l)
        exact = selberg_log_z0(spec)
        numeric = log_z_quadrature(spec, nodes=96)
        assert exact == pytest.approx(numeric, abs=1e-12), (n_dim, k, l)


@pytest.mark.parametrize("case", ORACLE["log_z_psi"], ids=lambda c: f"{c['N']}{c['k']}{c['l']}-{len(c['psi'])}")
def test_recurrence_matches_the_recorded_tensor_rule(case):
    spec = EnsembleSpec(case["N"], case["k"], case["l"], PsiSpec(tuple(case["psi"])))
    assert log_z_quadrature(spec, nodes=case["nodes"]) == pytest.approx(case["log_z"], abs=1e-12)


def test_quadrature_refuses_fewer_nodes_than_points():
    spec = EnsembleSpec(8, 4, 4)
    assert math.isfinite(log_z_quadrature(spec, nodes=4))
    with pytest.raises(ValidationError):
        log_z_quadrature(spec, nodes=3)


def test_quadrature_holds_at_large_edge_exponents():
    # a + b > 1020 overflows the Gauss-Jacobi mass 2^(a+b+1) B(a+1, b+1) on [-1, 1]
    for n_dim in (1100, 1500):
        spec = EnsembleSpec(n_dim, 1, 1)
        assert log_z_quadrature(spec) == pytest.approx(selberg_log_z0(spec), abs=1e-12)
    rep = lsi_matrix_report(EnsembleSpec(1100, 1, 1, PsiSpec((0.0, 1.0))))
    assert math.isfinite(rep.margin) and rep.margin_se <= 1e-12


def test_quadrature_default_covers_more_than_96_points():
    spec = EnsembleSpec(400, 200, 200)
    assert log_z_quadrature(spec) == pytest.approx(selberg_log_z0(spec), rel=1e-14)


@pytest.mark.parametrize("coeffs", [(math.nan,), (math.inf,), (0.0, -math.inf)])
def test_quadrature_refuses_a_weight_that_is_not_finite(coeffs):
    with pytest.raises(NumericalError):
        log_z_quadrature(EnsembleSpec(4, 2, 2, PsiSpec(coeffs)))


def test_direct_draws_match_exact_marginals():
    xs = sample_spectra(EnsembleSpec(2, 1, 1), 4000, seed=1).ravel()
    stat = kstest(xs, "uniform")
    assert stat.statistic < 0.03
    assert stat.pvalue > 1e-3

    xs = sample_spectra(EnsembleSpec(3, 2, 2), 4000, seed=2).ravel()
    stat = kstest(xs, lambda t: 2.0 * t - t**2)
    assert stat.statistic < 0.03
    assert stat.pvalue > 1e-3


def test_two_point_model_marginal():
    draws = sample_spectra(EnsembleSpec(4, 2, 2), 4000, seed=3)
    assert draws.shape == (4000, 2)
    assert np.all(np.diff(draws, axis=1) >= 0.0)
    stat = kstest(draws.ravel(), lambda t: 2.0 * t**3 - 3.0 * t**2 + 2.0 * t)
    assert stat.statistic < 0.03
    assert stat.pvalue > 1e-3


def _haar_pqp_spectra(spec, trials, seed):
    """Dense spectra of PQP, ascending, with P the model projection onto the
    first k coordinates and Q = W W* for a Haar frame W (N x l)."""
    rng = np.random.default_rng(seed)
    p = np.diag(np.arange(spec.N) < spec.k).astype(complex)
    rows = []
    for start in range(0, trials, 2000):
        w = haar_unitary(spec.N, rng, (min(2000, trials - start),), spec.l)
        q = w @ np.conjugate(np.swapaxes(w, -1, -2))
        rows.append(np.linalg.eigvalsh(p @ q @ p))
    return np.concatenate(rows)


def _assert_same_ordered_laws(draws, reference):
    assert draws.shape == reference.shape
    # each ordered eigenvalue is independent across draws
    for j in range(draws.shape[1]):
        assert ks_2samp(draws[:, j], reference[:, j]).pvalue > 1e-3, j


@pytest.mark.parametrize(
    "model",
    [(3, 2, 2), (7, 2, 4), (9, 6, 5), (5, 3, 4), (12, 6, 6),
     (2, 1, 1), (4, 2, 2), (5, 3, 2), (6, 1, 2), (4, 3, 1)],
)
def test_block_spectra_match_the_dense_pqp_eigenvalues(model):
    spec = EnsembleSpec(*model)
    n0, n1, _ = spec.counts
    dense = _haar_pqp_spectra(spec, 4000, seed=11)
    np.testing.assert_allclose(dense[:, :n0], 0.0, rtol=0.0, atol=1e-13)
    _assert_same_ordered_laws(sample_spectra(spec, 4000, seed=12), dense[:, n0 : spec.N - n1])


@pytest.mark.parametrize("model", [(5, 3, 4), (7, 2, 4), (9, 6, 5), (21, 10, 10)])
def test_jacobi_model_draws_have_the_haar_law_at_many_draws(model):
    """k != l, k + l > N, k + l < N, and n = 10 free points."""
    spec = EnsembleSpec(*model)
    n0, n1, _ = spec.counts
    dense = _haar_pqp_spectra(spec, 20_000, seed=31)
    _assert_same_ordered_laws(sample_spectra(spec, 20_000, seed=32), dense[:, n0 : spec.N - n1])


def test_zero_trials_give_an_empty_array():
    assert sample_spectra(EnsembleSpec(7, 2, 4), 0, seed=0).shape == (0, 2)
    with pytest.raises(ValidationError):
        sample_spectra(EnsembleSpec(7, 2, 4), -1, seed=0)


def _two_frame_spectra(spec, trials, seed):
    """The former route: P = V V* and Q = W W* for two independent Haar frames."""
    rng = np.random.default_rng(seed)
    v = haar_unitary(spec.N, rng, (trials,), spec.k)
    w = haar_unitary(spec.N, rng, (trials,), spec.l)
    vals = np.linalg.svd(np.conjugate(np.swapaxes(v, -1, -2)) @ w, compute_uv=False) ** 2
    _, n1, _ = spec.counts
    return vals[:, n1:][:, ::-1]


@pytest.mark.parametrize("model", [(5, 3, 4), (7, 2, 4)])
def test_one_frame_draws_have_the_two_frame_law(model):
    spec = EnsembleSpec(*model)
    one = sample_spectra(spec, 4000, seed=21)
    two = _two_frame_spectra(spec, 4000, seed=22)
    assert one.shape == two.shape
    # each ordered eigenvalue is independent across draws
    for j in range(one.shape[1]):
        assert ks_2samp(one[:, j], two[:, j]).pvalue > 1e-3, j


def test_sampling_rejects_tilted_model():
    with pytest.raises(ValidationError):
        sample_spectra(EnsembleSpec(3, 2, 2, PsiSpec((0.0, 1.0))), 10, seed=0)


def test_mcmc_reproduces_the_untilted_law():
    spec = EnsembleSpec(4, 2, 2)
    chain = mcmc_tilted_spectrum(spec, seed=5, count=3000)
    assert chain.acceptance > 0.1
    direct = sample_spectra(spec, 3000, seed=6)
    stat = ks_2samp(chain.samples.ravel(), direct.ravel())
    assert stat.pvalue > 1e-3


def test_mcmc_tilted_matches_quadrature_mean():
    psi = PsiSpec((0.0, 1.0))
    spec = EnsembleSpec(3, 2, 2, psi)
    chain = mcmc_tilted_spectrum(spec, seed=7, count=3000)
    num = quad(lambda x: x * (1.0 - x) * np.exp(-3.0 * x), 0.0, 1.0)[0]
    den = quad(lambda x: (1.0 - x) * np.exp(-3.0 * x), 0.0, 1.0)[0]
    exact_mean = num / den
    se = float(np.std(chain.samples)) / math.sqrt(chain.samples.size)
    assert float(np.mean(chain.samples)) == pytest.approx(exact_mean, abs=max(5 * se, 5e-3))


def test_mcmc_matches_the_exact_one_point_mean():
    # the benchmark's chain model; with psi = x the report's E[sum psi] is E[sum x]
    spec = EnsembleSpec(16, 8, 8, PsiSpec((0.0, 1.0)))
    exact_mean = lsi_matrix_report(spec).mean_psi_sum / spec.counts[2]
    chain = mcmc_tilted_spectrum(spec, seed=101, count=400, burn_in=2000)
    se = float(np.std(chain.samples)) / math.sqrt(chain.samples.size)
    assert float(np.mean(chain.samples)) == pytest.approx(exact_mean, abs=max(5 * se, 5e-3))


def test_matrix_report_quadrature_mode():
    psi = PsiSpec((0.0, 0.5))
    spec = EnsembleSpec(3, 2, 2, psi)
    rep = lsi_matrix_report(spec)
    assert rep.mode == "quadrature"
    assert rep.log_z_se == 0.0
    assert rep.entropy >= 0.0
    assert rep.margin >= -3.0 * rep.margin_se
    assert rep.margin == pytest.approx(rep.dirichlet - rep.entropy, abs=1e-9)
    num = quad(lambda x: x * (1.0 - x) * np.exp(-1.5 * x), 0.0, 1.0)[0]
    den = quad(lambda x: (1.0 - x) * np.exp(-1.5 * x), 0.0, 1.0)[0]
    assert rep.mean_psi_sum == pytest.approx(0.5 * num / den, abs=1e-12)
    assert rep.margin_se <= 1e-12


def test_matrix_report_ignores_seed_and_count():
    spec = EnsembleSpec(6, 3, 2, PsiSpec((0.0, 1.0, -0.5)))
    assert lsi_matrix_report(spec, seed=1, count=10) == lsi_matrix_report(spec, seed=2)


def test_matrix_report_refuses_an_unresolved_tilt():
    # exp(-1600 x) is a spike narrower than the spacing of the default nodes;
    # the dynamic-range failure is checked through the CLI
    spec = EnsembleSpec(4, 2, 2, PsiSpec((0.0, 400.0)))
    with pytest.raises(NumericalError):
        lsi_matrix_report(spec)


def test_matrix_report_needs_a_tilt():
    with pytest.raises(ValidationError):
        lsi_matrix_report(EnsembleSpec(3, 2, 2), seed=0)
