"""Symmetries of the pair: replacing Q by I - Q, P by I - P, and swapping P and Q."""

from dataclasses import asdict

import numpy as np
import pytest
from scipy.stats import ks_2samp

from liberlab.densities import table_density
from liberlab.ensemble import EnsembleSpec, sample_spectra
from liberlab.entropy import chi_proj, equilibrium_solve
from liberlab.fisher import EMPIRICAL_C1, EMPIRICAL_C2, check_lsi, phi_star
from liberlab.laws import ProjectionPairLaw
from liberlab.liberation import istar
from liberlab.potentials import poly_potential

from conftest import random_generic_law

M = 2048


def reflect(law: ProjectionPairLaw) -> ProjectionPairLaw:
    """The law of (P, I - Q): x -> 1 - x, beta -> 1 - beta, and the atoms
    (a11, a10, a01, a00) -> (a10, a11, a00, a01)."""
    d = law.density
    density = table_density(1.0 - d.nodes[::-1], d.values[::-1], d.edge_exponents[::-1], d.mass)
    return ProjectionPairLaw(
        law.alpha, 1.0 - law.beta, law.a10, law.a11, law.a00, law.a01, density
    )


def test_reflection_leaves_chi_and_phi_star_unchanged(rng):
    for _ in range(5):
        law = random_generic_law(rng)
        mirror = reflect(law)
        assert mirror.generic
        assert chi_proj(mirror, M).chi == pytest.approx(chi_proj(law, M).chi, rel=0, abs=1e-12)
        assert phi_star(mirror, M).phi_star == pytest.approx(phi_star(law, M).phi_star, rel=1e-10)


def swap(law: ProjectionPairLaw) -> ProjectionPairLaw:
    """The law of (Q, P): alpha <-> beta and a10 <-> a01, the density unchanged."""
    return ProjectionPairLaw(
        law.beta, law.alpha, law.a11, law.a01, law.a10, law.a00, law.density
    )


def reflect_tilt(h):
    """The tilt h(1 - x) that Q -> I - Q carries h to."""
    poly = np.polynomial.Polynomial
    return poly_potential(poly(h.coeffs)(poly((1.0, -1.0))).coef)


TILTS = [None, poly_potential((0.0, 0.3, -0.2)), poly_potential((0.0, -0.25, 0.1, 0.15))]


def _same_solve(got, want):
    assert got.B_h == want.B_h and got.objective == want.objective
    assert got.flatness == want.flatness and got.support == want.support
    assert (got.iterations, got.solve_iterations) == (want.iterations, want.solve_iterations)
    assert np.array_equal(got.density.values, want.density.values)


@pytest.mark.parametrize("h", TILTS)
def test_swap_leaves_the_equilibrium_unchanged_bit_for_bit(rng, h):
    """equilibrium_solve(beta, alpha, h) is equilibrium_solve(alpha, beta, h):
    the atoms and the free-pair support are computed symmetrically."""
    traces = [(0.3, 0.6), (0.42, 0.77)] + [tuple(rng.uniform(0.05, 0.95, 2)) for _ in range(3)]
    for a, b in traces:
        _same_solve(equilibrium_solve(b, a, h, 1024), equilibrium_solve(a, b, h, 1024))


def test_swap_leaves_the_tilted_lsi_report_unchanged_bit_for_bit(rng):
    h = TILTS[1]
    for _ in range(3):
        law = random_generic_law(rng)
        want = asdict(check_lsi(law, h, EMPIRICAL_C1, EMPIRICAL_C2, 1024))
        assert asdict(check_lsi(swap(law), h, EMPIRICAL_C1, EMPIRICAL_C2, 1024)) == want


@pytest.mark.parametrize("m", [256, 1024])
@pytest.mark.parametrize("h", TILTS)
def test_reflection_mirrors_the_equilibrium(m, h):
    """Q -> I - Q with the tilt reflected to h(1 - x): the same B_h, and
    the support mirrored about 1/2."""
    mirror_h = reflect_tilt(h) if h is not None else None
    for a, b in [(0.3, 0.6), (0.42, 0.77), (0.5, 0.2)]:
        res = equilibrium_solve(a, b, h, m)
        mirror = equilibrium_solve(a, 1.0 - b, mirror_h, m)
        assert res.converged and mirror.converged
        assert abs(mirror.B_h - res.B_h) <= 1e-14
        lo, hi = res.support
        assert mirror.support == pytest.approx((1.0 - hi, 1.0 - lo), rel=0, abs=1e-15)


@pytest.fixture(scope="module")
def flow_laws():
    """Three seed-5 laws and their istar at (n, t) = (128, 4), grid 1024."""
    rng = np.random.default_rng(5)
    laws = [random_generic_law(rng) for _ in range(3)]
    return [(law, istar(law, 128, 4.0, 1024)) for law in laws]


def test_swap_leaves_istar_unchanged_bit_for_bit(flow_laws):
    """The swap keeps the density and the sums a01 + a10 and a00 + a11."""
    for law, rep in flow_laws:
        swapped = istar(swap(law), 128, 4.0, 1024)
        assert (swapped.value, swapped.steps, swapped.evals) == (rep.value, rep.steps, rep.evals)


def test_reflection_leaves_istar_unchanged(flow_laws):
    """Q -> I - Q mirrors the particles.  The flows take the same steps;
    the values differ by at most 1.7e-7 relative, which the mirrored
    table's quantiles put there before the flow starts.  Bound 1e-6,
    about 6x headroom."""
    for law, rep in flow_laws:
        mirror = istar(reflect(law), 128, 4.0, 1024)
        assert mirror.steps == rep.steps
        assert mirror.value == pytest.approx(rep.value, rel=1e-6, abs=0.0)


SAMPLE_MODELS = [(7, 2, 4), (9, 6, 5), (12, 5, 3), (10, 4, 4)]


@pytest.mark.parametrize("model", SAMPLE_MODELS)
def test_swap_and_both_complements_leave_sample_unchanged_bit_for_bit(model):
    """(k, l) -> (l, k) and (k, l) -> (N - k, N - l) keep n, a = |k - l| and
    b = |k + l - N|, which are all the draw depends on."""
    n_dim, k, l = model
    want = sample_spectra(EnsembleSpec(n_dim, k, l), 500, seed=3)
    for ranks in [(l, k), (n_dim - k, n_dim - l), (n_dim - l, n_dim - k)]:
        assert np.array_equal(sample_spectra(EnsembleSpec(n_dim, *ranks), 500, seed=3), want), ranks


@pytest.mark.parametrize("model", SAMPLE_MODELS)
def test_complementing_p_mirrors_sample(model):
    """P -> I - P (k -> N - k) swaps a and b, and the free spectrum goes to
    1 - x: each ordered eigenvalue against its mirror, by two-sample KS."""
    n_dim, k, l = model
    draws = sample_spectra(EnsembleSpec(n_dim, n_dim - k, l), 4000, seed=4)
    mirror = 1.0 - sample_spectra(EnsembleSpec(n_dim, k, l), 4000, seed=5)[:, ::-1]
    assert draws.shape == mirror.shape
    for j in range(draws.shape[1]):
        assert ks_2samp(draws[:, j], mirror[:, j]).pvalue > 1e-3, j
