"""Hilbert transform and Fisher functionals against independent oracles."""

import numpy as np
import pytest
from scipy.integrate import quad

from liberlab import densities
from liberlab.densities import (
    arcsine_density,
    cheb_density,
    density_values,
    table_density,
    uniform_density,
)
from liberlab.errors import ValidationError
from liberlab.entropy import equilibrium_solve, relative_sigma_h
from liberlab.fisher import check_lsi, hilbert_transform, phi_star, relative_phi_h
from liberlab.laws import ProjectionPairLaw, free_pair_law
from liberlab.potentials import poly_potential

from conftest import random_generic_law

M = 2048
UNIFORM = ProjectionPairLaw(0.5, 0.5, 0.0, 0.0, 0.0, 0.0, uniform_density(1.0))
PHI_UNIFORM = np.pi**2 / 18.0 - 1.0 / 3.0
CHI_UNIFORM = -3.0 / 8.0 + np.log(2.0) / 2.0


def smooth_bump(mass=1.0, lo=0.2, hi=0.8):
    nodes = np.linspace(lo, hi, 801)
    u = (nodes - lo) / (hi - lo)
    raw = np.sin(np.pi * u) ** 2
    base = table_density(nodes, raw, (1.0, 1.0))
    return table_density(nodes, raw * (mass / base.mass), (1.0, 1.0), mass)


def test_arcsine_transform_vanishes():
    hf = hilbert_transform(arcsine_density(1.0), 4096)
    assert np.max(np.abs(hf.values)) <= 1e-8


def test_semicircle_transform_is_linear():
    m = 1024
    theta = (2 * np.arange(m) + 1) * np.pi / (2 * m)
    x = 0.5 * (1.0 + np.cos(theta))[::-1]
    g = (8.0 / np.pi) * x * (1.0 - x)
    d = cheb_density(g)
    hf = hilbert_transform(d, m)
    expected = 8.0 * hf.nodes - 4.0
    rel = np.max(np.abs(hf.values - expected)) / np.max(np.abs(expected))
    assert rel <= 1e-6


def test_uniform_transform_is_logit():
    hf = hilbert_transform(uniform_density(1.0), M)
    inner = (hf.nodes > 0.01) & (hf.nodes < 0.99)
    expected = np.log(hf.nodes / (1.0 - hf.nodes))
    assert np.max(np.abs(hf.values - expected)[inner]) <= 1e-8


def test_transform_against_principal_value_quadrature():
    d = smooth_bump()
    hf = hilbert_transform(d, 4096)
    f = lambda t: density_values(d, np.atleast_1d(t))[0]
    for x in (0.35, 0.5, 0.62):
        oracle = -quad(f, 0.2, 0.8, weight="cauchy", wvar=x, limit=200)[0]
        got = np.interp(x, hf.nodes, hf.values)
        assert got == pytest.approx(oracle, abs=6e-3), x


def test_transform_is_linear_in_the_density():
    m = 512
    theta = (2 * np.arange(m) + 1) * np.pi / (2 * m)
    x = 0.5 * (1.0 + np.cos(theta))[::-1]
    g1 = x * (1.0 - x)
    g2 = np.sin(np.pi * x) ** 2 * (1.2 + x)
    h1 = hilbert_transform(cheb_density(g1), m)
    h2 = hilbert_transform(cheb_density(g2), m)
    h12 = hilbert_transform(cheb_density(g1 + g2), m)
    scale = np.max(np.abs(h12.values))
    assert np.allclose(
        h1.values + h2.values, h12.values, atol=1e-12 * scale, rtol=0.0
    )


def test_transform_rejects_non_cube_integrable_density():
    spiky = table_density(np.linspace(0.2, 0.8, 101), np.ones(101), (-0.9, -0.9))
    with pytest.raises(ValidationError, match="cube integrable"):
        hilbert_transform(spiky, M)


def test_phi_star_uniform_worked_value():
    rep = phi_star(UNIFORM, 4096)
    assert rep.integrability_ok
    assert rep.phi_star == pytest.approx(PHI_UNIFORM, abs=1e-10)


def test_phi_star_free_laws_vanish():
    for a, b in [(0.5, 0.5), (0.3, 0.6), (0.25, 0.8)]:
        rep = phi_star(free_pair_law(a, b), M)
        assert rep.phi_star <= 1e-10, (a, b)


def test_phi_star_infinite_cases():
    non_generic = ProjectionPairLaw(0.5, 0.5, 0.25, 0.0, 0.0, 0.25, uniform_density(0.5))
    rep = phi_star(non_generic, M)
    assert rep.phi_star == np.inf
    assert rep.cause == "the atom pattern is not in generic position"

    flat_atom = ProjectionPairLaw(0.4, 0.5, 0.0, 0.0, 0.1, 0.1, uniform_density(0.8))
    rep = phi_star(flat_atom, M)
    assert rep.phi_star == np.inf
    assert not rep.integrability_ok


def test_phi_star_zero_density_law():
    law = free_pair_law(0.0, 0.3)
    rep = phi_star(law, M)
    assert rep.phi_star == 0.0


def test_relative_phi_matches_direct_quadrature():
    h = poly_potential((0.0, 0.0, 0.5))
    got = relative_phi_h(UNIFORM, h, 4096)

    def integrand(x):
        drift = np.log(x / (1.0 - x)) - x
        return drift * drift * x * (1.0 - x)

    oracle = quad(integrand, 0.0, 1.0, limit=200)[0]
    assert got == pytest.approx(oracle, abs=1e-9)


def test_check_lsi_uniform_report():
    rep = check_lsi(UNIFORM, grid=4096)
    assert rep.chi == pytest.approx(CHI_UNIFORM, abs=1e-10)
    assert rep.phi_star == pytest.approx(PHI_UNIFORM, abs=1e-10)
    assert rep.margin == pytest.approx(CHI_UNIFORM + PHI_UNIFORM, abs=1e-10)
    assert not rep.vacuous
    assert rep.sigma_h is None


# chi, phi_star and margin of check_lsi(random_generic_law(seed), grid=1024),
# recorded from the elementwise singularity-subtracted transform sum
TABLE_LSI_1024 = {
    3: (-0.03045269977593501, 0.2099661963900311, 0.1795134966140961),
    5: (-0.11462667429660123, 3.1138055179332307, 2.9991788436366296),
    8: (-0.005259550355545414, 0.07823853230602609, 0.07297898195048068),
}


@pytest.mark.parametrize("seed", sorted(TABLE_LSI_1024))
def test_check_lsi_on_table_laws_matches_recorded_values(seed):
    rep = check_lsi(random_generic_law(np.random.default_rng(seed)), grid=1024)
    got = (rep.chi, rep.phi_star, rep.margin)
    np.testing.assert_allclose(got, TABLE_LSI_1024[seed], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("h", [None, poly_potential((0.0, 0.0, 0.5))])
def test_check_lsi_builds_one_interpolant_per_table_law(monkeypatch, h):
    law = random_generic_law(np.random.default_rng(3))
    builds = []

    class Counting(densities.PchipInterpolator):
        def __init__(self, *args, **kwargs):
            builds.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(densities, "PchipInterpolator", Counting)
    check_lsi(law, h, c1=0.3, c2=0.3, grid=256)
    check_lsi(law, h, c1=0.3, c2=0.3, grid=512)
    assert len(builds) <= 1


@pytest.mark.parametrize("grid", [1, 100, 192])
def test_check_lsi_reports_the_nodes_of_the_graded_rule(grid):
    # the graded Gauss-Legendre rule has 192 nodes for every grid up to 192
    law = random_generic_law(np.random.default_rng(11))
    assert check_lsi(law, grid=grid).nodes == 192


def test_check_lsi_reports_the_nodes_it_ran():
    assert check_lsi(free_pair_law(0.3, 0.6), grid=100).nodes == 100
    law = ProjectionPairLaw(0.5, 0.5, 0.25, 0.0, 0.0, 0.25, uniform_density(0.5))
    rep = check_lsi(law, grid=100)
    assert rep.phi_star == np.inf and rep.nodes == 0


def test_check_lsi_vacuous_on_non_generic():
    law = ProjectionPairLaw(0.5, 0.5, 0.25, 0.0, 0.0, 0.25, uniform_density(0.5))
    rep = check_lsi(law, grid=M)
    assert rep.vacuous
    assert rep.chi == -np.inf
    assert rep.margin == np.inf


def test_check_lsi_relative_fields():
    h = poly_potential((0.0, 0.0, 0.5))
    rep = check_lsi(UNIFORM, h, c1=0.3, c2=0.3, grid=M)
    assert rep.smallness_ok
    assert rep.factor == pytest.approx(1.0 / (1.0 - 0.6), rel=1e-12)
    assert rep.norm_dh == pytest.approx(1.0, rel=1e-3)
    assert rep.relative_margin == pytest.approx(
        rep.factor * rep.phi_h - rep.sigma_h, rel=1e-12
    )
    assert rep.relative_margin > 0

    big = check_lsi(UNIFORM, h, c1=2.0, c2=1.0, grid=M)
    assert not big.smallness_ok
    assert big.factor == np.inf


def test_check_lsi_reports_the_tilted_solve():
    h = poly_potential((0.0, 0.0, 0.5))
    tilted = check_lsi(UNIFORM, h, c1=0.3, c2=0.3, grid=M)
    assert tilted.equilibrium_converged is True
    solve = equilibrium_solve(0.5, 0.5, h, M)
    assert tilted.equilibrium_iterations == solve.iterations > 0
    assert tilted.equilibrium_solve_iterations == solve.solve_iterations > 0
    assert tilted.equilibrium_flatness == solve.flatness <= 1e-6
    assert tilted.sigma_h == relative_sigma_h(UNIFORM, h, M)
    plain = check_lsi(UNIFORM, grid=M)
    law = ProjectionPairLaw(0.5, 0.5, 0.25, 0.0, 0.0, 0.25, uniform_density(0.5))
    vacuous = check_lsi(law, h, c1=0.3, c2=0.3, grid=M)
    assert vacuous.sigma_h == np.inf
    for rep in (plain, vacuous):
        assert rep.equilibrium_converged is None
        assert rep.equilibrium_iterations is None
        assert rep.equilibrium_solve_iterations is None
        assert rep.equilibrium_flatness is None
