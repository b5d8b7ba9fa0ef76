"""Entropy functional, its constant, the equilibrium solver, and the rate."""

import json
from pathlib import Path

import numpy as np
import pytest

from liberlab import entropy
from liberlab.chebyshev import cosine_series_at_angles, moments_from_masses
from liberlab.densities import density_values, free_pair_density, uniform_density
from liberlab.entropy import (
    _energy_kernel,
    _minus_energy_matrix,
    _nodes_on_unit,
    _tilt_values,
    b_function,
    chi_proj,
    constant_C,
    equilibrium_field,
    equilibrium_objective,
    equilibrium_solve,
    rate_function,
    relative_sigma_h,
    tau_of_potential,
)
from liberlab.laws import ProjectionPairLaw, free_pair_law
from liberlab.potentials import poly_potential, zero_potential

from conftest import random_generic_law

M = 2048
ORACLE = json.loads(
    (Path(__file__).parent / "fixtures" / "equilibrium_oracle.json").read_text()
)
UNIFORM = ProjectionPairLaw(0.5, 0.5, 0.0, 0.0, 0.0, 0.0, uniform_density(1.0))
CHI_UNIFORM = -3.0 / 8.0 + np.log(2.0) / 2.0


def test_b_function_worked_values():
    assert b_function(0.0, 0.0) == pytest.approx(-2.0 * np.log(2.0), abs=1e-14)
    assert b_function(1.0, 0.0) == pytest.approx(b_function(0.0, 1.0), abs=1e-14)
    assert b_function(0.3, 0.5) == pytest.approx(b_function(0.5, 0.3), abs=1e-14)


def test_constant_c_symmetries_and_value():
    rho, c = constant_C(UNIFORM)
    assert rho == 0.5
    assert c == pytest.approx(-np.log(2.0) / 2.0, abs=1e-14)
    for a, b in [(0.3, 0.6), (0.2, 0.45), (0.7, 0.55)]:
        _, c_ab = constant_C(free_pair_law(a, b))
        _, c_ba = constant_C(free_pair_law(b, a))
        _, c_flip = constant_C(free_pair_law(1 - a, 1 - b))
        assert c_ab == pytest.approx(c_ba, abs=1e-13)
        assert c_ab == pytest.approx(c_flip, abs=1e-13)


def test_chi_uniform_worked_value():
    rep = chi_proj(UNIFORM, 4096)
    assert rep.generic
    assert rep.chi == pytest.approx(CHI_UNIFORM, abs=1e-10)
    assert rep.sigma == pytest.approx(-1.5, abs=1e-9)
    assert rep.log_moment_0 == pytest.approx(-1.0, abs=1e-9)


def test_chi_free_laws_vanish():
    for a, b in [(0.5, 0.5), (0.3, 0.6), (0.2, 0.2), (0.85, 0.4)]:
        rep = chi_proj(free_pair_law(a, b), M)
        assert abs(rep.chi) < 1e-10, (a, b)


def test_chi_non_generic_is_minus_infinity():
    law = ProjectionPairLaw(0.5, 0.5, 0.25, 0.0, 0.0, 0.25, uniform_density(0.5))
    rep = chi_proj(law, M)
    assert rep.chi == -np.inf
    assert not rep.generic
    assert rep.cause == "the atom pattern is not in generic position"


def test_chi_purely_atomic_generic_law():
    law = free_pair_law(0.0, 0.4)
    rep = chi_proj(law, M)
    assert np.isfinite(rep.chi)


def test_equilibrium_recovers_free_density():
    for a, b in [(0.5, 0.5), (0.3, 0.6), (0.42, 0.77)]:
        res = equilibrium_solve(a, b, None, M)
        assert res.converged
        free = free_pair_density(a, b)
        grid = np.linspace(1e-3, 1 - 1e-3, 2001)
        got = density_values(res.density, grid)
        want = density_values(free, grid)
        l1 = np.trapezoid(np.abs(got - want), grid)
        assert l1 <= 1e-3, (a, b, l1)
        assert abs(res.B_h) < 1e-7


def test_exact_start_needs_no_active_set_round():
    """Uniform node masses solve the untilted (1/2, 1/2) problem exactly."""
    exact = equilibrium_solve(0.5, 0.5, None, M)
    assert exact.converged and exact.iterations == 0
    assert exact.flatness <= 1e-12
    assert abs(exact.B_h) <= 1e-14
    assert equilibrium_solve(0.3, 0.6, None, M).iterations > 0


def test_equilibrium_tilted_flatness_and_Bh():
    h = poly_potential((0.0, 0.0, 0.5))
    res = equilibrium_solve(0.5, 0.5, h, M)
    assert res.converged
    assert res.flatness <= 1e-6
    assert res.B_h < 0.0
    assert res.density.mass == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize(
    "case", ORACLE["cases"], ids=lambda c: f"{c['alpha']:.3f}-{c['beta']:.3f}-{c['grid']}"
)
def test_equilibrium_matches_the_recorded_oracle(case):
    """B_h, objective and density against the solver the active set replaced.

    Where that solver ended in its exact KKT solve (or was exact from the
    start) the density agrees to 1e-9 of its peak; where its mirror
    ascent stopped on its own at flatness <= 1e-6, only to 1e-4.
    """
    h = poly_potential(tuple(case["h"])) if case["h"] else None
    res = equilibrium_solve(case["alpha"], case["beta"], h, case["grid"])
    assert res.converged
    assert res.flatness <= 1e-12
    assert res.B_h == pytest.approx(case["B_h"], abs=1e-10)
    assert res.objective == pytest.approx(case["objective"], abs=1e-10)
    probe = ORACLE["probe"]
    got = density_values(res.density, np.linspace(probe["lo"], probe["hi"], probe["count"]))
    want = np.array(case["density"])
    rel = 1e-9 if case["flatness"] <= 1e-12 else 1e-4
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("m", [1, 2, 7, 64, 100, 1024])
def test_energy_matrix_matches_the_transform_potential(m):
    rng = np.random.default_rng(m)
    masses = rng.random(m)
    c = moments_from_masses(masses)
    potential = masses.sum() * (-2.0 * np.log(2.0)) - 2.0 * cosine_series_at_angles(
        c[1:] / np.arange(1, m), m
    )
    s = _energy_kernel(m)
    every = np.arange(m)
    full = -_minus_energy_matrix(s, every, every) @ masses
    assert np.max(np.abs(full - potential)) <= 1e-12 * np.max(np.abs(potential))
    # on a node subset, with the masses outside it set to zero
    idx = np.flatnonzero(rng.random(m) < 0.6) if m > 1 else np.arange(1)
    sub = np.zeros(m)
    sub[idx] = masses[idx]
    c = moments_from_masses(sub)
    potential = sub.sum() * (-2.0 * np.log(2.0)) - 2.0 * cosine_series_at_angles(
        c[1:] / np.arange(1, m), m
    )
    got = -_minus_energy_matrix(s, idx, idx) @ masses[idx]
    assert np.max(np.abs(got - potential[idx])) <= 1e-12 * np.max(np.abs(potential))
    # a rectangular block: the potential of the subset's masses on every node
    got = -_minus_energy_matrix(s, every, idx) @ masses[idx]
    assert np.max(np.abs(got - potential)) <= 1e-12 * np.max(np.abs(potential))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 63, 65, 100, 257])
def test_equilibrium_converges_at_any_grid(m):
    """Sizes off the multiples of 4 and at or below the full-support start."""
    tilt = poly_potential((0.0, 0.0, 0.5))
    for a, b, h in [(0.3, 0.6, None), (0.5, 0.5, tilt), (0.42, 0.77, tilt)]:
        res = equilibrium_solve(a, b, h, m)
        assert res.converged, (a, b, m)
        assert res.density.mass == pytest.approx(2.0 * res.rho, abs=1e-12)
        assert res.flatness <= 1e-6


BORDERED_CASES = [
    (0.3, 0.6, None),
    (0.42, 0.77, poly_potential((0.0, 0.3))),
    (0.4, 0.6, poly_potential((0.0, -0.4, 0.8))),
]


def _levels(m):
    """How many grids the active-set recursion visits for a solve at m nodes."""
    return 1 if m <= 64 else 1 + _levels(m // 4)


@pytest.mark.parametrize("m", [64, 256, 1024])
@pytest.mark.parametrize("a, b, h", BORDERED_CASES)
def test_one_factorization_per_level(monkeypatch, m, a, b, h):
    """Every round after a level's first is a bordered solve on its factor."""
    factor = entropy.cho_factor
    sizes = []

    def counting(matrix, *args, **kwargs):
        sizes.append(matrix.shape[0])
        return factor(matrix, *args, **kwargs)

    monkeypatch.setattr(entropy, "cho_factor", counting)
    res = equilibrium_solve(a, b, h, m)
    assert res.converged
    assert res.iterations > _levels(m)
    assert len(sizes) <= _levels(m), sizes


@pytest.mark.parametrize("m", [64, 256, 1024])
@pytest.mark.parametrize("a, b, h", BORDERED_CASES)
def test_bordered_masses_match_a_fresh_dense_solve(m, a, b, h):
    """The returned masses solve the first-order system on their support."""
    res = equilibrium_solve(a, b, h, m)
    mass = 2.0 * res.rho
    masses = res.density.values[::-1] * (np.pi / m)
    idx = np.flatnonzero(masses > 0.0)
    w = _tilt_values(res.coeff0, res.coeff1, h or zero_potential(), _nodes_on_unit(m)[1])
    matrix = _minus_energy_matrix(_energy_kernel(m), idx, idx)
    u, v = np.linalg.solve(matrix, np.column_stack([w[idx], np.ones(idx.size)])).T
    want = u - v * ((np.sum(u) - mass) / np.sum(v))
    assert np.max(np.abs(masses[idx] - want)) <= 1e-12 * mass


@pytest.mark.parametrize("m", [256, 1024, 2048])
def test_support_is_the_free_pair_support(m):
    """Untilted, the outermost nodes with mass bracket the free-pair edges."""
    res = equilibrium_solve(0.3, 0.6, None, m)
    nodes = np.sort(_nodes_on_unit(m)[1])
    for got, want in zip(res.support, free_pair_density(0.3, 0.6).support):
        i = np.searchsorted(nodes, got)
        assert nodes[i] == got
        assert nodes[i - 1] <= want <= nodes[i + 1], (got, want)
    assert equilibrium_solve(0.0, 0.4, None, m).support is None


def test_equilibrium_objective_concavity():
    h = poly_potential((0.0, 0.3))
    rng = np.random.default_rng(5)
    m1 = rng.random(257)
    m2 = rng.random(257)
    m1 *= 1.0 / m1.sum()
    m2 *= 1.0 / m2.sum()
    f1 = equilibrium_objective(0.5, 0.5, h, m1)
    f2 = equilibrium_objective(0.5, 0.5, h, m2)
    fmid = equilibrium_objective(0.5, 0.5, h, 0.5 * (m1 + m2))
    assert fmid >= 0.5 * (f1 + f2) - 1e-10


def test_relative_sigma_zero_at_maximizer():
    h = poly_potential((0.0, 0.0, 0.4))
    res = equilibrium_solve(0.4, 0.6, h, M)
    law = res.law
    value = relative_sigma_h(law, h, M)
    assert abs(value) <= 1e-6
    off = relative_sigma_h(free_pair_law(0.4, 0.6), h, M)
    assert off > value - 1e-12


def test_relative_sigma_nonnegative_on_random_laws(rng):
    h = poly_potential((0.0, 0.1, 0.1))
    for _ in range(5):
        law = random_generic_law(rng)
        assert relative_sigma_h(law, h, 1024) >= -1e-8


def test_tau_of_potential_linearity():
    law = free_pair_law(0.35, 0.6)
    h1 = poly_potential((0.0, 1.0))
    h2 = poly_potential((0.0, 0.0, 1.0))
    combined = poly_potential((0.0, 2.0, 3.0))
    got = tau_of_potential(law, combined, M)
    want = 2 * tau_of_potential(law, h1, M) + 3 * tau_of_potential(law, h2, M)
    assert got == pytest.approx(want, rel=1e-10)
    assert tau_of_potential(law, zero_potential(), M) == 0.0


def test_rate_function_zero_at_minimizer_positive_away():
    res = equilibrium_solve(0.5, 0.5, None, M)
    F, cprime = equilibrium_field(res)
    at_min = rate_function(res.density, F, res.rho, cprime, M)
    assert abs(at_min) <= 1e-6
    shifted = uniform_density(res.density.mass, (0.25, 0.75))
    away = rate_function(shifted, F, res.rho, cprime, M)
    assert away > 1e-3


def test_chi_margin_sanity_on_random_laws(rng):
    for _ in range(3):
        law = random_generic_law(rng)
        rep = chi_proj(law, 1024)
        assert np.isfinite(rep.chi)
        free_rep = chi_proj(free_pair_law(law.alpha, law.beta), 1024)
        assert rep.chi <= free_rep.chi + 1e-9
