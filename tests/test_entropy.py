"""Entropy functional, its constant, the equilibrium solver, and the rate."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import fft

from liberlab import entropy
from liberlab.densities import density_values, free_pair_density, uniform_density
from liberlab.entropy import (
    _energy_operators,
    _equilibrium_objective,
    _nodes_on_unit,
    _tilt_values,
    b_function,
    chi_proj,
    constant_C,
    equilibrium_field,
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


def _energy_kernel(m):
    """S(p) = sum_{k=1}^{m-1} cos(k p pi / m) / k for p = 0, ..., 2m-1."""
    a = np.zeros(2 * m)
    a[1:m] = 1.0 / np.arange(1, m)
    return fft(a).real


def _minus_energy_matrix(m, rows, cols):
    """-A on the nodes rows x cols, for the truncated energy masses @ A @ masses.

    With theta_i - theta_j = (i-j) pi/m and theta_i + theta_j =
    (i+j+1) pi/m, the energy's cosine series gives the closed form
    A_ij = -2 log 2 - S(i-j) - S(i+j+1), S = _energy_kernel(m): the dense
    reference for the solver's matrix-free operator.
    """
    s = _energy_kernel(m)
    i = rows[:, None]
    return 2.0 * np.log(2.0) + s[np.abs(i - cols)] + s[i + cols + 1]


def test_b_function_worked_values():
    assert b_function(0.0, 0.0) == pytest.approx(-2.0 * np.log(2.0), abs=1e-14)
    assert b_function(1.0, 0.0) == pytest.approx(b_function(0.0, 1.0), abs=1e-14)
    assert b_function(0.3, 0.5) == pytest.approx(b_function(0.5, 0.3), abs=1e-14)


def test_constant_c_symmetries_and_value():
    assert UNIFORM.rho == 0.5
    assert constant_C(UNIFORM) == pytest.approx(-np.log(2.0) / 2.0, abs=1e-14)
    for a, b in [(0.3, 0.6), (0.2, 0.45), (0.7, 0.55)]:
        c_ab = constant_C(free_pair_law(a, b))
        c_ba = constant_C(free_pair_law(b, a))
        c_flip = constant_C(free_pair_law(1 - a, 1 - b))
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


@pytest.mark.parametrize("grid", [1, 100, 192])
def test_chi_reports_the_moments_it_summed(grid):
    """A table law's log energy sums 4096 moments at every grid up to 2048."""
    law = random_generic_law(np.random.default_rng(11))
    rep = chi_proj(law, grid)
    assert rep.moments == 4096
    assert rep.sigma == chi_proj(law, 2048).sigma
    assert chi_proj(free_pair_law(0.3, 0.6), grid).moments == grid
    assert chi_proj(free_pair_law(0.0, 0.4), grid).moments == 0


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
    """The matrix-free -A and its inverse against the dense closed form."""
    minus_energy, inverse = _energy_operators(m)
    rng = np.random.default_rng(m)
    masses = rng.random(m)
    every = np.arange(m)
    dense = _minus_energy_matrix(m, every, every)
    want = dense @ masses
    scale = np.max(np.abs(want))
    assert np.max(np.abs(minus_energy(masses) - want)) <= 1e-12 * scale
    # on a node subset, with the masses outside it set to zero, and the
    # rectangular block: the subset's potential on every node
    idx = np.flatnonzero(rng.random(m) < 0.6) if m > 1 else np.arange(1)
    sub = np.zeros(m)
    sub[idx] = masses[idx]
    got = minus_energy(sub)
    want = _minus_energy_matrix(m, idx, idx) @ masses[idx]
    assert np.max(np.abs(got[idx] - want)) <= 1e-12 * scale
    want = _minus_energy_matrix(m, every, idx) @ masses[idx]
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    # a (2, m) stack is two rows, and the preconditioner is the inverse,
    # up to rounding times the condition number of -A (about 1.4 m)
    stack = np.stack([masses, sub])
    assert np.array_equal(minus_energy(stack)[1], got)
    assert np.max(np.abs(inverse(minus_energy(stack)) - stack)) <= 1e-15 * m


@pytest.mark.parametrize("m", [1, 2, 3, 5, 63, 65, 100, 257])
def test_equilibrium_converges_at_any_grid(m):
    """Sizes off the multiples of 4 and at or below the full-support start.

    At traces (1e-6, 1/2) the free-pair support is narrower than the
    node spacing of some coarsest levels; the start then holds no mass
    and falls back to uniform masses."""
    tilt = poly_potential((0.0, 0.0, 0.5))
    for a, b, h in [(0.3, 0.6, None), (0.5, 0.5, tilt), (0.42, 0.77, tilt), (1e-6, 0.5, None)]:
        res = equilibrium_solve(a, b, h, m)
        assert res.converged, (a, b, m)
        assert res.density.mass == pytest.approx(2.0 * res.law.rho, abs=1e-12)
        assert res.flatness <= 1e-6


BORDERED_CASES = [
    (0.3, 0.6, None),
    (0.42, 0.77, poly_potential((0.0, 0.3))),
    (0.4, 0.6, poly_potential((0.0, -0.4, 0.8))),
]


def _levels(m):
    """How many grids the active-set recursion visits for a solve at m nodes."""
    return 1 if m <= 64 else 1 + _levels(m // 4)


@pytest.mark.parametrize("m", [64, 256, 1024, 2048])
@pytest.mark.parametrize("a, b, h", BORDERED_CASES)
def test_solve_forms_no_dense_matrix(m, a, b, h):
    """The rounds' solves stay matrix-free: the solve allocates a few node
    vectors, where a dense factor on the 1512-node support at 2048 takes 18 MB."""
    equilibrium_solve(a, b, h, m)
    tracemalloc.start()
    try:
        res = equilibrium_solve(a, b, h, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged
    assert res.iterations > _levels(m)
    assert res.solve_iterations >= res.iterations
    assert peak <= 4 * 2**20, peak


# conjugate-gradient iterations of each BORDERED_CASES solve at 1024 nodes
# when every round solved for two right-hand sides, the masses and the
# constraint, from the previous round's solutions
TWO_ROW_ITERATIONS = [35, 58, 16]


@pytest.mark.parametrize("case, two_row", zip(BORDERED_CASES, TWO_ROW_ITERATIONS))
def test_solve_transforms_one_row_per_call(monkeypatch, case, two_row):
    """The mass constraint rides on the conjugate-gradient row itself: each
    iteration transforms one row of node masses (-A and the preconditioner,
    two DCTs each), and a round or a level adds only a few transforms.
    Warm-started from the previous round's masses, the one row also needs
    fewer iterations than the two rows did."""
    calls = []
    inside = [False]
    dct, pcg = entropy.dct, entropy._pcg

    def counting(x, *args, **kwargs):
        calls.append((np.ndim(x), inside[0]))
        return dct(x, *args, **kwargs)

    def traced(*args):
        inside[0] = True
        try:
            return pcg(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(entropy, "dct", counting)
    monkeypatch.setattr(entropy, "_pcg", traced)
    res = equilibrium_solve(*case, 1024)
    assert res.converged
    assert res.solve_iterations < two_row
    in_pcg = [ndim for ndim, within in calls if within]
    assert in_pcg and all(ndim == 1 for ndim in in_pcg)
    assert len(calls) <= 4 * res.solve_iterations + 6 * res.iterations + 8 * _levels(1024)


def test_iteration_cap_ends_the_solve_unconverged(monkeypatch):
    monkeypatch.setattr(entropy, "_PCG_MAX", 1)
    res = equilibrium_solve(0.3, 0.6, None, 256)
    assert res.converged is False
    assert res.solve_iterations >= 1
    assert np.isfinite(res.B_h)


def test_loose_rounds_find_the_maximizer_of_tight_rounds(monkeypatch):
    """Rounds that only decide the active set may stop at a loose residual:
    after the one polish on the final set, the maximizer is the one that
    rounds solved to 1e-15 throughout give, for fewer iterations."""
    cases = BORDERED_CASES + [(0.5, 0.5, poly_potential((0.0, 0.0, 0.5)))]
    grids = [64, 256, 1024, 2048]
    loose = [equilibrium_solve(a, b, h, m) for a, b, h in cases for m in grids]
    monkeypatch.setattr(entropy, "_ROUND_TOL", entropy._PCG_TOL)
    tight = [equilibrium_solve(a, b, h, m) for a, b, h in cases for m in grids]
    for got, want in zip(loose, tight):
        assert got.converged and want.converged
        assert abs(got.B_h - want.B_h) <= 1e-14
        assert abs(got.objective - want.objective) <= 1e-14
        peak = np.max(np.abs(want.density.values))
        assert np.max(np.abs(got.density.values - want.density.values)) <= 1e-10 * peak
    assert sum(r.solve_iterations for r in loose) < sum(r.solve_iterations for r in tight)


def test_free_pair_start_shortens_the_untilted_solve():
    """The coarsest level starts from the free-pair masses of the traces,
    so the untilted solve only refines them (15 rounds from uniform masses)."""
    res = equilibrium_solve(0.3, 0.6, None, M)
    assert res.converged
    assert res.iterations <= 12


@pytest.mark.parametrize("m", [64, 256, 1024])
@pytest.mark.parametrize("a, b, h", BORDERED_CASES)
def test_bordered_masses_match_a_fresh_dense_solve(m, a, b, h):
    """The returned masses solve the first-order system on their support."""
    res = equilibrium_solve(a, b, h, m)
    mass = 2.0 * res.law.rho
    masses = res.density.values[::-1] * (np.pi / m)
    idx = np.flatnonzero(masses > 0.0)
    w = _tilt_values(res.law, h or zero_potential(), _nodes_on_unit(m)[1])
    matrix = _minus_energy_matrix(m, idx, idx)
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


@pytest.mark.parametrize("m", [1, 2, 7, 64, 257])
def test_equilibrium_objective_matches_the_dense_quadratic(m):
    """(1/4) masses @ A @ masses + (1/2) masses @ tilt, A from the closed form."""
    h = poly_potential((0.0, 0.3, -0.2))
    masses = np.random.default_rng(m).random(m)
    every = np.arange(m)
    energy = -masses @ _minus_energy_matrix(m, every, every) @ masses
    tilt = masses @ _tilt_values(free_pair_law(0.3, 0.6), h, _nodes_on_unit(m)[1])
    want = 0.25 * energy + 0.5 * tilt
    got = _equilibrium_objective(0.3, 0.6, h, masses)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_equilibrium_objective_concavity():
    h = poly_potential((0.0, 0.3))
    rng = np.random.default_rng(5)
    m1 = rng.random(257)
    m2 = rng.random(257)
    m1 *= 1.0 / m1.sum()
    m2 *= 1.0 / m2.sum()
    f1 = _equilibrium_objective(0.5, 0.5, h, m1)
    f2 = _equilibrium_objective(0.5, 0.5, h, m2)
    fmid = _equilibrium_objective(0.5, 0.5, h, 0.5 * (m1 + m2))
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
    at_min = rate_function(res.density, F, res.law.rho, cprime, M)
    assert abs(at_min) <= 1e-6
    shifted = uniform_density(res.density.mass, (0.25, 0.75))
    away = rate_function(shifted, F, res.law.rho, cprime, M)
    assert away > 1e-3


def test_chi_margin_sanity_on_random_laws(rng):
    for _ in range(3):
        law = random_generic_law(rng)
        rep = chi_proj(law, 1024)
        assert np.isfinite(rep.chi)
        free_rep = chi_proj(free_pair_law(law.alpha, law.beta), 1024)
        assert rep.chi <= free_rep.chi + 1e-9
