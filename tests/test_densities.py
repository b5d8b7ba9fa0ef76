"""Density layer: masses, moments, logarithmic functionals, transport."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liberlab import densities
from liberlab.densities import (
    _smooth_callable,
    arcsine_density,
    cheb_density,
    density_cdf,
    density_integrate,
    density_log_energy,
    density_log_moments,
    density_quantiles,
    density_transport,
    density_values,
    density_weighted_p_norm,
    free_pair_density,
    free_pair_support,
    table_density,
    uniform_density,
    w1_empirical_to_density,
    zero_density,
)
from liberlab.errors import ValidationError

from conftest import random_generic_law

M = 2048


def smooth_bump(mass=1.0, lo=0.2, hi=0.8):
    nodes = np.linspace(lo, hi, 401)
    u = (nodes - lo) / (hi - lo)
    raw = np.sin(np.pi * u) ** 2
    base = table_density(nodes, raw, (1.0, 1.0))
    return table_density(nodes, raw * (mass / base.mass), (1.0, 1.0), mass)


def test_construction_basics():
    assert zero_density().mass == 0.0
    assert uniform_density(0.5, (0.1, 0.9)).mass == pytest.approx(0.5)
    assert arcsine_density(1.0).edge_exponents == (-0.5, -0.5)
    with pytest.raises(ValidationError):
        table_density(np.array([0.1, 0.2]), np.array([1.0, -1.0]))
    with pytest.raises(ValidationError):
        table_density(np.array([0.1, 0.2]), np.array([1.0, 1.0]), (-1.5, 0.0))


def test_free_pair_support_matches_closed_form():
    for alpha, beta in [(0.5, 0.5), (0.3, 0.6), (0.45, 0.45), (0.2, 0.9)]:
        lo, hi = free_pair_support(alpha, beta)
        center = alpha + beta - 2 * alpha * beta
        spread = 2 * np.sqrt(alpha * beta * (1 - alpha) * (1 - beta))
        assert lo == pytest.approx(center - spread, abs=1e-14)
        assert hi == pytest.approx(center + spread, abs=1e-14)


def test_free_pair_density_mass_is_twice_rho():
    for alpha, beta in [(0.5, 0.5), (0.3, 0.6), (0.25, 0.85)]:
        rho = min(alpha, beta, 1 - alpha, 1 - beta)
        d = free_pair_density(alpha, beta)
        assert d.mass == pytest.approx(2 * rho, abs=1e-12)
        assert density_integrate(d, lambda x: np.ones_like(x), M) == pytest.approx(
            2 * rho, rel=1e-10
        )


def test_arcsine_values_match_formula():
    d = arcsine_density(1.0)
    x = np.array([0.12, 0.5, 0.77])
    assert np.allclose(density_values(d, x), 1 / (np.pi * np.sqrt(x * (1 - x))))


def test_log_moments_worked_values():
    assert density_log_moments(uniform_density(1.0), M) == pytest.approx(
        (-1.0, -1.0), abs=1e-10
    )
    assert density_log_moments(arcsine_density(1.0), M) == pytest.approx(
        (-2 * np.log(2), -2 * np.log(2)), abs=1e-10
    )
    half = uniform_density(0.5)
    assert density_log_moments(half, M)[0] == pytest.approx(-0.5, abs=1e-10)


def test_log_energy_worked_values():
    assert density_log_energy(uniform_density(1.0), M) == pytest.approx(-1.5, abs=1e-9)
    assert density_log_energy(arcsine_density(1.0), M) == pytest.approx(
        -np.log(4.0), abs=1e-12
    )
    assert density_log_energy(free_pair_density(0.5, 0.5), M) == pytest.approx(
        -np.log(4.0), abs=1e-12
    )


def test_log_energy_affine_scaling():
    big = smooth_bump(0.7, 0.1, 0.9)
    small = smooth_bump(0.7, 0.3, 0.7)
    scale = 0.5
    expected = density_log_energy(big, M) + 0.7**2 * np.log(scale)
    assert density_log_energy(small, M) == pytest.approx(expected, rel=1e-8)


def test_weighted_p_norm_uniform():
    value = density_weighted_p_norm(uniform_density(1.0), 3.0, M)
    assert value == pytest.approx((1.0 / 6.0) ** (1.0 / 3.0), rel=1e-10)


def test_weighted_p_norm_divergence_flag():
    spiky = table_density(
        np.linspace(0.2, 0.8, 101), np.ones(101), (-0.9, 0.0)
    )
    assert density_weighted_p_norm(spiky, 3.0, M) == np.inf


def test_transport_weights_and_arcsine_identity():
    d = arcsine_density(1.0)
    td = density_transport(d, M)
    assert np.sum(td.w_dnu) == pytest.approx(1.0, rel=1e-12)
    assert np.max(np.abs(td.hf)) < 1e-8
    bump = smooth_bump()
    tb = density_transport(bump, M)
    assert np.sum(tb.w_dnu) == pytest.approx(bump.mass, rel=1e-5)
    assert np.all(np.diff(tb.x) > 0)


def dense_transform(d, x, w):
    """Singularity-subtracted Hilbert transform as one dense sum per row."""
    a, b = d.support
    f = density_values(d, x)
    hf = f * np.log((x - a) / (b - x)) - w * _smooth_callable(d, derivative=True)(x)
    for i in range(x.size):
        diff = x[i] - x
        quot = np.zeros_like(diff)
        np.divide(f - f[i], diff, out=quot, where=diff != 0.0)
        hf[i] += quot @ w
    return hf


@pytest.mark.parametrize("m", [1, 2, 7, 33, 100, 1024, 4096])
def test_smooth_transport_matches_dense_sum(m):
    laws = [
        random_generic_law(np.random.default_rng(11)).density,
        uniform_density(1.0),
        uniform_density(0.5, (0.2, 0.7)),
    ]
    for d in laws:
        td = density_transport(d, m)
        oracle = dense_transform(d, td.x, td.w_dx)
        assert np.max(np.abs(td.hf - oracle)) <= 1e-13 * np.max(np.abs(oracle))


@pytest.mark.parametrize(("size", "case"), [
    (1, "one target"),
    (3, "edge inside a panel"),
    (96, "all near"),
])
def test_group_size_does_not_change_the_sum(monkeypatch, size, case):
    # 192 nodes, 8 per graded panel; the innermost panel spans several octaves
    d = random_generic_law(np.random.default_rng(11)).density
    monkeypatch.setattr(densities, "_MIN_GROUP", size)
    td = density_transport(d, 100)
    starts = densities._octave_groups(td.x[:96])
    if case == "one target":
        assert 1 in np.diff(starts)
    elif case == "edge inside a panel":
        assert any(start % 8 for start in starts)
    else:
        assert starts == [0]
    oracle = dense_transform(d, td.x, td.w_dx)
    assert np.max(np.abs(td.hf - oracle)) <= 1e-13 * np.max(np.abs(oracle))


def test_far_field_series_at_grid_16384():
    # 16416 nodes: the series run 54 terms; check one row per octave of each half
    d = random_generic_law(np.random.default_rng(11)).density
    td = density_transport(d, 16384)
    x, w = td.x, td.w_dx
    octave = np.frexp(np.minimum(x, 1.0 - x))[1] + 100 * (x > 0.5)
    rows = np.flatnonzero(np.diff(octave, prepend=octave[0] - 1))
    f = density_values(d, x)
    fp = _smooth_callable(d, derivative=True)(x)
    oracle = np.empty(rows.size)
    for k, i in enumerate(rows):
        diff = x[i] - x
        quot = np.zeros_like(diff)
        np.divide(f - f[i], diff, out=quot, where=diff != 0.0)
        oracle[k] = f[i] * np.log(x[i] / (1.0 - x[i])) - w[i] * fp[i] + quot @ w
    assert x.size == 16416 and rows.size >= 64
    assert np.max(np.abs(td.hf[rows] - oracle)) <= 1e-13 * np.max(np.abs(oracle))


@pytest.mark.parametrize("d", [uniform_density(1.0), uniform_density(0.5, (0.2, 0.7))])
def test_uniform_transport_is_the_constant_term_exactly(d):
    a, b = d.support
    td = density_transport(d, 1024)
    x, w = td.x, td.w_dx
    f = density_values(d, x)
    np.testing.assert_array_equal(td.hf, f * np.log((x - a) / (b - x)) - w * 0.0)


def test_smooth_transport_memory_is_blocked():
    d = random_generic_law(np.random.default_rng(11)).density
    tracemalloc.start()
    try:
        td = density_transport(d, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert td.x.size > 4096
    assert peak < 16 * 2**20


@pytest.mark.parametrize("exponents", [(0.5, 2.5), (3.0, -0.3)])
def test_profile_derivative_matches_central_differences(exponents):
    nodes = np.linspace(0.1, 0.9, 9)
    d = table_density(nodes, 1.0 + 0.5 * np.sin(3.0 * nodes), exponents)
    f = _smooth_callable(d)
    fp = _smooth_callable(d, derivative=True)
    # both power tails, and table points halfway between breakpoints
    x = np.array([0.01, 0.05, 0.08, 0.15, 0.45, 0.75, 0.92, 0.95, 0.99])
    h = 1e-6
    central = (f(x + h) - f(x - h)) / (2.0 * h)
    np.testing.assert_allclose(fp(x), central, rtol=1e-7, atol=0.0)


def _one_of_each_kind():
    m = 100
    theta = (2 * np.arange(m) + 1) * np.pi / (2 * m)
    x = 0.5 * (1.0 + np.cos(theta))[::-1]
    return {
        "arcsine": arcsine_density(0.8, (0.1, 0.9)),
        "free_pair": free_pair_density(0.3, 0.6),
        "cheb": cheb_density((8.0 / np.pi) * x * (1.0 - x)),
        "uniform": uniform_density(0.5, (0.2, 0.7)),
        "table": random_generic_law(np.random.default_rng(11)).density,
    }


@pytest.mark.parametrize("m", [100, 1024])
@pytest.mark.parametrize("kind", ["arcsine", "free_pair", "cheb", "uniform", "table"])
def test_every_functional_reads_the_one_rule(kind, m):
    d = _one_of_each_kind()[kind]
    td = density_transport(d, m)
    x, w_dx, w_dnu = densities._rule(d, m)
    np.testing.assert_array_equal(x, td.x)
    np.testing.assert_array_equal(w_dx, td.w_dx)
    np.testing.assert_array_equal(w_dnu, td.w_dnu)

    def fn(t):
        return np.exp(t) * np.cos(3.0 * t)

    assert density_integrate(d, fn, m) == float(np.dot(td.w_dnu, fn(td.x)))


def test_cdf_quantile_round_trip():
    d = smooth_bump(0.6)
    levels = np.linspace(0.05, 0.55, 11)
    q = density_quantiles(d, levels)
    assert np.all(np.diff(q) > 0)
    assert np.allclose(density_cdf(d, q), levels, atol=1e-6)
    with pytest.raises(ValidationError):
        density_quantiles(d, np.array([0.7]))


def test_w1_exact_two_point_case():
    xs = np.array([0.25, 0.75])
    assert w1_empirical_to_density(xs, uniform_density(1.0)) == pytest.approx(
        0.125, abs=1e-4
    )


def test_cheb_density_mass_rule():
    m = 128
    g = np.full(m, 2.0 / np.pi)
    d = cheb_density(g)
    assert d.mass == pytest.approx(2.0, rel=1e-12)


def test_semicircle_as_cheb_density():
    m = 256
    theta = (2 * np.arange(m) + 1) * np.pi / (2 * m)
    x = 0.5 * (1.0 + np.cos(theta))[::-1]
    g = (8.0 / np.pi) * x * (1.0 - x)
    d = cheb_density(g)
    assert d.mass == pytest.approx(1.0, rel=1e-12)
    mean = density_integrate(d, lambda t: t, M)
    assert mean == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.02, max_value=0.45),
    st.floats(min_value=0.55, max_value=0.98),
)
def test_bump_mass_and_mean_inside_support(mass, lo, hi):
    d = smooth_bump(mass, lo, hi)
    assert d.mass == pytest.approx(mass, rel=1e-9)
    mean = density_integrate(d, lambda x: x, 1024) / mass
    assert lo < mean < hi
