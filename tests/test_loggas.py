"""Log-gas pair kernel: dense references, derivatives, recorded runs."""

import json

import numpy as np
import pytest

from liberlab.densities import uniform_density
from liberlab.ensemble import EnsembleSpec, mcmc_tilted_spectrum
from liberlab.laws import ProjectionPairLaw
from liberlab.liberation import istar
from liberlab.loggas import (
    differences,
    pair_energy,
    pair_force,
    pair_force_curvature,
    site_energy_change,
)
from liberlab.potentials import PsiSpec

from conftest import FIXTURES

UNIFORM = ProjectionPairLaw(0.5, 0.5, 0.0, 0.0, 0.0, 0.0, uniform_density(1.0))
ORACLE = json.loads((FIXTURES / "loggas_oracle.json").read_text())


def _hard_points(rng, n):
    """Unsorted, both signs, magnitudes 1e-300 to 1, each with its neighbours one ulp away."""
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 0.0, n)
    x = np.concatenate((x, [1e-300, -1.0]))
    x = np.concatenate((x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)))
    return rng.permutation(x)


@pytest.mark.parametrize("rows, cols", [(126, 126), (126, 31), (1, 77), (0, 12), (12, 0), (0, 0)])
def test_differences_is_the_outer_subtraction_bit_for_bit(rng, rows, cols):
    x = _hard_points(rng, 40)
    assert x.size == 126
    a, b = x[:rows], rng.permutation(x)[:cols]
    expected = np.subtract.outer(a, b)
    got = differences(a, b)
    assert got.shape == expected.shape
    # coincident points may differ in the sign of their zero, nowhere else
    assert np.array_equal(got == 0.0, expected == 0.0)
    nonzero = expected != 0.0
    assert np.array_equal(got[nonzero], expected[nonzero])
    # 1e-300 and its neighbours have subnormal differences, exact too
    if rows == cols == x.size:
        assert np.any(np.abs(expected[nonzero]) < np.finfo(float).tiny)
    out = np.empty((rows, cols))
    assert differences(a, b, out=out) is out
    assert np.array_equal(out[nonzero], expected[nonzero])


@pytest.mark.parametrize("n", [1, 2, 3, 96])
def test_pair_energy_matches_the_upper_triangle_sum(rng, n):
    x = np.sort(rng.uniform(0.01, 0.99, n))
    iu = np.triu_indices(n, k=1)
    expected = float(np.sum(np.log(np.abs(x[:, None] - x[None, :])[iu])))
    assert pair_energy(x) == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_pair_energy_is_minus_infinity_on_coincident_points():
    assert pair_energy(np.array([0.2, 0.4, 0.4])) == -np.inf


def test_pair_force_is_the_dense_reciprocal_row_sum(rng):
    x = np.sort(rng.uniform(0.01, 0.99, 96))
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, np.inf)
    assert np.array_equal(pair_force(x), np.sum(1.0 / diff, axis=1))
    force, curvature = pair_force_curvature(x)
    assert np.array_equal(force, pair_force(x))
    np.testing.assert_allclose(curvature, np.sum(diff**-2.0, axis=1), rtol=1e-14, atol=0.0)


def test_pair_force_is_the_gradient_of_pair_energy(rng):
    x = np.sort(rng.uniform(0.01, 0.99, 24))
    s = 1e-6
    numeric = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = s
        numeric[i] = (pair_energy(x + e) - pair_energy(x - e)) / (2.0 * s)
    assert np.max(np.abs(pair_force(x) - numeric)) <= 1e-7 * np.max(np.abs(numeric))


def test_site_energy_difference_is_the_pair_energy_change(rng):
    x = np.sort(rng.uniform(0.01, 0.99, 16))
    for i, y in [(0, 0.005), (7, 0.5), (15, 0.995)]:
        moved = x.copy()
        moved[i] = y
        expected = pair_energy(moved) - pair_energy(x)
        assert site_energy_change(x, i, y) == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert site_energy_change(x.tolist(), i, y) == site_energy_change(x, i, y)


def test_site_energy_change_is_minus_infinity_on_another_point():
    x = [0.2, 0.4, 0.7]
    assert site_energy_change(x, 0, 0.7) == -np.inf


def test_flow_matches_the_recorded_run():
    rec = ORACLE["istar"]
    rep = istar(UNIFORM, rec["n"], rec["t_max"])
    assert len(rep.state.history) == rec["records"]
    assert rep.value == pytest.approx(rec["value"], rel=1e-12, abs=0.0)
    assert rep.integrated == pytest.approx(rec["integrated"], rel=1e-12, abs=0.0)
    np.testing.assert_allclose(rep.state.particles, rec["particles"], rtol=1e-12, atol=0.0)


def test_flow_agrees_with_the_rk4_run_within_its_energy_gap():
    """The RK4 flow this oracle recorded before gave 0.029505427292127535,
    with an energy gap, its own time-stepping error, of 1.0e-5."""
    rep = istar(UNIFORM, 64, 2.0)
    assert abs(rep.value - 0.029505427292127535) <= 1.0e-5


def _check_recorded_chain(rec):
    spec = EnsembleSpec(rec["N"], rec["k"], rec["l"], PsiSpec(tuple(rec["psi"])))
    chain = mcmc_tilted_spectrum(spec, rec["seed"], count=rec["count"], burn_in=rec["burn_in"])
    np.testing.assert_allclose(chain.samples, rec["samples"], rtol=1e-12, atol=0.0)
    assert chain.acceptance == pytest.approx(rec["acceptance"], rel=1e-12, abs=0.0)
    assert chain.autocorr_time == pytest.approx(rec["tau"], rel=1e-12, abs=0.0)


def test_metropolis_chain_matches_the_recorded_run():
    _check_recorded_chain(ORACLE["mcmc"])


def test_metropolis_chain_matches_the_recorded_run_at_benchmark_size():
    _check_recorded_chain(ORACLE["mcmc_bench"])
