"""Particle flow: exact small-system dynamics, invariants, production."""

import math

import numpy as np
import pytest

from liberlab.densities import uniform_density, w1_empirical_to_density
from liberlab.entropy import chi_proj
from liberlab.errors import NumericalError, ValidationError
from liberlab.laws import ProjectionPairLaw, free_pair_law
from liberlab.liberation import (
    FlowState,
    _chi_hat,
    _phi_hat,
    _step_ok,
    _tail_integral,
    flow_diagnostics,
    flow_evolve,
    init_flow,
    istar,
    particle_velocity,
)

from conftest import random_generic_law

UNIFORM = ProjectionPairLaw(0.5, 0.5, 0.0, 0.0, 0.0, 0.0, uniform_density(1.0))
CHI_UNIFORM = -3.0 / 8.0 + np.log(2.0) / 2.0


def test_init_places_particles_at_offset_quantiles():
    state = init_flow(UNIFORM, 4)
    assert np.allclose(state.particles, [0.125, 0.375, 0.625, 0.875], atol=1e-12)
    assert state.law is UNIFORM
    assert len(state.history) == 1
    assert state.history[0].half_integral == 0.0
    diag = flow_diagnostics(state)
    assert diag.chi[0] == pytest.approx(chi_proj(UNIFORM, 2048).chi, abs=1e-12)


def test_init_validation():
    with pytest.raises(ValidationError, match="at least one"):
        init_flow(UNIFORM, 0)
    atomic = ProjectionPairLaw(0.5, 0.5, 0.5, 0.0, 0.0, 0.5, uniform_density(0.0))
    with pytest.raises(ValidationError):
        init_flow(atomic, 16)
    lumpy = ProjectionPairLaw(0.5, 0.5, 0.25, 0.0, 0.0, 0.25, uniform_density(0.5))
    with pytest.raises(ValidationError, match="generic"):
        init_flow(lumpy, 16)


def test_single_particle_follows_the_linear_drift():
    law = free_pair_law(0.3, 0.6)
    assert law.coeff_at_0 == pytest.approx(0.3, abs=1e-12)
    assert law.coeff_at_1 == pytest.approx(0.1, abs=1e-12)
    state = init_flow(law, 1)
    x0 = float(state.particles[0])
    out = flow_evolve(state, 2.0)
    expected = 0.75 + (x0 - 0.75) * np.exp(-0.4 * 2.0)
    assert float(out.particles[0]) == pytest.approx(expected, abs=1e-9)


def test_energy_production_identity_by_finite_differences():
    state = init_flow(UNIFORM, 24)
    x = state.particles
    v = particle_velocity(state)
    s = 1e-6
    plus = _chi_hat(state, x + s * v)
    minus = _chi_hat(state, x - s * v)
    derivative = (plus - minus) / (2.0 * s)
    assert derivative == pytest.approx(0.5 * _phi_hat(state, x), rel=1e-8)


def test_flow_kernels_match_the_pairwise_references(rng):
    state = init_flow(UNIFORM, 96)
    x = np.sort(rng.uniform(0.01, 0.99, 96))
    w = state.law.mass / x.size

    # atomless law at traces (1/2, 1/2): chi_hat = Sigma/4 - C with C = -log(2)/2
    iu = np.triu_indices(x.size, k=1)
    sigma = 2.0 * w * w * np.sum(np.log(np.abs(x[:, None] - x[None, :])[iu]))
    assert _chi_hat(state, x) == pytest.approx(0.25 * sigma + 0.5 * np.log(2.0), rel=0, abs=1e-14)


def test_free_laws_are_stationary():
    edge = init_flow(free_pair_law(0.5, 0.5), 256)
    assert np.max(np.abs(particle_velocity(edge))) <= 0.3 / 256

    interior = init_flow(free_pair_law(0.3, 0.6), 256)
    assert np.max(np.abs(particle_velocity(interior))) <= 0.1 * 256 ** (-1.0 / 3.0)


def test_flow_conserves_structure():
    state = init_flow(free_pair_law(0.4, 0.7), 48)
    out = flow_evolve(state, 1.0)
    assert out.law is state.law
    assert out.t == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(out.particles) > 0.0)
    assert out.particles[0] > 0.0 and out.particles[-1] < 1.0


def test_flow_rejects_backward_time():
    state = init_flow(UNIFORM, 8)
    with pytest.raises(ValidationError, match="backward"):
        flow_evolve(state, -0.5)


@pytest.mark.parametrize("t_final", [math.inf, math.nan])
def test_flow_rejects_a_non_finite_target_time(t_final):
    state = init_flow(UNIFORM, 8)
    with pytest.raises(ValidationError, match="finite"):
        flow_evolve(state, t_final)


def test_step_collapse_reports_the_partial_state():
    jammed = FlowState(
        particles=np.array([0.5, 0.5 + 1e-15]),
        law=UNIFORM,
        t=0.0,
        history=(),
        chi_offset=0.0,
    )
    with pytest.raises(NumericalError, match="dt_min") as info:
        flow_evolve(jammed, 1.0)
    assert isinstance(info.value.state, FlowState)
    assert info.value.state.t == 0.0
    # every halving from dt = 1e-3 down past 1e-12 is a rejected step
    assert info.value.state.rejected_steps == 30
    assert info.value.state.min_gap == pytest.approx(1e-15, rel=0.2)


def test_flow_bookkeeping_accumulates_across_calls():
    # by t = 4 the end particles of the n = 64 flow sit within rounding of
    # 0 and 1, and a step whose proposal rounds one onto an end is rejected
    start = init_flow(UNIFORM, 64)
    assert (start.rejected_steps, start.evals, start.min_gap) == (0, 0, np.inf)
    first = flow_evolve(start, 4.0)
    both = flow_evolve(first, 8.0)
    assert 0 < first.rejected_steps < both.rejected_steps
    # every accepted step evaluates the pair sum at least twice
    assert 1 + 2 * (len(first.history) - 1) <= first.evals < both.evals
    assert 0.0 < first.min_gap <= np.diff(start.particles).min()
    assert both.min_gap <= min(first.min_gap, np.diff(both.particles).min())


def test_step_check_rejects_nan():
    """A proposal must be finite, inside (0,1) and strictly increasing."""
    assert _step_ok(np.array([0.2, 0.4, 0.6]))
    bad = [[0.2, np.nan, 0.6], [0.0, 0.4, 0.6], [0.2, 0.4, 1.0], [0.2, 0.6, 0.4], [0.2, 0.4, 0.4]]
    for proposal in bad:
        assert not _step_ok(np.array(proposal)), proposal


def test_uniform_flow_production_and_relaxation():
    state = flow_evolve(init_flow(UNIFORM, 128), 4.0)
    diag = flow_diagnostics(state)

    assert np.all(np.diff(diag.chi) >= -1e-10)

    window = (diag.t >= 0.25) & (diag.phi_star >= 1e-4 * diag.phi_star[0])
    assert np.max(diag.ratio_error[window]) <= 5e-3

    closure = abs(diag.half_integral[-1] - (diag.chi[-1] - diag.chi[0]))
    assert closure <= 5e-4

    w1 = w1_empirical_to_density(state.particles, free_pair_law(0.5, 0.5).density)
    assert w1 <= 0.02


@pytest.mark.parametrize("law, n, t_max", [("uniform", 384, 1.5), ("atoms", 256, 4.0)])
def test_energy_gap_is_within_1e_4_of_istar(law, n, t_max):
    """The two flows of the benchmark: the uniform law, and the law
    random_generic_law draws from generator seed 7."""
    law = UNIFORM if law == "uniform" else random_generic_law(np.random.default_rng(7))
    rep = istar(law, n, t_max)
    assert abs(rep.energy_gap) <= 1e-4 * abs(rep.value)
    assert flow_diagnostics(rep.state).energy_gap == rep.energy_gap


def test_accepted_steps_do_not_grow_with_n():
    """The stiffness grows with n; the stage count absorbs it, not the steps."""
    runs = [flow_evolve(init_flow(UNIFORM, n), 20.0) for n in (128, 256)]
    steps = [len(run.history) - 1 for run in runs]
    assert max(steps) <= 2 * min(steps)
    assert all(run.rejected_steps < len(run.history) - 1 for run in runs)


def test_istar_recovers_the_uniform_deficit():
    rep = istar(UNIFORM, n=64, t_max=20.0)
    assert rep.minus_chi == pytest.approx(-CHI_UNIFORM, abs=1e-10)
    assert not rep.lower_bound_only
    assert rep.tail >= 0.0
    assert rep.rel_gap <= 0.25


def test_istar_decay_rate_is_fitted_above_the_rounding_floor():
    """The uniform law's Fisher estimate decays like exp(-4t).

    At n = 64 it sits on its rounding floor from t ~ 9 on; the rate is
    read from the decay before it, not from the floor.
    """
    rep = istar(UNIFORM, n=64, t_max=10.0)
    phi = np.array([r.phi_hat for r in rep.state.history])
    assert phi[-1] <= 1e-13 * np.max(phi)
    assert rep.floored
    assert 3.8 <= rep.decay_rate <= 4.2


def test_a_run_without_steps_is_a_lower_bound():
    """A lone record is its own peak, so nothing has decayed yet."""
    tail, rate, trustworthy, floored = _tail_integral(np.array([0.0]), np.array([2.0]))
    assert (tail, rate, trustworthy, floored) == (0.0, math.inf, False, False)
    rep = istar(UNIFORM, 16, 0.0)
    assert rep.steps == 0
    assert rep.lower_bound_only


def test_istar_of_a_free_law_is_negligible():
    rep = istar(free_pair_law(0.5, 0.5), n=128, t_max=6.0)
    assert abs(rep.minus_chi) <= 1e-10
    assert abs(rep.value) <= 1e-3
