"""Interacting-particle integration of the liberation transport flow.

The continuous part of a two-projection law is carried by n particles
at its quantiles, each holding mass 2 rho / n, while the four atoms stay
fixed.  Particles move with velocity

    v_i = x_i (1 - x_i) H_i + A (1 - x_i) - B x_i,

where H_i is the leave-one-out pairwise sum standing in for the Hilbert
transform of the density, A is the mass of the atoms carrying the 1/x
singularity, and B the mass at the other end.  Along this flow the
discrete log-energy functional increases with derivative exactly half
the discrete Fisher information, which is the identity the diagnostics
track; integrating that Fisher information to infinite time reproduces
the entropy deficit of the starting law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .densities import density_quantiles
from .entropy import chi_proj, constant_C
from .errors import NumericalError, ValidationError
from .grids import DEFAULT_GRID
from .laws import ProjectionPairLaw
from .loggas import pair_energy, pair_force

__all__ = [
    "FlowRecord",
    "FlowState",
    "FlowDiagnostics",
    "IstarReport",
    "init_flow",
    "particle_velocity",
    "flow_evolve",
    "flow_diagnostics",
    "istar",
]

# The Fisher estimate of an equilibrated cloud flattens at a rounding
# floor near n * 1e-16 of its peak (3.3e-14 at n = 256); the tail fit
# stays above this fraction of the peak.
_FISHER_FLOOR = 1e-10


@dataclass(frozen=True)
class FlowRecord:
    """One accepted step: time, raw energy estimate, Fisher estimate,
    and the running integral of half the Fisher estimate."""

    t: float
    chi_hat: float
    phi_hat: float
    half_integral: float


@dataclass(frozen=True)
class FlowState:
    """Particle quantiles of the flowing density plus the starting law.

    particles are strictly increasing points in (0,1), each carrying
    law.mass / n; law is the law the flow started from, and its traces,
    atoms, rho, C and edge coefficients stay constant in time.
    chi_offset converts the biased discrete energy estimate into an
    absolute entropy: chi_estimate = chi_hat + chi_offset, pinned so the
    estimate at t = 0 equals the quadrature entropy of the initial law.
    rejected_steps counts the steps flow_evolve has halved so far and
    min_gap is the smallest particle gap it has seen (inf before any
    evolution, or with one particle).
    """

    particles: np.ndarray
    law: ProjectionPairLaw
    t: float
    history: tuple[FlowRecord, ...]
    chi_offset: float
    rejected_steps: int = 0
    min_gap: float = math.inf


_DT0, _DT_MIN, _DT_MAX = 1e-3, 1e-12, 0.02  # first step, collapse floor, cap


def _velocity(state: FlowState, x: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
    """Transport velocity at positions x; h is (mass/n) pair_force(x) if known."""
    law = state.law
    if h is None:
        h = (law.mass / x.size) * pair_force(x)
    return x * (1.0 - x) * h + law.coeff_at_0 * (1.0 - x) - law.coeff_at_1 * x


def particle_velocity(state: FlowState) -> np.ndarray:
    """Transport velocity of each particle at the current positions."""
    return _velocity(state, state.particles)


def _chi_hat(state: FlowState, x: np.ndarray) -> float:
    """Plug-in entropy of the particle cloud, biased by discretization.

    Uses the leave-one-out energy sum, so it underestimates the true
    log energy by an O(1/n) amount that is constant enough along the
    flow to cancel in differences; chi_offset repairs the absolute
    level.
    """
    law = state.law
    w = law.mass / x.size
    sigma = w * w * 2.0 * pair_energy(x)
    log0 = w * float(np.sum(np.log(x)))
    log1 = w * float(np.sum(np.log1p(-x)))
    return (
        0.25 * sigma
        + 0.5 * law.coeff_at_0 * log0
        + 0.5 * law.coeff_at_1 * log1
        - constant_C(law)
    )


def _phi_hat(state: FlowState, x: np.ndarray, h: np.ndarray | None = None) -> float:
    """Particle estimate of the Fisher integral phi^2 x(1-x) dnu; h as in _velocity."""
    law = state.law
    if h is None:
        h = (law.mass / x.size) * pair_force(x)
    phi = h + law.coeff_at_0 / x - law.coeff_at_1 / (1.0 - x)
    return (law.mass / x.size) * float(np.sum(phi**2 * x * (1.0 - x)))


def init_flow(
    law: ProjectionPairLaw, n: int, grid: int = DEFAULT_GRID
) -> FlowState:
    """Particle representation of a law, ready to flow.

    Places n particles at the mass/(2n)-offset quantiles of the
    continuous part and pins the entropy estimate to the quadrature
    value of chi_proj at time zero.
    """
    if n < 1:
        raise ValidationError("need at least one particle")
    if law.density.mass == 0.0 or law.rho <= 0.0:
        raise ValidationError("the law has no continuous part to flow")
    if not law.generic:
        raise ValidationError("the atom pattern is not in generic position")
    levels = law.mass * (np.arange(n) + 0.5) / n
    particles = np.asarray(density_quantiles(law.density, levels), dtype=float)
    state = FlowState(particles=particles, law=law, t=0.0, history=(), chi_offset=0.0)
    chi_hat = _chi_hat(state, particles)
    record = FlowRecord(0.0, chi_hat, _phi_hat(state, particles), 0.0)
    return replace(state, chi_offset=chi_proj(law, grid).chi - chi_hat, history=(record,))


def _step_ok(x: np.ndarray, proposal: np.ndarray) -> bool:
    """Every check is a positive condition, so a NaN anywhere fails it."""
    if not (np.all(proposal > 0.0) and np.all(proposal < 1.0)):
        return False
    if not np.all(np.diff(proposal) > 0.0):
        return False
    if x.size > 1:
        gaps = np.diff(x)
        limit = 0.5 * np.minimum(np.append(gaps, gaps[-1]), np.append(gaps[0], gaps))
        return bool(np.all(np.abs(proposal - x) <= limit))
    return True


def _min_gap(x: np.ndarray) -> float:
    return float(np.diff(x).min()) if x.size > 1 else math.inf


def flow_evolve(state: FlowState, t_final: float) -> FlowState:
    """Advance the particle flow to a target time.

    Classical fourth-order steps from dt = 1e-3 with a conservative
    acceptance rule: a step is rejected and halved whenever any particle
    would leave (0,1), cross a neighbor, or move more than half the gap
    to one, and a step below 1e-12 raises NumericalError carrying the
    partial state.  Accepted steps grow the step size by 1.2, up to the
    cap 0.02, and append a history record with the energy and Fisher
    estimates and the running integral of half the Fisher estimate
    (trapezoid in time).  The returned state adds the rejected steps to
    rejected_steps and lowers min_gap to the smallest gap between
    neighbors at the start and after every accepted step.  A target
    time that is not finite, or before the state's, raises
    ValidationError.

    The step cap matters once the system crowds against an endpoint:
    the local relaxation rate of the outermost particle grows like n,
    so explicit steps beyond a few multiples of 1/n put that particle
    on the wrong side of the stability boundary and its oscillation can
    make the energy wobble at the 1e-5 scale before a rejection
    catches it.  The cap does not remove this: on the pinned atom law
    of the benchmark's flow workload (random_generic_law at generator
    seed 7), n = 256 to t = 4, the Fisher estimate rises on 47 accepted
    steps and the energy estimate drops on 3, although its exact rate
    of change is half the Fisher estimate, which is nonnegative.
    """
    if not math.isfinite(t_final):
        raise ValidationError(f"the flow needs a finite target time, got {t_final}")
    if t_final < state.t:
        raise ValidationError("cannot flow backward in time")
    x = state.particles.copy()
    t = state.t
    dt = _DT0
    rejected = state.rejected_steps
    gap = min(state.min_gap, _min_gap(x))
    history = list(state.history)
    # the pairwise sum at the accepted positions serves both the Fisher
    # estimate of the step that reached them and the next step's k1
    h = (state.law.mass / x.size) * pair_force(x)
    last = history[-1] if history else FlowRecord(t, _chi_hat(state, x), _phi_hat(state, x, h), 0.0)
    if not history:
        history.append(last)
    k1 = _velocity(state, x, h)
    while t < t_final - 1e-15:
        dt = min(dt, t_final - t)
        k2 = _velocity(state, x + 0.5 * dt * k1)
        k3 = _velocity(state, x + 0.5 * dt * k2)
        k4 = _velocity(state, x + dt * k3)
        proposal = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not _step_ok(x, proposal):
            dt *= 0.5
            rejected += 1
            if dt < _DT_MIN:
                err = NumericalError(f"particle step collapsed below dt_min at t={t:.6g}")
                err.state = replace(
                    state, particles=x, t=t, history=tuple(history),
                    rejected_steps=rejected, min_gap=gap,
                )
                raise err
            continue
        x = proposal
        gap = min(gap, _min_gap(x))
        t += dt
        dt = min(dt * 1.2, _DT_MAX)
        h = (state.law.mass / x.size) * pair_force(x)
        k1 = _velocity(state, x, h)
        chi_hat = _chi_hat(state, x)
        phi_hat = _phi_hat(state, x, h)
        half = last.half_integral + 0.25 * (phi_hat + last.phi_hat) * (t - last.t)
        last = FlowRecord(t, chi_hat, phi_hat, half)
        history.append(last)
    return replace(
        state, particles=x, t=t, history=tuple(history), rejected_steps=rejected, min_gap=gap
    )


@dataclass(frozen=True)
class FlowDiagnostics:
    """Time series extracted from a flow history.

    chi is the anchored entropy estimate (chi_hat + chi_offset);
    dchi_dt is np.gradient of chi in t: centered three-point derivatives
    on the nonuniform time grid, with one-sided differences at the ends
    (0 for a history of one record).
    """

    t: np.ndarray
    chi: np.ndarray
    phi_star: np.ndarray
    half_integral: np.ndarray
    dchi_dt: np.ndarray
    ratio_error: np.ndarray


def flow_diagnostics(state: FlowState) -> FlowDiagnostics:
    """Derive the entropy-production comparison from the history.

    ratio_error is |dchi/dt - phi*/2| / (phi*/2) wherever the Fisher
    estimate is positive, and 0 at points where it vanishes.
    """
    if not state.history:
        raise ValidationError("the flow has no recorded steps")
    t = np.array([r.t for r in state.history])
    chi = np.array([r.chi_hat for r in state.history]) + state.chi_offset
    phi = np.array([r.phi_hat for r in state.history])
    half = np.array([r.half_integral for r in state.history])
    # np.gradient needs two points; a lone record has no rate of change
    d = np.gradient(chi, t) if t.size > 1 else np.zeros_like(chi)
    target = 0.5 * phi
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(target > 0.0, np.abs(d - target) / target, 0.0)
    return FlowDiagnostics(t, chi, phi, half, d, ratio)


@dataclass(frozen=True)
class IstarReport:
    """Half the time integral of the Fisher estimate, with its anchor.

    value = integrated + tail; minus_chi is the quadrature entropy
    deficit of the starting law, which the integral should reproduce;
    lower_bound_only flags runs whose Fisher estimate had not decayed
    by the time horizon, so the tail fit cannot be trusted; floored
    flags a tail fit whose window stopped at _FISHER_FLOOR of the peak.

    The run itself: steps accepted and rejected_steps halved steps,
    dt_min and dt_max over the accepted steps except the last, which is
    clipped to the horizon (read from the recorded times, so to their
    rounding; 0 when no step was taken), and min_gap, the smallest gap
    between neighboring particles along the run.  energy_gap is
    integrated minus the rise of the raw energy estimate,
    chi_hat(T) - chi_hat(0): the two agree exactly for the continuous
    flow, so the gap measures the time-stepping error of the run.
    """

    value: float
    integrated: float
    tail: float
    minus_chi: float
    rel_gap: float
    decay_rate: float
    lower_bound_only: bool
    floored: bool
    steps: int
    rejected_steps: int
    dt_min: float
    dt_max: float
    min_gap: float
    energy_gap: float
    state: FlowState


def istar(
    law: ProjectionPairLaw,
    n: int = 512,
    t_max: float = 20.0,
    grid: int = DEFAULT_GRID,
) -> IstarReport:
    """Entropy deficit of a law via the flow's Fisher production.

    Runs the particle flow to t_max, integrates half the Fisher
    estimate, and adds the analytic tail of an exponential fitted to
    the last decade of the decay.  The report carries -chi_proj(law)
    for comparison; the two agree up to particle discretization.
    """
    state = init_flow(law, n, grid)
    state = flow_evolve(state, t_max)
    t = np.array([r.t for r in state.history])
    phi = np.array([r.phi_hat for r in state.history])
    first, last = state.history[0], state.history[-1]
    integrated = last.half_integral
    tail, rate, trustworthy, floored = _tail_integral(t, phi)
    minus_chi = -chi_proj(law, grid).chi
    value = integrated + tail
    scale = max(abs(minus_chi), 1e-12)
    dt = np.diff(t)
    unclipped = dt[:-1] if dt.size > 1 else dt
    return IstarReport(
        value,
        integrated,
        tail,
        minus_chi,
        abs(value - minus_chi) / scale,
        rate,
        not trustworthy,
        floored,
        dt.size,
        state.rejected_steps,
        float(unclipped.min()) if dt.size else 0.0,
        float(unclipped.max()) if dt.size else 0.0,
        state.min_gap,
        integrated - (last.chi_hat - first.chi_hat),
        state,
    )


def _tail_integral(t: np.ndarray, phi: np.ndarray) -> tuple[float, float, bool, bool]:
    """Integrate the fitted exponential tail of the Fisher estimate.

    Fits log phi linearly in t over the final decade of decay above
    _FISHER_FLOOR times the peak, so that a run which reached its
    rounding floor is not fitted on the flat floor; a non-decaying fit
    or a terminal value still above 1% of the peak marks the result as a
    lower bound, also when fewer than two points are left to fit (a run
    with no step has one, its peak).  Returns (tail, rate, trustworthy,
    floored), floored telling whether the window stopped at that floor.
    """
    terminal = phi[-1]
    peak = float(np.max(phi))
    if terminal <= 0.0 or peak <= 0.0:
        return 0.0, math.inf, True, False
    floor = _FISHER_FLOOR * peak
    idx = np.nonzero(phi <= 10.0 * max(terminal, floor))[0]
    start = idx[0] if idx.size else max(0, phi.size - 2)
    below = np.nonzero(phi[start:] < floor)[0]
    floored = bool(below.size)
    stop = start + below[0] if floored else phi.size
    ts, ps = t[start:stop], phi[start:stop]
    good = ps > 0.0
    decayed = terminal <= 0.01 * peak
    if np.count_nonzero(good) < 2:
        return 0.0, math.inf, decayed, floored
    slope, _ = np.polyfit(ts[good], np.log(ps[good]), 1)
    if slope >= -1e-12:
        return 0.0, 0.0, False, floored
    rate = -slope
    return 0.5 * terminal / rate, rate, decayed, floored
