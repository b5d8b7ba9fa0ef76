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
from .entropy import _constant_from_traces, chi_proj
from .errors import NumericalError, ValidationError
from .grids import DEFAULT_GRID
from .laws import ProjectionPairLaw

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
    """Particle quantiles of the flowing density plus the fixed atoms.

    particles are strictly increasing points in (0,1), each carrying
    mass / n; atoms holds (a11, a10, a01, a00), constant in time.
    chi_offset converts the biased discrete energy estimate into an
    absolute entropy: chi_estimate = chi_hat + chi_offset, pinned so the
    estimate at t = 0 equals the quadrature entropy of the initial law.
    """

    particles: np.ndarray
    atoms: tuple[float, float, float, float]
    mass: float
    t: float
    history: tuple[FlowRecord, ...]
    chi_offset: float
    alpha: float
    beta: float

    @property
    def coeff_at_0(self) -> float:
        return self.atoms[1] + self.atoms[2]

    @property
    def coeff_at_1(self) -> float:
        return self.atoms[3] + self.atoms[0]


def _pairwise_sum(x: np.ndarray, mass: float) -> np.ndarray:
    """Leave-one-out interaction (mass/n) sum_{j != i} 1/(x_i - x_j)."""
    diff = np.subtract.outer(x, x)
    np.fill_diagonal(diff, np.inf)
    np.reciprocal(diff, out=diff)
    return (mass / x.size) * np.sum(diff, axis=1)


def _velocity(state: FlowState, x: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
    """Transport velocity at positions x; h is the pairwise sum at x if known."""
    if h is None:
        h = _pairwise_sum(x, state.mass)
    return x * (1.0 - x) * h + state.coeff_at_0 * (1.0 - x) - state.coeff_at_1 * x


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
    w = state.mass / x.size
    # sum of log|x_i - x_j| over i != j: log 1 = 0 on the diagonal, and
    # the full symmetric matrix counts each pair twice
    gaps = np.subtract.outer(x, x)
    np.abs(gaps, out=gaps)
    np.fill_diagonal(gaps, 1.0)
    np.log(gaps, out=gaps)
    sigma = w * w * float(np.sum(gaps))
    log0 = w * float(np.sum(np.log(x)))
    log1 = w * float(np.sum(np.log1p(-x)))
    _, c_const = _constant_from_traces(state.alpha, state.beta)
    return (
        0.25 * sigma
        + 0.5 * state.coeff_at_0 * log0
        + 0.5 * state.coeff_at_1 * log1
        - c_const
    )


def _phi_hat(state: FlowState, x: np.ndarray, h: np.ndarray | None = None) -> float:
    """Particle estimate of the Fisher integral phi^2 x(1-x) dnu; h as in _velocity."""
    if h is None:
        h = _pairwise_sum(x, state.mass)
    phi = h + state.coeff_at_0 / x - state.coeff_at_1 / (1.0 - x)
    return (state.mass / x.size) * float(np.sum(phi**2 * x * (1.0 - x)))


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
    mass = law.density.mass
    levels = mass * (np.arange(n) + 0.5) / n
    particles = density_quantiles(law.density, levels)
    atoms = (law.a11, law.a10, law.a01, law.a00)
    state = FlowState(
        particles=np.asarray(particles, dtype=float),
        atoms=atoms,
        mass=mass,
        t=0.0,
        history=(),
        chi_offset=0.0,
        alpha=law.alpha,
        beta=law.beta,
    )
    x = state.particles
    chi0 = chi_proj(law, grid).chi
    offset = chi0 - _chi_hat(state, x)
    record = FlowRecord(0.0, _chi_hat(state, x), _phi_hat(state, x), 0.0)
    return replace(state, chi_offset=offset, history=(record,))


def _step_ok(x: np.ndarray, proposal: np.ndarray) -> bool:
    if np.any(proposal <= 0.0) or np.any(proposal >= 1.0):
        return False
    if np.any(np.diff(proposal) <= 0.0):
        return False
    if x.size > 1:
        gaps = np.diff(x)
        limit = 0.5 * np.minimum(np.append(gaps, gaps[-1]), np.append(gaps[0], gaps))
        if np.any(np.abs(proposal - x) > limit):
            return False
    return True


def flow_evolve(
    state: FlowState,
    t_final: float,
    dt0: float = 1e-3,
    dt_min: float = 1e-12,
    dt_max: float = 0.02,
) -> FlowState:
    """Advance the particle flow to a target time.

    Classical fourth-order steps with a conservative acceptance rule:
    a step is rejected and halved whenever any particle would leave
    (0,1), cross a neighbor, or move more than half the gap to one.
    Accepted steps grow the step size again and append a history record
    with the energy and Fisher estimates and the running integral of
    half the Fisher estimate (trapezoid in time).

    The step cap matters once the system crowds against an endpoint:
    the local relaxation rate of the outermost particle grows like n,
    so explicit steps beyond a few multiples of 1/n put that particle
    on the wrong side of the stability boundary and its oscillation can
    make the energy wobble at the 1e-5 scale before a rejection
    catches it.  The default cap keeps systems with n up to a few
    hundred unconditionally stable; finer systems self-cap through the
    rejection rule.
    """
    if t_final < state.t:
        raise ValidationError("cannot flow backward in time")
    x = state.particles.copy()
    t = state.t
    dt = min(dt0, dt_max)
    history = list(state.history)
    # the pairwise sum at the accepted positions serves both the Fisher
    # estimate of the step that reached them and the next step's k1
    h = _pairwise_sum(x, state.mass)
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
            if dt < dt_min:
                failed = replace(
                    state, particles=x, t=t, history=tuple(history)
                )
                err = NumericalError(
                    f"particle step collapsed below dt_min at t={t:.6g}"
                )
                err.state = failed
                raise err
            continue
        x = proposal
        t += dt
        dt = min(dt * 1.2, dt_max)
        h = _pairwise_sum(x, state.mass)
        k1 = _velocity(state, x, h)
        chi_hat = _chi_hat(state, x)
        phi_hat = _phi_hat(state, x, h)
        half = last.half_integral + 0.25 * (phi_hat + last.phi_hat) * (t - last.t)
        last = FlowRecord(t, chi_hat, phi_hat, half)
        history.append(last)
    return replace(state, particles=x, t=t, history=tuple(history))


@dataclass(frozen=True)
class FlowDiagnostics:
    """Time series extracted from a flow history.

    chi is the anchored entropy estimate (chi_hat + chi_offset);
    dchi_dt holds centered three-point derivatives on the nonuniform
    time grid, with the endpoints left as one-sided differences.
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
    d = np.empty_like(chi)
    if t.size == 1:
        d[:] = 0.0
    else:
        d[0] = (chi[1] - chi[0]) / (t[1] - t[0])
        d[-1] = (chi[-1] - chi[-2]) / (t[-1] - t[-2])
        if t.size > 2:
            h1 = t[1:-1] - t[:-2]
            h2 = t[2:] - t[1:-1]
            d[1:-1] = (
                chi[2:] * h1 / (h2 * (h1 + h2))
                - chi[:-2] * h2 / (h1 * (h1 + h2))
                + chi[1:-1] * (h2 - h1) / (h1 * h2)
            )
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
    by the time horizon, so the tail fit cannot be trusted.
    """

    value: float
    integrated: float
    tail: float
    minus_chi: float
    rel_gap: float
    decay_rate: float
    lower_bound_only: bool
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
    integrated = state.history[-1].half_integral
    tail, rate, trustworthy = _tail_integral(t, phi)
    minus_chi = -chi_proj(law, grid).chi
    value = integrated + tail
    scale = max(abs(minus_chi), 1e-12)
    return IstarReport(
        value,
        integrated,
        tail,
        minus_chi,
        abs(value - minus_chi) / scale,
        rate,
        not trustworthy,
        state,
    )


def _tail_integral(t: np.ndarray, phi: np.ndarray) -> tuple[float, float, bool]:
    """Integrate the fitted exponential tail of the Fisher estimate.

    Fits log phi linearly in t over the final decade of decay; a
    non-decaying fit or a terminal value still above 1% of the peak
    marks the result as a lower bound.
    """
    terminal = phi[-1]
    peak = float(np.max(phi))
    if terminal <= 0.0 or peak <= 0.0:
        return 0.0, math.inf, True
    cutoff = terminal * 10.0
    idx = np.nonzero(phi <= cutoff)[0]
    start = idx[0] if idx.size else max(0, phi.size - 2)
    ts, ps = t[start:], phi[start:]
    good = ps > 0.0
    if np.count_nonzero(good) < 2:
        return 0.0, math.inf, True
    slope, _ = np.polyfit(ts[good], np.log(ps[good]), 1)
    if slope >= -1e-12:
        return 0.0, 0.0, False
    rate = -slope
    tail = 0.5 * terminal / rate
    trustworthy = terminal <= 0.01 * peak
    return tail, rate, trustworthy
