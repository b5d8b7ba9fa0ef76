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

flow_evolve integrates the flow with stabilized explicit steps: RKC2
(Sommeijer, Shampine & Verwer, J. Comput. Appl. Math. 88, 1998), whose
stage count follows a Gershgorin bound on the stiffness, which grows
with n.  An integrating factor carries the linear drift A (1 - x) - B x
exactly, and a local error estimate against one absolute tolerance,
_TOL, sets the step.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .densities import density_quantiles
from .entropy import chi_proj, constant_C
from .errors import NumericalError, ValidationError
from .grids import DEFAULT_GRID
from .laws import ProjectionPairLaw
from .loggas import pair_energy, pair_force, pair_force_curvature

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
    rejected_steps counts the steps flow_evolve has rejected so far,
    evals the pair-sum evaluations it has made (each one n^2 pass), and
    min_gap is the smallest particle gap it has seen (inf before any
    evolution, or with one particle).
    """

    particles: np.ndarray
    law: ProjectionPairLaw
    t: float
    history: tuple[FlowRecord, ...]
    chi_offset: float
    rejected_steps: int = 0
    evals: int = 0
    min_gap: float = math.inf


# RKC2 damping (Sommeijer, Shampine & Verwer 1998): s stages are stable
# for dt * rho up to about 0.65 s^2, hence s = ceil(sqrt(1 + 1.54 dt rho)).
_DAMPING = 2.0 / 13.0
# Absolute tolerance of the local error control.  Positions live in (0,1),
# so a relative part has no scale to refer to, and rtol |x| would weigh
# particles near 0 and near 1 differently, breaking the Q -> I - Q
# symmetry.  The loosest value that keeps energy_gap within 1e-4 |value|
# with 10 % to spare on the uniform law at (384, 1.5) and the seed-7
# random_generic_law at (256, 4); 6e-8 misses the first.
_TOL = 4e-8
_DT0, _DT_MIN = 1e-3, 1e-12  # first step, collapse floor
# The recursion's rounding error grows like s^2 eps, which the reference
# code rkc.f keeps below a tenth of the tolerance: 4244 stages here (flows
# to n = 1024 use at most 73).  A step that would need more is rejected
# before it is taken, as when two particles nearly coincide.
_MAX_STAGES = round(math.sqrt(_TOL / (10.0 * np.finfo(float).eps)))


def particle_velocity(state: FlowState) -> np.ndarray:
    """Transport velocity of each particle at the current positions."""
    law, x = state.law, state.particles
    h = (law.mass / x.size) * pair_force(x)
    return x * (1.0 - x) * h + law.coeff_at_0 * (1.0 - x) - law.coeff_at_1 * x


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
    """Particle estimate of the Fisher integral phi^2 x(1-x) dnu; h is
    (mass/n) pair_force(x) if known."""
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


def _step_ok(proposal: np.ndarray) -> bool:
    """Inside (0,1) and strictly increasing; a NaN fails both tests."""
    inside = np.all(proposal > 0.0) and np.all(proposal < 1.0)
    return bool(inside and np.all(np.diff(proposal) > 0.0))


def _min_gap(x: np.ndarray) -> float:
    return float(np.diff(x).min()) if x.size > 1 else math.inf


def _pair_drift(law: ProjectionPairLaw, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The scaled pair sum h, the pair part x(1-x)h of the velocity, and rho.

    rho is the Gershgorin bound on the spectral radius of the velocity's
    Jacobian: max_i [2 x_i(1-x_i) w sum_j (x_i-x_j)^-2 + |(1-2x_i) h_i|]
    + c0 + c1, read off the same reciprocal matrix as the pair sum.
    """
    w = law.mass / x.size
    force, curvature = pair_force_curvature(x)
    h = w * force
    mobility = x * (1.0 - x)
    radius = 2.0 * w * mobility * curvature + np.abs((1.0 - 2.0 * x) * h)
    return h, mobility * h, float(radius.max()) + law.coeff_at_0 + law.coeff_at_1


def _rkc_step(
    rate: Callable[[float, np.ndarray], np.ndarray],
    x: np.ndarray,
    drift: np.ndarray,
    dt: float,
    stages: int,
) -> np.ndarray:
    """One s-stage RKC2 step of u' = rate(tau, u) from u(0) = x to u(dt).

    drift is rate(0, x), which the caller already has; the other s - 1
    evaluations fall at the recursion's own stage times.  Follows the
    step of the reference code rkc.f (Sommeijer, Shampine & Verwer 1998).
    """
    w0 = 1.0 + _DAMPING / stages**2
    arg = stages * math.acosh(w0)
    root = math.sqrt(w0 * w0 - 1.0)
    w1 = math.sinh(arg) * root * root / (math.cosh(arg) * stages * root - w0 * math.sinh(arg))
    b1 = b2 = 1.0 / (2.0 * w0) ** 2
    th2, th1 = 0.0, w1 * b1
    u2, u1 = x, x + (dt * th1) * drift
    z2, z1, dz2, dz1, ddz2, ddz1 = 1.0, w0, 0.0, 1.0, 0.0, 0.0
    for _ in range(2, stages + 1):
        z = 2.0 * w0 * z1 - z2
        dz = 2.0 * w0 * dz1 - dz2 + 2.0 * z1
        ddz = 2.0 * w0 * ddz1 - ddz2 + 4.0 * dz1
        b = ddz / dz**2
        a1 = 1.0 - z1 * b1
        mu = 2.0 * w0 * b / b1
        nu = -b / b2
        mus = mu * w1 / w0
        pull = rate(th1 * dt, u1) - a1 * drift
        u = mu * u1 + nu * u2 + (1.0 - mu - nu) * x + (dt * mus) * pull
        th = mu * th1 + nu * th2 + mus * (1.0 - a1)
        u2, u1, th2, th1, b2, b1 = u1, u, th1, th, b1, b
        z2, z1, dz2, dz1, ddz2, ddz1 = z1, z, dz1, dz, ddz1, ddz
    return u1


def flow_evolve(state: FlowState, t_final: float) -> FlowState:
    """Advance the particle flow to a target time.

    Stabilized explicit steps: second-order Runge-Kutta-Chebyshev
    (RKC2, damping 2/13) with s = max(2, ceil(sqrt(1 + 1.54 dt rho)))
    stages, rho the Gershgorin bound of _pair_drift taken at each
    accepted point, so a step's cost grows like sqrt(rho) rather than
    rho.  The linear drift c0 (1 - x) - c1 x is integrated exactly by
    an integrating factor (_rkc_step); the pair part is evaluated at
    the stage points, which may leave (0,1), where the mobility form
    stays finite.  Only the proposal is checked: one that leaves (0,1),
    breaks the ordering or is not finite halves dt, as does a step
    that would need more than _MAX_STAGES stages.  Otherwise the local
    error estimate (12 (u_n - u_n+1) + 6 dt (F_n + F_n+1)) / 15 of the
    integrated variable u, in the RMS norm over the absolute tolerance
    _TOL, accepts the step when it is at most 1, and the next dt is
    dt * min(10, max(0.1, 0.8 err^(-1/3))) either way.  The velocity at
    an accepted point is the next step's first stage.  The first dt is
    1e-3, and a dt below 1e-12 raises NumericalError carrying the
    partial state.

    Each accepted step appends a history record with the energy and
    Fisher estimates and the running integral of half the Fisher
    estimate (trapezoid in time).  The returned state adds the rejected
    steps to rejected_steps and the pair-sum evaluations to evals, and
    lowers min_gap to the smallest gap between neighbors at the start
    and after every accepted step.  A target time that is not finite,
    or before the state's, raises ValidationError.
    """
    if not math.isfinite(t_final):
        raise ValidationError(f"the flow needs a finite target time, got {t_final}")
    if t_final < state.t:
        raise ValidationError("cannot flow backward in time")
    law = state.law
    w = law.mass / state.particles.size
    # inside a step, x = x* + e^{-kappa tau} (u - x*) carries the linear
    # drift c0 (1 - x) - c1 x exactly, and u moves with the pair part alone
    kappa = law.coeff_at_0 + law.coeff_at_1
    fixed = law.coeff_at_0 / kappa if kappa > 0.0 else 0.0

    def rate(tau: float, u: np.ndarray) -> np.ndarray:
        decay = math.exp(-kappa * tau)
        y = fixed + decay * (u - fixed)
        return y * (1.0 - y) * (w * pair_force(y)) / decay

    x = state.particles.copy()
    t = state.t
    dt = _DT0
    rejected = state.rejected_steps
    evals = state.evals + 1
    gap = min(state.min_gap, _min_gap(x))
    history = list(state.history)
    # the pair sum at an accepted point serves the Fisher estimate, the
    # error estimate of the step that reached it and the next first stage
    h, drift, rho = _pair_drift(law, x)
    last = history[-1] if history else FlowRecord(t, _chi_hat(state, x), _phi_hat(state, x, h), 0.0)
    if not history:
        history.append(last)
    while t < t_final - 1e-15:
        dt = min(dt, t_final - t)
        root = math.sqrt(1.0 + 1.54 * dt * rho)
        err, factor = math.inf, 0.5
        if root <= _MAX_STAGES:
            stages = max(2, math.ceil(root))
            u = _rkc_step(rate, x, drift, dt, stages)
            evals += stages - 1
            decay = math.exp(-kappa * dt)
            proposal = fixed + decay * (u - fixed)
            if _step_ok(proposal):
                h_new, drift_new, rho_new = _pair_drift(law, proposal)
                evals += 1
                estimate = (12.0 * (x - u) + 6.0 * dt * (drift + drift_new / decay)) / 15.0
                err = math.sqrt(float(np.mean(estimate**2))) / _TOL
                # an exact step (err = 0, as for one particle) grows dt tenfold
                factor = min(10.0, max(0.1, 0.8 * max(err, 1e-30) ** (-1.0 / 3.0)))
        if not err <= 1.0:
            dt *= factor
            rejected += 1
            if dt < _DT_MIN:
                error = NumericalError(f"particle step collapsed below dt_min at t={t:.6g}")
                error.state = replace(
                    state, particles=x, t=t, history=tuple(history),
                    rejected_steps=rejected, evals=evals, min_gap=gap,
                )
                raise error
            continue
        x, h, drift, rho = proposal, h_new, drift_new, rho_new
        gap = min(gap, _min_gap(x))
        t += dt
        dt *= factor
        chi_hat = _chi_hat(state, x)
        phi_hat = _phi_hat(state, x, h)
        half = last.half_integral + 0.25 * (phi_hat + last.phi_hat) * (t - last.t)
        last = FlowRecord(t, chi_hat, phi_hat, half)
        history.append(last)
    return replace(
        state, particles=x, t=t, history=tuple(history),
        rejected_steps=rejected, evals=evals, min_gap=gap,
    )


@dataclass(frozen=True)
class FlowDiagnostics:
    """Time series extracted from a flow history, and how the flow ran.

    chi is the anchored entropy estimate (chi_hat + chi_offset);
    dchi_dt is np.gradient of chi in t: centered three-point derivatives
    on the nonuniform time grid, with one-sided differences at the ends
    (0 for a history of one record).

    steps counts the accepted steps (records after the first), and
    rejected_steps, evals and min_gap are the state's.  dt_min and
    dt_max range over the accepted steps except the last, which is
    clipped to the horizon (read from the recorded times, so to their
    rounding; 0 when no step was taken).  energy_gap is the final
    half_integral minus the rise of the raw energy estimate,
    chi_hat(T) - chi_hat(0): the two agree exactly for the continuous
    flow, so the gap measures the time-stepping error of the run.
    """

    t: np.ndarray
    chi: np.ndarray
    phi_star: np.ndarray
    half_integral: np.ndarray
    dchi_dt: np.ndarray
    ratio_error: np.ndarray
    energy_gap: float
    steps: int
    rejected_steps: int
    evals: int
    dt_min: float
    dt_max: float
    min_gap: float


def flow_diagnostics(state: FlowState) -> FlowDiagnostics:
    """Derive the entropy-production comparison from the history.

    ratio_error is |dchi/dt - phi*/2| / (phi*/2) wherever the Fisher
    estimate is positive, and 0 at points where it vanishes.
    """
    if not state.history:
        raise ValidationError("the flow has no recorded steps")
    first, last = state.history[0], state.history[-1]
    t = np.array([r.t for r in state.history])
    chi = np.array([r.chi_hat for r in state.history]) + state.chi_offset
    phi = np.array([r.phi_hat for r in state.history])
    half = np.array([r.half_integral for r in state.history])
    # np.gradient needs two points; a lone record has no rate of change
    d = np.gradient(chi, t) if t.size > 1 else np.zeros_like(chi)
    target = 0.5 * phi
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(target > 0.0, np.abs(d - target) / target, 0.0)
    dt = np.diff(t)
    unclipped = dt[:-1] if dt.size > 1 else dt
    return FlowDiagnostics(
        t,
        chi,
        phi,
        half,
        d,
        ratio,
        last.half_integral - (last.chi_hat - first.chi_hat),
        dt.size,
        state.rejected_steps,
        state.evals,
        float(unclipped.min()) if dt.size else 0.0,
        float(unclipped.max()) if dt.size else 0.0,
        state.min_gap,
    )


@dataclass(frozen=True)
class IstarReport:
    """Half the time integral of the Fisher estimate, with its anchor.

    value = integrated + tail; minus_chi is the quadrature entropy
    deficit of the starting law, which the integral should reproduce;
    lower_bound_only flags runs whose Fisher estimate had not decayed
    by the time horizon, so the tail fit cannot be trusted; floored
    flags a tail fit whose window stopped at _FISHER_FLOOR of the peak.

    The run itself, as in FlowDiagnostics: steps accepted,
    rejected_steps, evals (pair-sum evaluations, one per stage), dt_min
    and dt_max, min_gap and energy_gap.
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
    evals: int
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
    diag = flow_diagnostics(state)
    integrated = state.history[-1].half_integral
    tail, rate, trustworthy, floored = _tail_integral(diag.t, diag.phi_star)
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
        floored,
        diag.steps,
        diag.rejected_steps,
        diag.evals,
        diag.dt_min,
        diag.dt_max,
        diag.min_gap,
        diag.energy_gap,
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
