"""Free entropy of a projection pair and the equilibrium problem behind it.

The entropy of a law with density f and atom data in generic position is

    chi = (1/4) Sigma(nu) + ((a01+a10)/2) int log x dnu
        + ((a00+a11)/2) int log(1-x) dnu - C(alpha, beta),

where Sigma is the logarithmic energy and C is a closed-form constant
built from the function B(s,t).  Outside generic position chi is minus
infinity.  The same functional, with an added tilt potential and the
constant dropped, is maximized over densities of fixed mass by
equilibrium_solve; the achieved maximum defines the constant B_h of the
relative entropy Sigma_h.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import xlogy

from .chebyshev import cosine_series_at_angles, gc_angles, moments_from_masses
from .densities import (
    DensitySpec,
    density_integrate,
    density_log_energy,
    density_log_moments,
    zero_density,
)
from .errors import ValidationError
from .grids import DEFAULT_GRID
from .laws import ProjectionPairLaw, generic_atoms
from .potentials import PotentialSpec, zero_potential

__all__ = [
    "EntropyReport",
    "EquilibriumResult",
    "b_function",
    "constant_C",
    "log_energy",
    "chi_proj",
    "rate_function",
    "equilibrium_objective",
    "equilibrium_solve",
    "equilibrium_field",
    "tau_of_potential",
    "relative_sigma_h",
]

_LOG2 = float(np.log(2.0))


def b_function(s: float, t: float) -> float:
    """The six-term closed form B(s,t), with the convention 0*log 0 = 0.

    B is symmetric in (s,t) and B(0,0) = -2 log 2.
    """
    if s < 0 or t < 0:
        raise ValidationError("b_function needs nonnegative arguments")

    def half_sq_log(z: float) -> float:
        return float(xlogy(0.5 * z * z, z))

    return (
        half_sq_log(1.0 + s)
        - half_sq_log(s)
        + half_sq_log(1.0 + t)
        - half_sq_log(t)
        - half_sq_log(2.0 + s + t)
        + half_sq_log(1.0 + s + t)
    )


def _rho_of(alpha: float, beta: float) -> float:
    return min(alpha, beta, 1.0 - alpha, 1.0 - beta)


def _constant_from_traces(alpha: float, beta: float) -> tuple[float, float]:
    rho = _rho_of(alpha, beta)
    if rho <= 0.0:
        return max(rho, 0.0), 0.0
    return rho, rho * rho * b_function(abs(alpha - beta) / rho, abs(alpha + beta - 1.0) / rho)


def constant_C(law: ProjectionPairLaw) -> tuple[float, float]:
    """(rho, C) of a law: rho = min(alpha,beta,1-alpha,1-beta), C = rho^2 B(.,.)."""
    return _constant_from_traces(law.alpha, law.beta)


def log_energy(density: DensitySpec, grid: int = DEFAULT_GRID) -> float:
    """Logarithmic energy Sigma = double integral of log|x-y| against the density."""
    return density_log_energy(density, grid)


@dataclass(frozen=True)
class EntropyReport:
    """Free entropy of a law together with every intermediate quantity.

    chi is -inf exactly when the law is not in generic position or a
    logarithmic moment diverges; cause records which.
    """

    sigma: float
    log_moment_0: float
    log_moment_1: float
    rho: float
    C: float
    chi: float
    generic: bool
    cause: str | None = None


def chi_proj(law: ProjectionPairLaw, grid: int = DEFAULT_GRID) -> EntropyReport:
    """Free entropy of a two-projection law."""
    rho, c_const = constant_C(law)
    sigma = density_log_energy(law.density, grid)
    lm0, lm1 = density_log_moments(law.density, grid)
    if not law.generic:
        return EntropyReport(
            sigma, lm0, lm1, rho, c_const, float("-inf"), False,
            "the atom pattern is not in generic position",
        )
    coeff0 = law.coeff_at_0
    coeff1 = law.coeff_at_1
    term0 = 0.0 if coeff0 == 0.0 else 0.5 * coeff0 * lm0
    term1 = 0.0 if coeff1 == 0.0 else 0.5 * coeff1 * lm1
    chi = 0.25 * sigma + term0 + term1 - c_const
    if not np.isfinite(chi):
        return EntropyReport(
            sigma, lm0, lm1, rho, c_const, float("-inf"), True,
            "a logarithmic moment of the density diverges",
        )
    return EntropyReport(sigma, lm0, lm1, rho, c_const, float(chi), True)


def rate_function(
    mu: DensitySpec,
    F: Callable[[np.ndarray], np.ndarray],
    rho: float,
    Cprime: float,
    grid: int = DEFAULT_GRID,
) -> float:
    """Large-deviation rate I(mu) = -rho^2 Sigma(mu) + rho^2 int F dmu + Cprime.

    mu must be a probability density; F and Cprime come from the
    equilibrium problem (see equilibrium_field).
    """
    if abs(mu.mass - 1.0) > 1e-8 and mu.kind != "zero":
        raise ValidationError("rate_function expects a probability density")
    if rho == 0.0:
        return float(Cprime)
    sigma = density_log_energy(mu, grid)
    if not np.isfinite(sigma):
        return float("inf")
    mean_f = density_integrate(mu, F, grid)
    if not np.isfinite(mean_f):
        return float("inf")
    return float(-rho * rho * sigma + rho * rho * mean_f + Cprime)


# ---------------------------------------------------------------------------
# equilibrium problem


@dataclass(frozen=True)
class EquilibriumResult:
    """Outcome of the tilted equilibrium maximization.

    density is the maximizing density (window profile on (0,1)); law the
    generic-position law built around it; objective the achieved value
    of (1/4)Sigma + (1/2)int(tilt)dnu on the solver grid; B_h and
    C_h = C + B_h the derived constants; flatness the final sup
    deviation of the first-order condition on the numerical support.
    """

    density: DensitySpec
    law: ProjectionPairLaw
    objective: float
    B_h: float
    C_h: float
    flatness: float
    converged: bool
    iterations: int
    rho: float
    coeff0: float
    coeff1: float
    alpha: float
    beta: float


def _tilt_values(
    coeff0: float, coeff1: float, h: PotentialSpec, x: np.ndarray
) -> np.ndarray:
    w = np.zeros_like(x)
    if coeff0 != 0.0:
        w += coeff0 * np.log(x)
    if coeff1 != 0.0:
        w += coeff1 * np.log1p(-x)
    return w - h.value(x)


def _truncated_energy(masses: np.ndarray) -> float:
    c = moments_from_masses(masses)
    k = np.arange(1, c.size)
    total = float(np.sum(masses))
    return total * total * (-2.0 * _LOG2) - 2.0 * float(np.sum(c[1:] ** 2 / k))


def equilibrium_objective(
    alpha: float, beta: float, h: PotentialSpec | None, masses: np.ndarray
) -> float:
    """Discrete objective (1/4)Sigma + (1/2)sum(masses*tilt) on node masses.

    masses are point masses at the Gauss-Chebyshev nodes of (0,1) in
    angle order (decreasing x); the energy uses the truncated moment
    series, which makes the objective a concave quadratic.
    """
    h = h or zero_potential()
    atoms = generic_atoms(alpha, beta)
    coeff0 = atoms["a01"] + atoms["a10"]
    coeff1 = atoms["a00"] + atoms["a11"]
    masses = np.asarray(masses, dtype=float)
    _, x_theta = _nodes_on_unit(masses.size)
    w = _tilt_values(coeff0, coeff1, h, x_theta)
    return 0.25 * _truncated_energy(masses) + 0.5 * float(np.dot(masses, w))


def _nodes_on_unit(m: int) -> tuple[np.ndarray, np.ndarray]:
    theta = gc_angles(m)
    return theta, 0.5 * (1.0 + np.cos(theta))


def _adjust_support(
    masses: np.ndarray,
    dev: np.ndarray,
    obj: float,
    objective,
    mass: float,
    uniform_level: float,
    tol: float,
) -> tuple[np.ndarray, float]:
    """Move clearly misclassified nodes across the support boundary.

    Nodes whose multiplicative decay toward zero is capped by their own
    small gradient gap would gate convergence for tens of thousands of
    iterations; zeroing an underweight node with a negative gap is a
    first-order ascent move, so each candidate is zeroed one at a time
    and kept only when the objective does not drop.  The reverse move
    guards against an over-eager trim: a boundary node whose gap turned
    positive while its mass sits at zero is reseeded, so the dynamics
    can regrow it.
    """
    revive = (masses <= 1e-14 * np.max(masses)) & (dev > tol)
    if np.any(revive):
        masses = masses.copy()
        masses[revive] = 1e-3 * uniform_level
        masses *= mass / np.sum(masses)
        obj = objective(masses)
    candidates = np.where((dev < -tol) & (masses > 0.0) & (masses < uniform_level))[0]
    if candidates.size:
        for j in candidates[np.argsort(masses[candidates])][:256]:
            trial = masses.copy()
            trial[j] = 0.0
            trial *= mass / np.sum(trial)
            new_obj = objective(trial)
            if new_obj >= obj - 1e-15:
                masses = trial
                obj = new_obj
    return masses, obj


def _energy_matrix(idx: np.ndarray, m: int) -> np.ndarray:
    """Quadratic-form matrix of the truncated energy on a node subset.

    Row i is the potential that a unit mass at node idx[i] induces at the
    other selected nodes, built through the same transforms the iterative
    gradient uses so the two agree to roundoff.
    """
    k = np.arange(1, m)
    out = np.empty((idx.size, idx.size))
    for lo in range(0, idx.size, 512):
        block = idx[lo : lo + 512]
        unit = np.zeros((block.size, m))
        unit[np.arange(block.size), block] = 1.0
        c = moments_from_masses(unit)
        upot = -2.0 * _LOG2 - 2.0 * cosine_series_at_angles(c[:, 1:] / k, m)
        out[lo : lo + block.size] = upot[:, idx]
    return 0.5 * (out + out.T)


def _kkt_polish(
    masses: np.ndarray,
    w: np.ndarray,
    mass: float,
    gradient,
    tol: float,
) -> tuple[np.ndarray, bool, float]:
    """Solve the first-order system exactly on the detected support.

    The objective is a concave quadratic in the node masses, so once the
    support is known the maximizer solves a linear system: equal gradient
    on the support, total mass fixed.  Nodes the solve sends negative are
    dropped and outside nodes whose gradient rises above the support
    level are brought back in, until the complementarity pattern is
    self-consistent.
    """
    m = masses.size
    active = masses > 1e-12 * np.max(masses)
    for _ in range(60):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        a_sub = _energy_matrix(idx, m)
        system = np.zeros((idx.size + 1, idx.size + 1))
        system[: idx.size, : idx.size] = a_sub
        system[: idx.size, -1] = -1.0
        system[-1, : idx.size] = 1.0
        rhs = np.concatenate([-w[idx], [mass]])
        try:
            solution = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            break
        m_sub = solution[: idx.size]
        negative = m_sub < -1e-15 * mass
        if np.any(negative):
            active[idx[negative]] = False
            continue
        trial = np.zeros(m)
        trial[idx] = np.maximum(m_sub, 0.0)
        trial *= mass / np.sum(trial)
        grad = gradient(trial)
        level = float(np.dot(trial, grad)) / mass
        dev = grad - level
        flat = float(np.max(np.abs(dev[active])))
        outside = ~active
        if flat <= tol and (not np.any(outside) or float(np.max(dev[outside])) <= tol):
            return trial, True, flat
        joiners = outside & (dev > tol)
        if flat <= tol and np.any(joiners):
            active |= joiners
            continue
        break
    return masses, False, np.inf


def equilibrium_solve(
    alpha: float,
    beta: float,
    h: PotentialSpec | None = None,
    grid: int = DEFAULT_GRID,
    *,
    tol: float = 1e-6,
    max_iter: int = 4000,
    step0: float = 2.0,
) -> EquilibriumResult:
    """Maximize the tilted entropy functional over densities of mass 2 rho.

    The atoms are the generic-position pattern of (alpha, beta) and are
    not optimization variables.  The solver runs mirror ascent on point
    masses at the Gauss-Chebyshev nodes of (0,1): multiplicative updates
    along the gradient keep the iterate in the simplex scaled to total
    mass 2 rho, a monotone line search on the concave objective picks
    the step, and iteration stops when the first-order condition (log
    potential plus tilt constant on the support) is flat to tol.  Nodes
    below 1e-12 of the peak mass are treated as outside the support.

    B_h is evaluated by re-running the entropy functionals on the
    returned density, so that the relative entropy of the maximizer
    itself is zero by construction rather than up to quadrature error.
    """
    h = h or zero_potential()
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ValidationError("traces must lie in [0,1]")
    m = grid
    atoms = generic_atoms(alpha, beta)
    rho = _rho_of(alpha, beta)
    coeff0 = atoms["a01"] + atoms["a10"]
    coeff1 = atoms["a00"] + atoms["a11"]
    _, c_const = _constant_from_traces(alpha, beta)
    if rho <= 0.0:
        law = ProjectionPairLaw(alpha, beta, density=zero_density(), **atoms)
        b_h = chi_proj(law, m).chi - tau_of_potential(law, h, m)
        return EquilibriumResult(
            law.density, law, 0.0, b_h, c_const + b_h, 0.0, True, 0,
            rho, coeff0, coeff1, alpha, beta,
        )

    mass = 2.0 * rho
    theta, x_theta = _nodes_on_unit(m)
    w = _tilt_values(coeff0, coeff1, h, x_theta)
    masses = np.full(m, mass / m)
    k = np.arange(1, m)

    def gradient(mm: np.ndarray) -> np.ndarray:
        c = moments_from_masses(mm)
        upot = float(np.sum(mm)) * (-2.0 * _LOG2) - 2.0 * cosine_series_at_angles(
            c[1:] / k, m
        )
        return 0.5 * (upot + w)

    def objective(mm: np.ndarray) -> float:
        return 0.25 * _truncated_energy(mm) + 0.5 * float(np.dot(mm, w))

    eta = step0
    obj = objective(masses)
    flat = np.inf
    converged = False
    iterations = 0
    uniform_level = mass / m
    ascent_cap = min(max_iter, 1000)
    for iterations in range(1, max_iter + 1):
        grad = gradient(masses)
        gbar = float(np.dot(masses, grad)) / mass
        support = masses > 1e-12 * np.max(masses)
        dev = grad - gbar
        flat = float(np.max(np.abs(dev[support])))
        outside_ok = support.all() or float(np.max(dev[~support])) <= tol
        if flat <= tol and outside_ok:
            converged = True
            break
        if iterations >= ascent_cap:
            masses, converged, polished_flat = _kkt_polish(
                masses, w, mass, gradient, tol
            )
            if converged:
                obj = objective(masses)
                flat = polished_flat
            break
        if iterations % 250 == 0:
            masses, obj = _adjust_support(
                masses, dev, obj, objective, mass, uniform_level, tol
            )
        trial = masses * np.exp(np.clip(eta * dev, -50.0, 50.0))
        trial *= mass / np.sum(trial)
        new_obj = objective(trial)
        if new_obj < obj - 1e-15:
            eta *= 0.5
            if eta < 1e-8:
                break
            continue
        masses = trial
        obj = new_obj
        eta *= 1.05

    g = (masses * (m / np.pi))[::-1].copy()
    left = 0.5 if coeff0 > 0.0 else -0.5
    right = 0.5 if coeff1 > 0.0 else -0.5
    density = DensitySpec("cheb", float(np.sum(masses)), (0.0, 1.0), (left, right), values=g)
    law = ProjectionPairLaw(alpha, beta, density=density, **atoms)
    b_h = chi_proj(law, m).chi - tau_of_potential(law, h, m)
    return EquilibriumResult(
        density, law, float(obj), float(b_h), float(c_const + b_h),
        flat, converged, iterations, rho, coeff0, coeff1, alpha, beta,
    )


def equilibrium_field(
    result: EquilibriumResult, h: PotentialSpec | None = None
) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """External field F and constant Cprime for rate_function.

    With these, the rate of the normalized maximizer itself is zero and
    every other probability measure has nonnegative rate.
    """
    h = h or zero_potential()
    if result.rho <= 0.0:
        raise ValidationError("the rate field is undefined for rho = 0")
    coeff0, coeff1, rho = result.coeff0, result.coeff1, result.rho

    def field(x: np.ndarray) -> np.ndarray:
        return -_tilt_values(coeff0, coeff1, h, np.asarray(x, dtype=float)) / rho

    return field, result.objective


def tau_of_potential(
    law: ProjectionPairLaw, h: PotentialSpec, grid: int = DEFAULT_GRID
) -> float:
    """Trace of the potential: atom term plus half the density integral of h."""
    if h.kind == "zero":
        return 0.0
    av = h.atom_values
    atom_term = law.a10 * av[0] + law.a01 * av[1] + law.a11 * av[2] + law.a00 * av[3]
    return float(atom_term + 0.5 * density_integrate(law.density, h.value, grid))


def relative_sigma_h(
    law: ProjectionPairLaw,
    h: PotentialSpec | None = None,
    grid: int = DEFAULT_GRID,
) -> float:
    """Relative free entropy -chi + tau(h) + B_h; nonnegative, zero at the maximizer."""
    h = h or zero_potential()
    return _relative_sigma(law, h, chi_proj(law, grid).chi, grid)[0]


def _relative_sigma(
    law: ProjectionPairLaw, h: PotentialSpec, chi: float, grid: int
) -> tuple[float, bool | None]:
    """sigma_h of a law with known entropy chi, and the converged flag of the
    h-tilted equilibrium solve behind B_h.

    chi = -inf gives (inf, None) without solving.
    """
    if chi == float("-inf"):
        return float("inf"), None
    result = equilibrium_solve(law.alpha, law.beta, h, grid)
    return float(-chi + tau_of_potential(law, h, grid) + result.B_h), result.converged
