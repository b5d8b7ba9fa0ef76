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

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.fft import dct
from scipy.special import xlogy

# moments_from_masses and cosine_series_at_angles stay bound here, where
# perfbench/tracing.py times them; the energy operators call dct directly.
from .chebyshev import cosine_series_at_angles, gc_angles, moments_from_masses  # noqa: F401
from .densities import (
    DensitySpec,
    density_integrate,
    density_log_energy,
    density_log_moments,
    log_energy_moments,
)
from .errors import ValidationError
from .grids import DEFAULT_GRID
from .laws import ProjectionPairLaw, free_pair_law
from .potentials import PotentialSpec, zero_potential

__all__ = [
    "EntropyReport",
    "EquilibriumResult",
    "b_function",
    "constant_C",
    "chi_proj",
    "rate_function",
    "equilibrium_objective",
    "equilibrium_solve",
    "equilibrium_field",
    "tau_of_potential",
    "relative_sigma_h",
    "relative_sigma_solve",
]

_LOG2 = float(np.log(2.0))
_TOL = 1e-6  # flatness of the first-order condition
_EXACT = 1e-12  # flatness at which a level's starting masses need no solve
_FULL_START_NODES = 64  # the active-set recursion starts from uniform masses here
_MAX_ROUNDS = 60  # active-set rounds per level
_PCG_TOL = 1e-15  # relative residual of each round's conjugate-gradient solve
_PCG_MAX = 500  # conjugate-gradient iterations per round


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


def constant_C(law: ProjectionPairLaw) -> float:
    """C = rho^2 B(|alpha-beta|/rho, |alpha+beta-1|/rho) of a law, 0 when rho = 0."""
    alpha, beta, rho = law.alpha, law.beta, law.rho
    if rho <= 0.0:
        return 0.0
    return rho * rho * b_function(abs(alpha - beta) / rho, abs(alpha + beta - 1.0) / rho)


@dataclass(frozen=True)
class EntropyReport:
    """Free entropy of a law together with every intermediate quantity.

    chi is -inf exactly when the law is not in generic position or a
    logarithmic moment diverges; cause records which.  moments is the
    number of Chebyshev moments the log energy sigma summed (see
    densities.log_energy_moments).
    """

    sigma: float
    moments: int
    log_moment_0: float
    log_moment_1: float
    rho: float
    C: float
    chi: float
    generic: bool
    cause: str | None = None


def chi_proj(law: ProjectionPairLaw, grid: int = DEFAULT_GRID) -> EntropyReport:
    """Free entropy of a two-projection law."""
    rho, c_const = law.rho, constant_C(law)
    sigma = density_log_energy(law.density, grid)
    moments = log_energy_moments(law.density, grid)
    lm0, lm1 = density_log_moments(law.density, grid)
    if not law.generic:
        return EntropyReport(
            sigma, moments, lm0, lm1, rho, c_const, float("-inf"), False,
            "the atom pattern is not in generic position",
        )
    coeff0 = law.coeff_at_0
    coeff1 = law.coeff_at_1
    term0 = 0.0 if coeff0 == 0.0 else 0.5 * coeff0 * lm0
    term1 = 0.0 if coeff1 == 0.0 else 0.5 * coeff1 * lm1
    chi = 0.25 * sigma + term0 + term1 - c_const
    if not np.isfinite(chi):
        return EntropyReport(
            sigma, moments, lm0, lm1, rho, c_const, float("-inf"), True,
            "a logarithmic moment of the density diverges",
        )
    return EntropyReport(sigma, moments, lm0, lm1, rho, c_const, float(chi), True)


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

    law is the free pair law of the traces with its density replaced by
    the maximizer, so the traces, rho, the edge coefficients and the
    maximizing density itself (window profile on (0,1)) are read from
    it; objective the achieved value of (1/4)Sigma +
    (1/2)int(tilt)dnu on the solver grid; B_h and C_h = C + B_h the
    derived constants; flatness the final sup deviation of the
    first-order condition on the numerical support; iterations and
    solve_iterations the active-set rounds and their conjugate-gradient
    iterations; support the smallest and largest node with positive
    mass (None when rho = 0 and there is no density).
    """

    law: ProjectionPairLaw
    objective: float
    B_h: float
    C_h: float
    flatness: float
    converged: bool
    iterations: int
    solve_iterations: int
    support: tuple[float, float] | None

    @property
    def density(self) -> DensitySpec:
        """The maximizing density, law.density."""
        return self.law.density


def _tilt_values(law: ProjectionPairLaw, h: PotentialSpec, x: np.ndarray) -> np.ndarray:
    w = np.zeros_like(x)
    if law.coeff_at_0 != 0.0:
        w += law.coeff_at_0 * np.log(x)
    if law.coeff_at_1 != 0.0:
        w += law.coeff_at_1 * np.log1p(-x)
    return w - h.value(x)


def _objective(masses: np.ndarray, w: np.ndarray, minus_energy: Callable) -> float:
    return -0.25 * float(np.dot(masses, minus_energy(masses))) + 0.5 * float(np.dot(masses, w))


def equilibrium_objective(
    alpha: float, beta: float, h: PotentialSpec | None, masses: np.ndarray
) -> float:
    """Discrete objective (1/4)Sigma + (1/2)sum(masses*tilt) on node masses.

    masses are point masses at the Gauss-Chebyshev nodes of (0,1) in
    angle order (decreasing x); the energy uses the truncated moment
    series, which makes the objective a concave quadratic.
    """
    law = free_pair_law(alpha, beta)
    masses = np.asarray(masses, dtype=float)
    _, x_theta = _nodes_on_unit(masses.size)
    w = _tilt_values(law, h or zero_potential(), x_theta)
    return _objective(masses, w, _energy_operators(masses.size)[0])


def _nodes_on_unit(m: int) -> tuple[np.ndarray, np.ndarray]:
    theta = gc_angles(m)
    return theta, 0.5 * (1.0 + np.cos(theta))


def _energy_operators(m: int) -> tuple[Callable, Callable]:
    """-A and its inverse on m nodes, as maps of (..., m) stacks of node masses.

    A is the matrix of the truncated energy masses @ A @ masses.  The
    energy's cosine series log|x-y| = -log 2 - 2 sum_k T_k(x)T_k(y)/k
    gives -A = C^T D C with C_ki = cos(k theta_i) and D = diag(2 log 2,
    2/1, ..., 2/(m-1)), and C C^T = diag(m, m/2, ..., m/2) =: N gives
    (-A)^{-1} = C^T N^{-1} D^{-1} N^{-1} C.  The unnormalized DCT-II is
    2C and the DCT-III is C^T with its columns k >= 1 doubled, so each
    map is x -> dct(dct(x, 2) * e, 3) with one diagonal e:
    (log 2, 1/(2k)) for -A and (1/(4 m^2 log 2), k/(2 m^2)) for the
    inverse, k = 1, ..., m-1.
    """
    k = np.arange(1, m)
    e = np.concatenate([[_LOG2], 0.5 / k])
    e_inverse = np.concatenate([[0.25 / (_LOG2 * m * m)], 0.5 * k / (m * m)])
    return lambda x: dct(dct(x, 2) * e, 3), lambda x: dct(dct(x, 2) * e_inverse, 3)


def _pcg(
    operator: Callable, inverse: Callable, rhs: np.ndarray, x: np.ndarray, support: np.ndarray
) -> tuple[np.ndarray, int, bool]:
    """Conjugate gradients for -A_SS x = rhs, the rows side by side.

    rhs and the start x are (rows, m) stacks that vanish off the support
    S, where the 0/1 mask support is 0.  operator applies -A and inverse
    the full-grid (-A)^{-1}; masked to S, the latter preconditions.
    Returns the solution, the iterations spent and whether every row's
    residual fell to _PCG_TOL of its right-hand side within _PCG_MAX
    iterations.
    """
    r = rhs - support * operator(x)
    z = support * inverse(r)
    p = z
    rz = np.vecdot(r, z)
    target = _PCG_TOL**2 * np.vecdot(rhs, rhs)
    spent = 0
    while True:
        live = np.vecdot(r, r) > target
        if not live.any() or spent == _PCG_MAX:
            return x, spent, not live.any()
        spent += 1
        q = support * operator(p)
        # a row whose residual is small enough stops moving
        step = np.divide(rz, np.vecdot(p, q), out=np.zeros_like(rz), where=live)
        x = x + step[:, None] * p
        r = r - step[:, None] * q
        z = support * inverse(r)
        rz, rz_old = np.vecdot(r, z), rz
        p = z + np.divide(rz, rz_old, out=np.zeros_like(rz), where=live)[:, None] * p


def _active_set(
    tilt: Callable[[np.ndarray], np.ndarray], mass: float, m: int
) -> tuple[np.ndarray, float, float, bool, int, int]:
    """Exact maximizer of the node-mass objective at m nodes.

    Returns masses, objective, flatness, converged, and the active-set
    rounds and conjugate-gradient iterations spent at this level and all
    coarser ones.
    """
    _, x_theta = _nodes_on_unit(m)
    w = tilt(x_theta)
    minus_energy, inverse = _energy_operators(m)

    def deviation(masses: np.ndarray) -> tuple[np.ndarray, float]:
        # the first-order gradient afresh from the masses; flatness is its sup on the support
        grad = 0.5 * (w - minus_energy(masses))
        dev = grad - float(np.dot(masses, grad)) / mass
        return dev, float(np.max(np.abs(dev[active])))

    if m <= _FULL_START_NODES:
        masses = np.full(m, mass / m)
        rounds = iterations = 0
    else:
        coarse_m = m // 4
        coarse, _, _, _, rounds, iterations = _active_set(tilt, mass, coarse_m)
        masses = coarse[(2 * np.arange(m) + 1) * coarse_m // (2 * m)]
        masses *= mass / np.sum(masses)
    active = masses > 0.0
    dev, flat = deviation(masses)
    if flat <= _EXACT and not np.any(~active & (dev > _TOL)):
        return masses, _objective(masses, w, minus_energy), flat, True, rounds, iterations
    rhs = np.stack([w, np.ones(m)])
    # each round's solve starts from the previous round's solution
    solution = np.zeros((2, m))
    for _ in range(_MAX_ROUNDS):
        rounds += 1
        idx = np.flatnonzero(active)
        support = active.astype(float)
        start = solution * support
        solution, spent, solved = _pcg(minus_energy, inverse, rhs * support, start, support)
        iterations += spent
        if not solved:
            break
        u, v = solution[:, idx]
        # -A m = w - level on the support and sum(m) = mass fix the level
        m_sub = u - v * ((np.sum(u) - mass) / np.sum(v))
        negative = m_sub < -1e-15 * mass
        if np.any(negative):
            active[idx[negative]] = False
            continue
        masses = np.zeros(m)
        masses[idx] = np.maximum(m_sub, 0.0)
        masses *= mass / np.sum(masses)
        dev, flat = deviation(masses)
        if flat > _TOL:
            break
        joiners = ~active & (dev > _TOL)
        if not np.any(joiners):
            return masses, _objective(masses, w, minus_energy), flat, True, rounds, iterations
        active |= joiners
    return masses, _objective(masses, w, minus_energy), flat, False, rounds, iterations


def equilibrium_solve(
    alpha: float,
    beta: float,
    h: PotentialSpec | None = None,
    grid: int = DEFAULT_GRID,
) -> EquilibriumResult:
    """Maximize the tilted entropy functional over densities of mass 2 rho.

    The atoms are the generic-position pattern of (alpha, beta) and are
    not optimization variables.  The density is represented by point
    masses at the grid Gauss-Chebyshev nodes of (0,1); on them the
    functional is a strictly concave quadratic, so its maximizer over
    the simplex scaled to total mass 2 rho is unique.  An active-set
    loop finds it exactly: each round solves the first-order system
    (equal gradient on the support, total mass fixed) exactly, drops the
    nodes the solve sends negative, and otherwise adds the outside nodes
    whose gradient exceeds the support level by more than 1e-6.  No
    matrix is formed: -A = C^T D C is diagonal on the cosine basis (see
    _energy_operators), so on node masses that vanish off the support S
    it is a DCT-II, a diagonal, a DCT-III and a mask.  A round solves
    -A_SS [u v] = [w_S, 1] by conjugate gradients on both right-hand
    sides at once, to a relative residual of 1e-15, preconditioned by
    the exact full-grid inverse (the same DCT pair with another
    diagonal) restricted to S and started from the previous round's
    solution; a solve that needs more than 500 iterations ends the level
    unconverged.  The loop stops when the first-order condition is flat
    to 1e-6 on the support and no outside node qualifies.  Each level
    starts from the same solve at grid // 4, carried to the nearest
    nodes, and the coarsest (64 nodes or fewer) from uniform masses; a
    start already flat to 1e-12 with no qualifying outside node needs
    no solve.  iterations counts the rounds over all levels (0 when
    every start is exact, as for the untilted free pair at (1/2, 1/2))
    and solve_iterations their conjugate-gradient iterations.

    The traces, their generic-position atoms, rho, C and the edge
    coefficients all come from free_pair_law(alpha, beta), which also
    validates the traces; the returned law is that law with its density
    replaced by the maximizer.  B_h is evaluated by re-running the
    entropy functionals on the returned law, so that the relative
    entropy of the maximizer itself is zero by construction rather than
    up to quadrature error.
    """
    free = free_pair_law(alpha, beta)
    h = h or zero_potential()
    m = grid
    c_const = constant_C(free)
    if free.rho <= 0.0:
        b_h = chi_proj(free, m).chi - tau_of_potential(free, h, m)
        return EquilibriumResult(free, 0.0, b_h, c_const + b_h, 0.0, True, 0, 0, None)

    masses, obj, flat, converged, iterations, solve_iterations = _active_set(
        lambda x: _tilt_values(free, h, x), 2.0 * free.rho, m
    )
    g = (masses * (m / np.pi))[::-1].copy()
    left = 0.5 if free.coeff_at_0 > 0.0 else -0.5
    right = 0.5 if free.coeff_at_1 > 0.0 else -0.5
    law = replace(
        free, density=DensitySpec("cheb", float(np.sum(masses)), (0.0, 1.0), (left, right), values=g)
    )
    b_h = chi_proj(law, m).chi - tau_of_potential(law, h, m)
    # nodes run in decreasing x
    nodes = _nodes_on_unit(m)[1][masses > 0.0]
    return EquilibriumResult(
        law, float(obj), float(b_h), float(c_const + b_h),
        flat, converged, iterations, solve_iterations, (float(nodes[-1]), float(nodes[0])),
    )


def equilibrium_field(
    result: EquilibriumResult, h: PotentialSpec | None = None
) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """External field F and constant Cprime for rate_function.

    With these, the rate of the normalized maximizer itself is zero and
    every other probability measure has nonnegative rate.
    """
    h = h or zero_potential()
    law = result.law
    if law.rho <= 0.0:
        raise ValidationError("the rate field is undefined for rho = 0")

    def field(x: np.ndarray) -> np.ndarray:
        return -_tilt_values(law, h, np.asarray(x, dtype=float)) / law.rho

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
    return relative_sigma_solve(law, h, chi_proj(law, grid).chi, grid)[0]


def relative_sigma_solve(
    law: ProjectionPairLaw, h: PotentialSpec, chi: float, grid: int
) -> tuple[float, EquilibriumResult | None]:
    """sigma_h of a law with known entropy chi, and the h-tilted
    equilibrium solve behind B_h.

    chi = -inf gives (inf, None) without solving.
    """
    if chi == float("-inf"):
        return float("inf"), None
    result = equilibrium_solve(law.alpha, law.beta, h, grid)
    return float(-chi + tau_of_potential(law, h, grid) + result.B_h), result
