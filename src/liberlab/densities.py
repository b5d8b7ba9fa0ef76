"""Densities on (0,1) and the quadrature identities built on them.

A DensitySpec describes the absolutely continuous part of a law on
(0,1).  Two families are supported and every operation dispatches on
them:

* square-root-window densities (kinds "arcsine", "free_pair", "cheb"):
  f(x) = g(x) / sqrt((x-a)(b-x)) on a window [a,b] with g smooth.  All
  functionals are computed in the angle variable x = c + e*cos(theta),
  where the substitution absorbs the edge singularity and turns the
  logarithmic kernel, the finite Hilbert transform, and the endpoint
  log-moments into short Chebyshev coefficient sums:

      log|u - v|   = -log 2 - 2 sum_m T_m(u) T_m(v) / m,
      pv integral of T_m(v) / ((u-v) sqrt(1-v^2)) dv = -pi U_{m-1}(u),
      log(1 + u)   = -log 2 + 2 sum_m (-1)^(m+1) T_m(u) / m,
      log(1 - u)   = -log 2 - 2 sum_m T_m(u) / m.

  These are exact for band-limited g, so the free-pair and arcsine
  cases are computed to rounding error rather than quadrature error.

* smooth densities (kinds "uniform", "table"): bounded profiles handled
  on composite Gauss-Legendre grids graded toward the window ends.  The
  Hilbert transform uses singularity subtraction with the exact
  principal value of the constant term, and the log-kernel energy goes
  through the same Chebyshev moment series as above (moments taken by
  quadrature).

The degenerate kind "zero" represents a vanishing measure; every
functional returns its trivial value for it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy.polynomial.chebyshev import chebval
from scipy.interpolate import PchipInterpolator

from .chebyshev import (
    coeffs_from_values,
    gc_angles,
    moments_from_masses,
    sine_series_at_angles,
)
from .errors import ValidationError
from .grids import graded_legendre

__all__ = [
    "DensitySpec",
    "zero_density",
    "arcsine_density",
    "uniform_density",
    "free_pair_support",
    "free_pair_density",
    "table_density",
    "cheb_density",
    "density_values",
    "density_moments",
    "density_log_energy",
    "density_log_moments",
    "density_integrate",
    "density_weighted_p_norm",
    "density_transport",
    "density_cdf",
    "density_quantiles",
    "w1_empirical_to_density",
]

_EDGE_TOL = 1e-12
_SQRT_KINDS = ("arcsine", "free_pair", "cheb")
_SMOOTH_KINDS = ("uniform", "table")
_LOG2 = float(np.log(2.0))
# Entries in one row block of the smooth-kernel sum: 2**16 doubles make
# 512 KB, so the two block buffers of density_transport (1 MB together)
# stay in a 2 MB L2 cache instead of streaming through DRAM.
_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class DensitySpec:
    """Immutable description of a density on (0,1).

    mass is the total integral, support the closure of {f > 0}, and
    edge_exponents the power behavior of f at the two support ends
    (f ~ dist^a at the left end, ~ dist^b at the right end).  nodes and
    values carry the table samples for kind "table" and the smooth
    window profile g for kind "cheb"; alpha and beta are the trace
    parameters of a free-pair density.
    """

    kind: str
    mass: float
    support: tuple[float, float]
    edge_exponents: tuple[float, float]
    nodes: np.ndarray | None = None
    values: np.ndarray | None = None
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        for name in ("nodes", "values"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)


def zero_density() -> DensitySpec:
    """The vanishing measure."""
    return DensitySpec("zero", 0.0, (0.0, 1.0), (0.0, 0.0))


def arcsine_density(mass: float = 1.0, support: tuple[float, float] = (0.0, 1.0)) -> DensitySpec:
    if mass < 0:
        raise ValidationError("mass must be nonnegative")
    a, b = float(support[0]), float(support[1])
    if not 0.0 <= a < b <= 1.0:
        raise ValidationError("support must be a nondegenerate subinterval of [0,1]")
    if mass == 0.0:
        return zero_density()
    return DensitySpec("arcsine", float(mass), (a, b), (-0.5, -0.5))


def uniform_density(mass: float = 1.0, support: tuple[float, float] = (0.0, 1.0)) -> DensitySpec:
    if mass < 0:
        raise ValidationError("mass must be nonnegative")
    a, b = float(support[0]), float(support[1])
    if not 0.0 <= a < b <= 1.0:
        raise ValidationError("support must be a nondegenerate subinterval of [0,1]")
    if mass == 0.0:
        return zero_density()
    return DensitySpec("uniform", float(mass), (a, b), (0.0, 0.0))


def free_pair_support(alpha: float, beta: float) -> tuple[float, float]:
    """Support endpoints of the spectral density of a free pair of projections.

    Endpoints within rounding distance of 0 or 1 are snapped exactly,
    which happens precisely when alpha = beta (left end) or
    alpha + beta = 1 (right end).
    """
    s = alpha + beta - 2.0 * alpha * beta
    d = 2.0 * np.sqrt(alpha * beta * (1.0 - alpha) * (1.0 - beta))
    lo = max(s - d, 0.0)
    hi = min(s + d, 1.0)
    if lo < _EDGE_TOL:
        lo = 0.0
    if hi > 1.0 - _EDGE_TOL:
        hi = 1.0
    return lo, hi


def free_pair_density(alpha: float, beta: float) -> DensitySpec:
    """Density sqrt((r+ - x)(x - r-)) / (pi x (1-x)) of a free pair."""
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise ValidationError("free-pair density needs alpha and beta strictly inside (0,1)")
    lo, hi = free_pair_support(alpha, beta)
    rho = min(alpha, beta, 1.0 - alpha, 1.0 - beta)
    left = -0.5 if lo == 0.0 else 0.5
    right = -0.5 if hi == 1.0 else 0.5
    return DensitySpec(
        "free_pair", 2.0 * rho, (lo, hi), (left, right), alpha=float(alpha), beta=float(beta)
    )


def table_density(
    nodes: np.ndarray,
    values: np.ndarray,
    edge_exponents: tuple[float, float] = (0.0, 0.0),
    mass: float | None = None,
) -> DensitySpec:
    """Tabulated density: monotone-cubic between nodes, power-law beyond.

    The samples are interpreted as density values.  Between the first
    and last node the density is the shape-preserving piecewise cubic
    through the samples; on (0, nodes[0]) and (nodes[-1], 1) it is
    extended by f(x) = f(x0) * (x/x0)^a and f(x) = f(xL) * ((1-x)/(1-xL))^b
    with the declared edge exponents.  When a target mass is supplied it
    must match the quadrature mass to 1e-6 and the values are rescaled
    to make the match exact; otherwise the quadrature mass is kept.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if nodes.ndim != 1 or nodes.shape != values.shape or nodes.size < 2:
        raise ValidationError("table needs matching node and value arrays with at least 2 entries")
    if nodes[0] <= 0.0 or nodes[-1] >= 1.0:
        raise ValidationError("table nodes must lie strictly inside (0,1)")
    if np.any(np.diff(nodes) <= 0.0):
        raise ValidationError("table nodes must be strictly increasing")
    if np.any(values < 0.0):
        raise ValidationError("table values must be nonnegative")
    a, b = float(edge_exponents[0]), float(edge_exponents[1])
    if a <= -1.0 or b <= -1.0:
        raise ValidationError("edge exponents must exceed -1 for an integrable density")
    spec = DensitySpec("table", 1.0, (0.0, 1.0), (a, b), nodes=nodes, values=values)
    quad_mass = _table_exact_mass(nodes, values, a, b)
    if mass is None:
        return replace(spec, mass=float(quad_mass))
    mass = float(mass)
    if abs(quad_mass - mass) > 1e-6 * max(1.0, abs(mass)):
        raise ValidationError(
            f"declared mass {mass} differs from quadrature mass {quad_mass} by more than 1e-6"
        )
    if quad_mass > 0.0:
        spec = replace(spec, values=values * (mass / quad_mass), mass=mass)
    else:
        spec = replace(spec, mass=0.0)
    return spec


def cheb_density(
    gvalues: np.ndarray,
    support: tuple[float, float] = (0.0, 1.0),
    edge_exponents: tuple[float, float] = (-0.5, -0.5),
) -> DensitySpec:
    """Density g(x)/sqrt((x-a)(b-x)) with g sampled at the window's nodes.

    gvalues holds g at the Gauss-Chebyshev nodes of the support window
    in increasing-x order; the mass is the exact angle-variable
    quadrature (pi/m) * sum(g).
    """
    gvalues = np.asarray(gvalues, dtype=float)
    if gvalues.ndim != 1 or gvalues.size < 2:
        raise ValidationError("need a 1-d array of window profile samples")
    a, b = float(support[0]), float(support[1])
    if not 0.0 <= a < b <= 1.0:
        raise ValidationError("support must be a nondegenerate subinterval of [0,1]")
    mass = float(np.pi / gvalues.size * np.sum(gvalues))
    return DensitySpec("cheb", mass, (a, b), edge_exponents, values=gvalues)


# ---------------------------------------------------------------------------
# window helpers


def _window(d: DensitySpec) -> tuple[float, float, float, float]:
    a, b = d.support
    return a, b, 0.5 * (a + b), 0.5 * (b - a)


def _theta_nodes(d: DensitySpec, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Angles and the corresponding window abscissas (decreasing in x)."""
    _, _, center, half = _window(d)
    theta = gc_angles(m)
    return theta, center + half * np.cos(theta)


def _g_callable(d: DensitySpec) -> Callable[[np.ndarray], np.ndarray]:
    """The smooth window profile g with f = g/sqrt((x-a)(b-x))."""
    a, b, center, half = _window(d)
    if d.kind == "arcsine":
        c = d.mass / np.pi
        return lambda x: np.full_like(np.asarray(x, dtype=float), c)
    if d.kind == "free_pair":
        lo, hi = a, b
        if lo == 0.0 and hi == 1.0:
            return lambda x: np.full_like(np.asarray(x, dtype=float), 1.0 / np.pi)
        if lo == 0.0:
            return lambda x: (hi - x) / (np.pi * (1.0 - x))
        if hi == 1.0:
            return lambda x: (x - lo) / (np.pi * x)
        return lambda x: (x - lo) * (hi - x) / (np.pi * x * (1.0 - x))
    if d.kind == "cheb":
        coeffs = coeffs_from_values(d.values[::-1])
        return lambda x: chebval((np.asarray(x, dtype=float) - center) / half, coeffs)
    raise ValidationError(f"density kind {d.kind!r} has no window profile")


def _window_g(d: DensitySpec, m: int) -> np.ndarray:
    """Window profile g at the m Gauss-Chebyshev nodes, in angle order."""
    if d.kind == "cheb" and d.values.size == m:
        return d.values[::-1]
    _, x_theta = _theta_nodes(d, m)
    return _g_callable(d)(x_theta)


def _smooth_callable(d: DensitySpec) -> Callable[[np.ndarray], np.ndarray]:
    a, b, _, _ = _window(d)
    if d.kind == "uniform":
        h = d.mass / (b - a)

        def f(x):
            x = np.asarray(x, dtype=float)
            return np.where((x >= a) & (x <= b), h, 0.0)

        return f
    if d.kind == "table":
        interp = PchipInterpolator(d.nodes, d.values, extrapolate=False)
        x0, xl = d.nodes[0], d.nodes[-1]
        f0, fl = d.values[0], d.values[-1]
        ea, eb = d.edge_exponents

        def f(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            mid = (x >= x0) & (x <= xl)
            out[mid] = interp(x[mid])
            lo = (x > 0.0) & (x < x0)
            if f0 > 0.0:
                out[lo] = f0 * (x[lo] / x0) ** ea
            hi = (x > xl) & (x < 1.0)
            if fl > 0.0:
                out[hi] = fl * ((1.0 - x[hi]) / (1.0 - xl)) ** eb
            return out

        return f
    raise ValidationError(f"density kind {d.kind!r} is not a smooth-family kind")


def _smooth_derivative(d: DensitySpec) -> Callable[[np.ndarray], np.ndarray]:
    if d.kind == "uniform":
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    interp = PchipInterpolator(d.nodes, d.values, extrapolate=False).derivative()
    x0, xl = d.nodes[0], d.nodes[-1]
    f0, fl = d.values[0], d.values[-1]
    ea, eb = d.edge_exponents

    def fp(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        mid = (x >= x0) & (x <= xl)
        out[mid] = interp(x[mid])
        lo = (x > 0.0) & (x < x0)
        if f0 > 0.0:
            out[lo] = f0 * ea / x0 * (x[lo] / x0) ** (ea - 1.0)
        hi = (x > xl) & (x < 1.0)
        if fl > 0.0:
            out[hi] = -fl * eb / (1.0 - xl) * ((1.0 - x[hi]) / (1.0 - xl)) ** (eb - 1.0)
        return out

    return fp


# ---------------------------------------------------------------------------
# evaluation and quadrature


def density_values(d: DensitySpec, x: np.ndarray) -> np.ndarray:
    """Evaluate the density pointwise (zero outside the support window)."""
    x = np.asarray(x, dtype=float)
    if d.kind == "zero":
        return np.zeros_like(x)
    a, b, _, _ = _window(d)
    if d.kind in _SMOOTH_KINDS:
        return _smooth_callable(d)(x)
    inside = (x > a) & (x < b)
    out = np.zeros_like(x)
    if np.any(inside):
        xi = x[inside]
        out[inside] = _g_callable(d)(xi) / np.sqrt((xi - a) * (b - xi))
    return out


def _table_exact_mass(nodes: np.ndarray, values: np.ndarray, a: float, b: float) -> float:
    """Exact integral of a table density: cubic inside, power tails outside.

    The interior part is piecewise cubic, so its antiderivative is exact;
    the tails f(x0)*(x/x0)^a and f(xL)*((1-x)/(1-xL))^b integrate in
    closed form.
    """
    interp = PchipInterpolator(nodes, values, extrapolate=False)
    anti = interp.antiderivative()
    total = float(anti(nodes[-1]) - anti(nodes[0]))
    if values[0] > 0.0:
        total += values[0] * nodes[0] / (a + 1.0)
    if values[-1] > 0.0:
        total += values[-1] * (1.0 - nodes[-1]) / (b + 1.0)
    return total


def _moment_count(d: DensitySpec, m: int) -> int:
    if d.kind in _SQRT_KINDS:
        return m
    return min(16384, max(4096, 2 * m))


def density_moments(d: DensitySpec, m: int) -> np.ndarray:
    """Chebyshev moments c_k = integral of T_k((x-c)/e) d(nu), k < m."""
    if d.kind == "zero":
        return np.zeros(m)
    if d.kind in _SQRT_KINDS:
        return moments_from_masses(np.pi / m * _window_g(d, m))
    if d.kind == "uniform":
        k = np.arange(m)
        out = np.zeros(m)
        even = k % 2 == 0
        out[even] = d.mass / (1.0 - k[even].astype(float) ** 2)
        return out
    _, _, _, half = _window(d)
    theta, x_theta = _theta_nodes(d, m)
    masses = np.pi / m * _smooth_callable(d)(x_theta) * half * np.sin(theta)
    return moments_from_masses(masses)


def density_log_energy(d: DensitySpec, m: int) -> float:
    """The double integral of log|x-y| against the density in both slots."""
    if d.kind == "zero" or d.mass == 0.0:
        return 0.0
    _, _, _, half = _window(d)
    c = density_moments(d, _moment_count(d, m))
    k = np.arange(1, c.size)
    return float(d.mass * d.mass * (np.log(half) - _LOG2) - 2.0 * np.sum(c[1:] ** 2 / k))


def density_log_moments(d: DensitySpec, m: int) -> tuple[float, float]:
    """Integrals of log x and log(1-x) against the density."""
    if d.kind == "zero" or d.mass == 0.0:
        return 0.0, 0.0
    a, b, _, half = _window(d)
    if d.kind in _SQRT_KINDS:
        g = _window_g(d, m)
        c = moments_from_masses(np.pi / m * g)
        k = np.arange(1, c.size)
        base = d.mass * (np.log(half) - _LOG2)
        theta, x_theta = _theta_nodes(d, m)
        if a == 0.0:
            log_x = base + 2.0 * np.sum((-1.0) ** (k + 1) * c[1:] / k)
        else:
            log_x = float(np.pi / m * np.dot(g, np.log(x_theta)))
        if b == 1.0:
            log_1mx = base - 2.0 * np.sum(c[1:] / k)
        else:
            log_1mx = float(np.pi / m * np.dot(g, np.log1p(-x_theta)))
        return float(log_x), float(log_1mx)
    x, w = graded_legendre(m, *d.support)
    fw = _smooth_callable(d)(x) * w
    return float(np.dot(fw, np.log(x))), float(np.dot(fw, np.log1p(-x)))


def density_integrate(d: DensitySpec, fn: Callable[[np.ndarray], np.ndarray], m: int) -> float:
    """Integral of a smooth function against the density."""
    if d.kind == "zero" or d.mass == 0.0:
        return 0.0
    if d.kind in _SQRT_KINDS:
        _, x_theta = _theta_nodes(d, m)
        return float(np.pi / m * np.dot(_window_g(d, m), np.asarray(fn(x_theta), dtype=float)))
    x, w = graded_legendre(m, *d.support)
    return float(np.dot(w * _smooth_callable(d)(x), np.asarray(fn(x), dtype=float)))


def density_weighted_p_norm(d: DensitySpec, p: float, m: int) -> float:
    """(integral of |f|^p x(1-x) dx)^(1/p); +inf when the integral diverges.

    Divergence is decided by edge-exponent arithmetic: with f ~ dist^s
    at a support edge and the weight x(1-x) contributing dist^t there
    (t = 1 at the ends of (0,1), t = 0 at an interior edge), the
    integral converges exactly when p*s + t > -1.
    """
    if d.kind == "zero" or d.mass == 0.0:
        return 0.0
    a, b, _, half = _window(d)
    s_left, s_right = d.edge_exponents
    t_left = 1.0 if a == 0.0 else 0.0
    t_right = 1.0 if b == 1.0 else 0.0
    if p * s_left + t_left <= -1.0 or p * s_right + t_right <= -1.0:
        return float("inf")
    if d.kind in _SQRT_KINDS:
        theta, x_theta = _theta_nodes(d, m)
        g = _window_g(d, m)
        integrand = (
            np.abs(g) ** p * (half * np.sin(theta)) ** (1.0 - p) * x_theta * (1.0 - x_theta)
        )
        return float((np.pi / m * np.sum(integrand)) ** (1.0 / p))
    x, w = graded_legendre(m, *d.support)
    f = _smooth_callable(d)(x)
    return float(np.dot(w, np.abs(f) ** p * x * (1.0 - x)) ** (1.0 / p))


# ---------------------------------------------------------------------------
# transport data: nodes, weights and the finite Hilbert transform


@dataclass(frozen=True)
class TransportData:
    """Evaluation nodes on the support window with matched weights.

    x are increasing nodes, w_dx the dx-quadrature weights at the nodes,
    w_dnu the nu-quadrature weights (so sum(w_dnu * F(x)) approximates
    the integral of F against the density), and hf the finite Hilbert
    transform pv integral of f(t)/(x-t) dt at the nodes.
    """

    x: np.ndarray
    w_dx: np.ndarray
    w_dnu: np.ndarray
    hf: np.ndarray


def density_transport(d: DensitySpec, m: int) -> TransportData:
    """Nodes, weights and the finite Hilbert transform Hf(x) = pv integral f(t)/(x-t) dt.

    Square-root-window densities go through the sine series of their
    window profile.  Smooth densities use singularity subtraction on the
    graded Gauss-Legendre nodes x_i (weights w_j) of the window [a,b]:

        Hf(x) = integral (f(t) - f(x))/(x - t) dt + f(x) log((x-a)/(b-x)),

    where the second term is the exact principal value of the constant
    f(x).  The remaining integrand is bounded, and the quadrature sum
    over j != i drops the diagonal node, where the integrand tends to
    -f'(x_i); the correction -w_i f'(x_i) puts it back.  The sum costs
    O(n^2) time for n nodes and is taken a few rows at a time in two
    reused (rows, n) buffers, so it needs O(rows * n) memory with rows
    chosen to keep each buffer near _BLOCK_ENTRIES entries.
    """
    if d.kind == "zero" or d.mass == 0.0:
        empty = np.zeros(0)
        return TransportData(empty, empty, empty, empty)
    a, b, _, half = _window(d)
    if d.kind in _SQRT_KINDS:
        theta, x_theta = _theta_nodes(d, m)
        g = _window_g(d, m)
        coeffs = coeffs_from_values(g)
        hf = -(np.pi / half) * sine_series_at_angles(coeffs[1:], m) / np.sin(theta)
        w_dx = np.pi / m * half * np.sin(theta)
        w_dnu = np.pi / m * g
        return TransportData(
            x_theta[::-1].copy(), w_dx[::-1].copy(), w_dnu[::-1].copy(), hf[::-1].copy()
        )
    x, w = graded_legendre(m, *d.support)
    f = _smooth_callable(d)(x)
    fp = _smooth_derivative(d)(x)
    hf = f * np.log((x - a) / (b - x)) - w * fp
    n = x.size
    rows = max(1, min(n, _BLOCK_ENTRIES // n))
    diff_buf = np.empty((rows, n))
    quot_buf = np.empty((rows, n))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        diff = diff_buf[: stop - start]
        quot = quot_buf[: stop - start]
        np.subtract(x[start:stop, None], x, out=diff)
        np.subtract(f, f[start:stop, None], out=quot)
        # the diagonal entries x_i - x_i; their numerators are exactly 0
        diff.reshape(-1)[start :: n + 1] = 1.0
        np.divide(quot, diff, out=quot)
        hf[start:stop] += quot @ w
    return TransportData(x, w, w * f, hf)


# ---------------------------------------------------------------------------
# distribution functions


def _cdf_table(d: DensitySpec, m: int = 8192) -> tuple[np.ndarray, np.ndarray]:
    """Interior nodes with midpoint-cumulative masses, in increasing x."""
    if d.kind in _SQRT_KINDS:
        _, x_theta = _theta_nodes(d, m)
        masses = np.pi / m * _window_g(d, m)
        x = x_theta[::-1]
        mass = masses[::-1]
    else:
        x, w = graded_legendre(m, *d.support)
        mass = w * _smooth_callable(d)(x)
    cum = np.cumsum(mass)
    return x, cum - 0.5 * mass


def density_cdf(d: DensitySpec, x: np.ndarray, m: int = 8192) -> np.ndarray:
    """Distribution function of the density at the given points."""
    x = np.asarray(x, dtype=float)
    if d.kind == "zero" or d.mass == 0.0:
        return np.zeros_like(x)
    a, b, _, _ = _window(d)
    if d.kind == "arcsine":
        u = np.clip((x - a) / (b - a), 0.0, 1.0)
        return d.mass * (2.0 / np.pi) * np.arcsin(np.sqrt(u))
    if d.kind == "uniform":
        return d.mass * np.clip((x - a) / (b - a), 0.0, 1.0)
    nodes, cum = _cdf_table(d, m)
    return np.interp(x, nodes, cum, left=0.0, right=d.mass)


def density_quantiles(d: DensitySpec, levels: np.ndarray, m: int = 8192) -> np.ndarray:
    """Points x with nu((0,x]) equal to the requested mass levels."""
    levels = np.asarray(levels, dtype=float)
    if d.kind == "zero" or d.mass == 0.0:
        raise ValidationError("the zero density has no quantiles")
    if np.any(levels < 0.0) or np.any(levels > d.mass):
        raise ValidationError("quantile levels must lie in [0, mass]")
    a, b, _, _ = _window(d)
    if d.kind == "arcsine":
        return a + (b - a) * np.sin(0.5 * np.pi * levels / d.mass) ** 2
    if d.kind == "uniform":
        return a + (b - a) * levels / d.mass
    nodes, cum = _cdf_table(d, m)
    return np.interp(levels, cum, nodes)


def w1_empirical_to_density(xs: np.ndarray, d: DensitySpec, resolution: int = 20001) -> float:
    """1-Wasserstein distance between an empirical sample and the density.

    The density is normalized to a probability measure; the distance is
    the integral over (0,1) of the absolute difference of distribution
    functions.
    """
    xs = np.sort(np.asarray(xs, dtype=float))
    if d.mass <= 0.0:
        raise ValidationError("need a density with positive mass")
    t = np.linspace(0.0, 1.0, resolution)
    fd = density_cdf(d, t) / d.mass
    fe = np.searchsorted(xs, t, side="right") / xs.size
    return float(np.trapezoid(np.abs(fe - fd), t))
