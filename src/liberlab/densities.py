"""Densities on (0,1) and the quadrature identities built on them.

A DensitySpec describes the absolutely continuous part of a law on
(0,1).  Two families are supported, and _rule is the one place where a
family picks its quadrature rule: the nodes and weights that every
integral against the density, the transport and the distribution
function read (the Chebyshev moments keep the angle rule of their DCT).

* square-root-window densities (kinds "arcsine", "free_pair", "cheb"):
  f(x) = g(x) / sqrt((x-a)(b-x)) on a window [a,b] with g smooth.  The
  rule is Gauss-Chebyshev in the angle variable x = c + e*cos(theta),
  where the substitution absorbs the edge singularity and turns the
  logarithmic kernel, the finite Hilbert transform, and the endpoint
  log-moments into short Chebyshev coefficient sums:

      log|u - v|   = -log 2 - 2 sum_m T_m(u) T_m(v) / m,
      pv integral of T_m(v) / ((u-v) sqrt(1-v^2)) dv = -pi U_{m-1}(u),
      log(1 + u)   = -log 2 + 2 sum_m (-1)^(m+1) T_m(u) / m,
      log(1 - u)   = -log 2 - 2 sum_m T_m(u) / m.

  These are exact for band-limited g, so the free-pair and arcsine
  cases are computed to rounding error rather than quadrature error.

* smooth densities (kinds "uniform", "table"): bounded profiles whose
  rule is composite Gauss-Legendre, graded toward the window ends.  The
  Hilbert transform uses singularity subtraction with the exact
  principal value of the constant term, and the log-kernel energy goes
  through the same Chebyshev moment series as above (moments taken by
  quadrature).

The degenerate kind "zero" represents a vanishing measure; every
functional returns its trivial value for it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
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
from .loggas import difference_factors

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
    "log_energy_moments",
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
# Entries in the one strip buffer of density_transport's kernel sum:
# 2**17 doubles make 1 MB, which stays in a 2 MB L2 cache.  That gives
# strips of 123 rows at 1064 nodes (grid 1024) and 31 rows at 4104
# (grid 4096); one-BLAS-thread timings on a 2-vCPU Xeon were flat over
# 64-123 rows at 1064 nodes and 24-56 rows at 4104.
_BLOCK_ENTRIES = 2**17
_CDF_NODES = 8192  # quadrature nodes of the distribution-function table
_W1_POINTS = 20001  # evaluation points of w1_empirical_to_density


@dataclass(frozen=True)
class DensitySpec:
    """Immutable description of a density on (0,1).

    mass is the total integral, support the closure of {f > 0}, and
    edge_exponents the power behavior of f at the two support ends
    (f ~ dist^a at the left end, ~ dist^b at the right end).  nodes and
    values carry the table samples for kind "table" and the smooth
    window profile g for kind "cheb".
    """

    kind: str
    mass: float
    support: tuple[float, float]
    edge_exponents: tuple[float, float]
    nodes: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("nodes", "values"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)

    @cached_property
    def _pchip(self) -> PchipInterpolator:
        """The monotone cubic through a table's samples, built on first use."""
        return PchipInterpolator(self.nodes, self.values, extrapolate=False)


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
    return DensitySpec("free_pair", 2.0 * rho, (lo, hi), (left, right))


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
    quad_mass = _table_exact_mass(spec)
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


def _smooth_callable(d: DensitySpec, derivative: bool = False) -> Callable[[np.ndarray], np.ndarray]:
    """The profile f of a smooth-family density, or its derivative f'."""
    a, b, _, _ = _window(d)
    if d.kind == "uniform":
        h = 0.0 if derivative else d.mass / (b - a)

        def f(x):
            x = np.asarray(x, dtype=float)
            return np.where((x >= a) & (x <= b), h, 0.0)

        return f
    if d.kind == "table":
        x0, xl = d.nodes[0], d.nodes[-1]
        f0, fl = d.values[0], d.values[-1]
        ea, eb = d.edge_exponents
        # each tail is c * u**e with u = x/x0 on the left, (1-x)/(1-xl) on the right
        if derivative:
            interp = d._pchip.derivative()
            cl, el, cr, er = f0 * ea / x0, ea - 1.0, -fl * eb / (1.0 - xl), eb - 1.0
        else:
            interp = d._pchip
            cl, el, cr, er = f0, ea, fl, eb

        def f(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            mid = (x >= x0) & (x <= xl)
            out[mid] = interp(x[mid])
            lo = (x > 0.0) & (x < x0)
            if f0 > 0.0:
                out[lo] = cl * (x[lo] / x0) ** el
            hi = (x > xl) & (x < 1.0)
            if fl > 0.0:
                out[hi] = cr * ((1.0 - x[hi]) / (1.0 - xl)) ** er
            return out

        return f
    raise ValidationError(f"density kind {d.kind!r} is not a smooth-family kind")


def _rule(d: DensitySpec, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Increasing nodes x with the weights w_dx of dx and w_dnu of d(nu) = f dx.

    Square-root windows take the m Gauss-Chebyshev angles, where
    x = c + e cos(theta) turns f dx into g dtheta: w_dnu = (pi/m) g and
    w_dx = (pi/m) e sin(theta).  Smooth densities take graded_legendre
    on their window, with w_dnu = w_dx f.
    """
    if d.kind in _SQRT_KINDS:
        _, _, _, half = _window(d)
        theta, x_theta = _theta_nodes(d, m)
        w_dx = np.pi / m * half * np.sin(theta)
        w_dnu = np.pi / m * _window_g(d, m)
        return x_theta[::-1].copy(), w_dx[::-1].copy(), w_dnu[::-1].copy()
    x, w = graded_legendre(m, *d.support)
    return x, w, w * _smooth_callable(d)(x)


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


def _table_exact_mass(d: DensitySpec) -> float:
    """Exact integral of a table density: cubic inside, power tails outside.

    The interior part is piecewise cubic, so its antiderivative is exact;
    the tails f(x0)*(x/x0)^a and f(xL)*((1-x)/(1-xL))^b integrate in
    closed form.
    """
    nodes, values = d.nodes, d.values
    a, b = d.edge_exponents
    anti = d._pchip.antiderivative()
    total = float(anti(nodes[-1]) - anti(nodes[0]))
    if values[0] > 0.0:
        total += values[0] * nodes[0] / (a + 1.0)
    if values[-1] > 0.0:
        total += values[-1] * (1.0 - nodes[-1]) / (b + 1.0)
    return total


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


def log_energy_moments(d: DensitySpec, m: int) -> int:
    """How many Chebyshev moments density_log_energy sums for d at resolution m.

    A square-root window's moments are exact at m; a smooth profile's
    take min(16384, max(4096, 2m)).  0 when there is no density.
    """
    if d.kind == "zero" or d.mass == 0.0:
        return 0
    return m if d.kind in _SQRT_KINDS else min(16384, max(4096, 2 * m))


def density_log_energy(d: DensitySpec, m: int) -> float:
    """The double integral of log|x-y| against the density in both slots."""
    if d.kind == "zero" or d.mass == 0.0:
        return 0.0
    _, _, _, half = _window(d)
    c = density_moments(d, log_energy_moments(d, m))
    k = np.arange(1, c.size)
    return float(d.mass * d.mass * (np.log(half) - _LOG2) - 2.0 * np.sum(c[1:] ** 2 / k))


def density_log_moments(d: DensitySpec, m: int) -> tuple[float, float]:
    """Integrals of log x and log(1-x) against the density."""
    if d.kind == "zero" or d.mass == 0.0:
        return 0.0, 0.0
    a, b, _, half = _window(d)
    x, _, w_dnu = _rule(d, m)
    log_x = float(np.dot(w_dnu, np.log(x)))
    log_1mx = float(np.dot(w_dnu, np.log1p(-x)))
    if d.kind in _SQRT_KINDS and (a == 0.0 or b == 1.0):
        # the log singularity meets a square-root edge: sum its Chebyshev series
        c = moments_from_masses(w_dnu[::-1])
        k = np.arange(1, c.size)
        base = d.mass * (np.log(half) - _LOG2)
        if a == 0.0:
            log_x = float(base + 2.0 * np.sum((-1.0) ** (k + 1) * c[1:] / k))
        if b == 1.0:
            log_1mx = float(base - 2.0 * np.sum(c[1:] / k))
    return log_x, log_1mx


def density_integrate(d: DensitySpec, fn: Callable[[np.ndarray], np.ndarray], m: int) -> float:
    """Integral of a smooth function against the density."""
    if d.kind == "zero" or d.mass == 0.0:
        return 0.0
    x, _, w_dnu = _rule(d, m)
    return float(np.dot(w_dnu, np.asarray(fn(x), dtype=float)))


def density_weighted_p_norm(d: DensitySpec, p: float, m: int) -> float:
    """(integral of |f|^p x(1-x) dx)^(1/p); +inf when the integral diverges.

    Divergence is decided by edge-exponent arithmetic: with f ~ dist^s
    at a support edge and the weight x(1-x) contributing dist^t there
    (t = 1 at the ends of (0,1), t = 0 at an interior edge), the
    integral converges exactly when p*s + t > -1.
    """
    if d.kind == "zero" or d.mass == 0.0:
        return 0.0
    a, b, _, _ = _window(d)
    s_left, s_right = d.edge_exponents
    t_left = 1.0 if a == 0.0 else 0.0
    t_right = 1.0 if b == 1.0 else 0.0
    if p * s_left + t_left <= -1.0 or p * s_right + t_right <= -1.0:
        return float("inf")
    x, w_dx, w_dnu = _rule(d, m)
    return float(np.dot(w_dx, np.abs(w_dnu / w_dx) ** p * x * (1.0 - x)) ** (1.0 / p))


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
    -f'(x_i); the correction -w_i f'(x_i) puts it back.  The sum is taken
    in its split form

        sum_{j != i} R_ij w_j f_j - f_i sum_{j != i} R_ij w_j,  R_ij = 1/(x_i - x_j),

    and R is antisymmetric, so each strip of rows forms R only against
    the columns from its first row on, at one difference and one
    reciprocal per stored entry, about n^2/2 entries for n nodes.  A
    strip's differences are one BLAS product of slices of the factors
    from loggas.difference_factors, bit for bit the broadcast
    subtraction (see loggas.differences).  Each strip is applied as one
    two-column product with [w f, w] to its own rows and, transposed
    and negated, to the rows below it.  All strips reuse one buffer of
    about _BLOCK_ENTRIES entries (at least one row), so the memory
    beyond it is O(n).  A uniform density is constant on its window, so
    its sum vanishes identically and is skipped.
    """
    if d.kind == "zero" or d.mass == 0.0:
        empty = np.zeros(0)
        return TransportData(empty, empty, empty, empty)
    a, b, _, half = _window(d)
    x, w_dx, w_dnu = _rule(d, m)
    if d.kind in _SQRT_KINDS:
        coeffs = coeffs_from_values(_window_g(d, m))
        hf = -(np.pi / half) * sine_series_at_angles(coeffs[1:], m) / np.sin(gc_angles(m))
        return TransportData(x, w_dx, w_dnu, hf[::-1].copy())
    f = _smooth_callable(d)(x)
    hf = f * np.log((x - a) / (b - x)) - w_dx * _smooth_callable(d, derivative=True)(x)
    if d.kind == "uniform":
        # f is constant on the window, so the sum vanishes identically
        return TransportData(x, w_dx, w_dnu, hf)
    n = x.size
    rows = max(1, min(n, _BLOCK_ENTRIES // n))
    wv = np.column_stack((w_dnu, w_dx))
    acc = np.zeros((n, 2))
    buf = np.empty(rows * n)
    left, right = difference_factors(x, x)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        # R_ij = 1/(x_i - x_j) for the strip's rows and the columns j >= start
        r = buf[: (stop - start) * (n - start)].reshape(stop - start, n - start)
        np.matmul(left[start:stop], right[:, start:], out=r)
        r.reshape(-1)[:: n - start + 1] = np.inf  # R_ii = 1/inf = 0
        np.reciprocal(r, out=r)
        acc[start:stop] += r @ wv[start:]
        # R_ji = -R_ij gives the rows below the strip their columns in it
        acc[stop:] -= r[:, stop - start :].T @ wv[start:stop]
    hf += acc[:, 0] - f * acc[:, 1]
    return TransportData(x, w_dx, w_dnu, hf)


# ---------------------------------------------------------------------------
# distribution functions


def _cdf_table(d: DensitySpec) -> tuple[np.ndarray, np.ndarray]:
    """Interior nodes with midpoint-cumulative masses, in increasing x."""
    x, _, mass = _rule(d, _CDF_NODES)
    cum = np.cumsum(mass)
    return x, cum - 0.5 * mass


def density_cdf(d: DensitySpec, x: np.ndarray) -> np.ndarray:
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
    nodes, cum = _cdf_table(d)
    return np.interp(x, nodes, cum, left=0.0, right=d.mass)


def density_quantiles(d: DensitySpec, levels: np.ndarray) -> np.ndarray:
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
    nodes, cum = _cdf_table(d)
    return np.interp(levels, cum, nodes)


def w1_empirical_to_density(xs: np.ndarray, d: DensitySpec) -> float:
    """1-Wasserstein distance between an empirical sample and the density.

    The density is normalized to a probability measure; the distance is
    the integral over (0,1) of the absolute difference of distribution
    functions.
    """
    xs = np.sort(np.asarray(xs, dtype=float))
    if d.mass <= 0.0:
        raise ValidationError("need a density with positive mass")
    t = np.linspace(0.0, 1.0, _W1_POINTS)
    fd = density_cdf(d, t) / d.mass
    fe = np.searchsorted(xs, t, side="right") / xs.size
    return float(np.trapezoid(np.abs(fe - fd), t))
