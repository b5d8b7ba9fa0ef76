"""Principal-value Hilbert transform and free Fisher functionals.

The central object is the drift

    phi(x) = (Hf)(x) + A/x - B/(1-x),

where f is the continuous part of a two-projection spectral law, A is
the coefficient of the 1/x singularity (atoms a01 + a10) and B the
coefficient at the other end (a00 + a11).  Its squared norm against
x(1-x) dnu is the mutual Fisher information phi_star; shifting the
drift by the derivative of a smooth tilt gives the relative version.
Both pair with the entropy module through the log-Sobolev reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densities import DensitySpec, TransportData, density_transport
# relative_sigma_h stays importable from here, where perfbench/tracing.py
# times it; check_lsi reuses its own chi through relative_sigma_solve instead.
from .entropy import chi_proj, relative_sigma_h, relative_sigma_solve  # noqa: F401
from .errors import ValidationError
from .grids import DEFAULT_GRID
from .laws import ProjectionPairLaw, check_integrability, weighted_norm
from .potentials import PotentialSpec

__all__ = [
    "GridFunction",
    "FisherReport",
    "LsiReport",
    "hilbert_transform",
    "phi_star",
    "relative_phi_h",
    "check_lsi",
    "EMPIRICAL_C1",
    "EMPIRICAL_C2",
]

# Curvature constants measured by scripts/hessian_sweep.py: the smallest
# pair with -lambda_min(Hess Psi_N)/N <= c1*sup|psi'| + c2*sup|psi''|
# over 216 finite-difference Hessians (N in {4, 6, 8}, six test
# polynomials, random ranks and base points, seed 0) came out as
# (1.878, 0.068); frozen here with a roundup to one decimal.
EMPIRICAL_C1 = 1.9
EMPIRICAL_C2 = 0.1


@dataclass(frozen=True)
class GridFunction:
    """Samples of a function at increasing interior nodes.

    weights are dx-quadrature weights at the nodes, so that
    sum(weights * values * g(nodes)) approximates the integral of the
    represented function times g over the support.
    """

    nodes: np.ndarray
    values: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class FisherReport:
    """The drift phi on quadrature nodes and its squared weighted norm.

    phi_star is +inf exactly when the law is outside generic position or
    one of the integrability preconditions fails; cause then names the
    obstruction.
    """

    phi: GridFunction
    phi_star: float
    integrability_ok: bool
    cause: str | None = None


@dataclass(frozen=True)
class LsiReport:
    """Both sides of the entropy-Fisher inequality for one law.

    margin = phi_star + chi is the amount by which the plain inequality
    holds (nonnegative when it does).  When a tilt h is supplied the
    relative fields are populated: sigma_h and phi_h are the relative
    entropy and relative Fisher information, factor is the constant
    1/(1 - c1*|dh|_inf - c2*|d2h|_inf), and relative_margin is
    factor*phi_h - sigma_h.  equilibrium_converged, equilibrium_iterations
    and equilibrium_flatness are the converged flag, active-set rounds and
    final flatness of the h-tilted equilibrium solve behind sigma_h (None
    when it did not run).  vacuous flags laws whose entropy is -inf, for which
    the plain inequality carries no content.  nodes is the number of
    quadrature nodes the drift was evaluated on, which can exceed the
    requested grid (0 when phi_star is +inf).
    """

    chi: float
    phi_star: float
    margin: float
    vacuous: bool
    nodes: int = 0
    sigma_h: float | None = None
    phi_h: float | None = None
    c1: float | None = None
    c2: float | None = None
    norm_h: float | None = None
    norm_dh: float | None = None
    norm_d2h: float | None = None
    factor: float | None = None
    relative_margin: float | None = None
    smallness_ok: bool | None = None
    equilibrium_converged: bool | None = None
    equilibrium_iterations: int | None = None
    equilibrium_flatness: float | None = None


def hilbert_transform(
    f: DensitySpec, grid: int = DEFAULT_GRID
) -> GridFunction:
    """Principal-value transform Hf(x) = pv integral f(t)/(x-t) dt.

    The value at interior nodes of the support is computed by
    singularity subtraction against the exact transform of the constant:
    Hf(x) = integral (f(t)-f(x))/(x-t) dt + f(x) log((x-a)/(b-x)) on a
    support [a, b].  Square-root edge densities go through their cosine
    expansion instead, which turns the transform into a sine series.

    The density must be cube integrable against x(1-x) dx; that is the
    norm in which the discretized transform converges under refinement.
    """
    if f.kind != "zero" and f.mass > 0.0 and not math.isfinite(weighted_norm(f, 3, grid)):
        raise ValidationError(
            "the density is not cube integrable against the weight x(1-x)"
        )
    td = density_transport(f, grid)
    return GridFunction(td.x, td.hf, td.w_dx)


def _transport(law: ProjectionPairLaw, m: int) -> tuple[TransportData | None, str | None]:
    """The density's transport data, or None and the reason phi is +inf."""
    if not law.generic:
        return None, "the atom pattern is not in generic position"
    report = check_integrability(law, m)
    if not report.passed:
        if not report.singular_moment_finite:
            return None, "the singular moment of the density diverges"
        return None, "the density is not cube integrable against the weight x(1-x)"
    return density_transport(law.density, m), None


def _drifted_norm(
    law: ProjectionPairLaw, td: TransportData | None, shift
) -> tuple[GridFunction, float]:
    """Drift phi minus an optional shift, and its squared weighted norm.

    Without transport data (an obstruction found by _transport) the drift
    is empty and the norm +inf.
    """
    if td is None or td.x.size == 0:
        empty = np.zeros(0)
        return GridFunction(empty, empty, empty), (math.inf if td is None else 0.0)
    drift = td.hf + law.coeff_at_0 / td.x - law.coeff_at_1 / (1.0 - td.x)
    if shift is not None:
        drift = drift - shift(td.x)
    weight = td.x * (1.0 - td.x)
    value = float(np.sum(td.w_dnu * drift**2 * weight))
    return GridFunction(td.x, drift, td.w_dx), value


def _fisher_report(law: ProjectionPairLaw, td: TransportData | None, cause) -> FisherReport:
    phi, value = _drifted_norm(law, td, None)
    return FisherReport(phi, value, td is not None, cause)


def phi_star(
    law: ProjectionPairLaw, grid: int = DEFAULT_GRID
) -> FisherReport:
    """Mutual Fisher information: the weighted square norm of the drift.

    phi_star = integral of phi(x)^2 x(1-x) dnu(x), with phi the
    transform of the density plus the atomic singular terms.  The value
    is 0 exactly for free pairs (the drift vanishes identically) and
    +inf outside generic position or when an integrability precondition
    fails.
    """
    return _fisher_report(law, *_transport(law, grid))


def relative_phi_h(
    law: ProjectionPairLaw,
    h: PotentialSpec,
    grid: int = DEFAULT_GRID,
) -> float:
    """Relative Fisher information: drift shifted by the tilt derivative.

    Same integrand as phi_star with phi replaced by phi - dh, so a zero
    tilt recovers phi_star and the h-tilted maximizer makes the value
    vanish on its support.  Returns +inf under the same obstructions as
    phi_star.
    """
    td, _ = _transport(law, grid)
    return _drifted_norm(law, td, h.dvalue)[1]


def check_lsi(
    law: ProjectionPairLaw,
    h: PotentialSpec | None = None,
    c1: float = 1.0,
    c2: float = 1.0,
    grid: int = DEFAULT_GRID,
) -> LsiReport:
    """Evaluate the entropy-Fisher inequality, plain or tilted.

    Without h: reports chi, phi_star and their margin phi_star + chi,
    nonnegative whenever the inequality holds.  Laws with chi = -inf are
    flagged vacuous (the inequality is then contentless, and phi_star is
    +inf for the same laws).

    With h: additionally solves for the h-tilted maximizer to evaluate
    the relative entropy sigma_h, computes the relative Fisher
    information phi_h, and reports the comparison
    sigma_h <= phi_h / (1 - c1*|dh|_inf - c2*|d2h|_inf), which requires
    the smallness condition c1*|dh|_inf + c2*|d2h|_inf < 1.  All three
    sup norms of the tilt are included so the reader can judge how close
    the hypothesis is to its boundary.
    """
    ent = chi_proj(law, grid)
    td, cause = _transport(law, grid)
    fr = _fisher_report(law, td, cause)
    vacuous = not math.isfinite(ent.chi)
    if math.isfinite(ent.chi) and math.isfinite(fr.phi_star):
        margin = fr.phi_star + ent.chi
    else:
        margin = math.inf
    nodes = int(fr.phi.nodes.size)
    if h is None:
        return LsiReport(ent.chi, fr.phi_star, margin, vacuous, nodes)
    sigma_h, eq = relative_sigma_solve(law, h, ent.chi, grid)
    _, phi_h = _drifted_norm(law, td, h.dvalue)
    norm_h = h.sup_norm("h")
    norm_dh = h.sup_norm("dh")
    norm_d2h = h.sup_norm("d2h")
    smallness = c1 * norm_dh + c2 * norm_d2h
    smallness_ok = smallness < 1.0
    factor = 1.0 / (1.0 - smallness) if smallness_ok else math.inf
    if smallness_ok and math.isfinite(phi_h) and math.isfinite(sigma_h):
        relative_margin = factor * phi_h - sigma_h
    else:
        relative_margin = math.inf
    return LsiReport(
        ent.chi,
        fr.phi_star,
        margin,
        vacuous,
        nodes,
        sigma_h=sigma_h,
        phi_h=phi_h,
        c1=c1,
        c2=c2,
        norm_h=norm_h,
        norm_dh=norm_dh,
        norm_d2h=norm_d2h,
        factor=factor,
        relative_margin=relative_margin,
        smallness_ok=smallness_ok,
        equilibrium_converged=None if eq is None else eq.converged,
        equilibrium_iterations=None if eq is None else eq.iterations,
        equilibrium_flatness=None if eq is None else eq.flatness,
    )
