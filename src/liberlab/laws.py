"""Joint laws of two projections: the density-plus-atoms data and its checks.

A pair of projections with traces alpha and beta determines four atom
weights (the traces of the meet projections) together with a measure nu
on the open interval.  This module owns that record, the file format it
is loaded from, and the integrability checks that later modules use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# density_log_moments stays bound here, where perfbench/tracing.py times it.
from .densities import (  # noqa: F401
    DensitySpec,
    arcsine_density,
    density_integrate,
    density_log_moments,
    density_weighted_p_norm,
    free_pair_density,
    table_density,
    uniform_density,
    zero_density,
)
from .errors import ValidationError
from .grids import DEFAULT_GRID

__all__ = [
    "ProjectionPairLaw",
    "IntegrabilityReport",
    "free_pair_law",
    "generic_atoms",
    "load_law",
    "law_to_dict",
    "weighted_norm",
    "check_integrability",
]

_ATOL = 1e-9


@dataclass(frozen=True)
class ProjectionPairLaw:
    """Trace data of a projection pair: two traces, four atoms, one density.

    The atoms a11, a10, a01, a00 are the traces of the four meet
    projections (p and q, p minus both, q minus both, neither); the
    density carries the continuous spectrum on (0,1).  Consistency of
    the record is enforced at construction:

    * each atom lies in [0,1] and the density mass equals one minus the
      atom total,
    * alpha equals a10 + a11 + mass/2 and beta equals a01 + a11 + mass/2,

    and the generic-position flag is true exactly when a00*a11 and
    a01*a10 both vanish.
    """

    alpha: float
    beta: float
    a11: float
    a10: float
    a01: float
    a00: float
    density: DensitySpec

    def __post_init__(self) -> None:
        atoms = {"a11": self.a11, "a10": self.a10, "a01": self.a01, "a00": self.a00}
        for name, value in atoms.items():
            if not -1e-12 <= value <= 1.0 + 1e-12:
                raise ValidationError(f"atom {name}={value} must lie in [0,1]")
            object.__setattr__(self, name, float(max(value, 0.0)))
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not -1e-12 <= value <= 1.0 + 1e-12:
                raise ValidationError(f"trace {name}={value} must lie in [0,1]")
            object.__setattr__(self, name, float(min(max(value, 0.0), 1.0)))
        total = self.a11 + self.a10 + self.a01 + self.a00
        expected_mass = 1.0 - total
        if expected_mass < -_ATOL:
            raise ValidationError(
                f"atom total {total} exceeds 1, violating the normalization of the law"
            )
        if abs(self.density.mass - expected_mass) > _ATOL:
            raise ValidationError(
                f"density mass {self.density.mass} must equal one minus the atom total "
                f"({expected_mass}): mass normalization of the continuous part fails"
            )
        half = 0.5 * self.density.mass
        if abs(self.alpha - (self.a10 + self.a11 + half)) > _ATOL:
            raise ValidationError(
                "trace identity for alpha fails: alpha must equal a10 + a11 + mass/2"
            )
        if abs(self.beta - (self.a01 + self.a11 + half)) > _ATOL:
            raise ValidationError(
                "trace identity for beta fails: beta must equal a01 + a11 + mass/2"
            )

    @property
    def mass(self) -> float:
        """Mass of the continuous part."""
        return self.density.mass

    @property
    def rho(self) -> float:
        """min(alpha, beta, 1-alpha, 1-beta)."""
        return min(self.alpha, self.beta, 1.0 - self.alpha, 1.0 - self.beta)

    @property
    def coeff_at_0(self) -> float:
        """Coefficient a01 + a10 of the 1/x singular term."""
        return self.a01 + self.a10

    @property
    def coeff_at_1(self) -> float:
        """Coefficient a00 + a11 of the 1/(1-x) singular term."""
        return self.a00 + self.a11

    @property
    def generic(self) -> bool:
        """True when a00*a11 = a01*a10 = 0 (the generic-position atom pattern)."""
        return self.a00 * self.a11 <= 1e-12 and self.a01 * self.a10 <= 1e-12

    @property
    def atoms(self) -> dict[str, float]:
        return {"a11": self.a11, "a10": self.a10, "a01": self.a01, "a00": self.a00}


def generic_atoms(alpha: float, beta: float) -> dict[str, float]:
    """The unique generic-position atom pattern with the given traces.

    Weights below 1e-12 are snapped to exact zero: round-off dust from
    the max expressions (1 - 0.7 - 0.3 is 4e-17 in floats) would
    otherwise register as a genuine atom and trip the divergence rules
    for densities whose support touches the corresponding endpoint.
    Every weight is computed symmetrically in (alpha, beta), so that
    swapping the traces swaps a10 and a01 bit for bit.
    """
    raw = {
        "a11": max(alpha + beta - 1.0, 0.0),
        "a00": max(1.0 - (alpha + beta), 0.0),
        "a10": max(alpha - beta, 0.0),
        "a01": max(beta - alpha, 0.0),
    }
    return {name: (0.0 if value < 1e-12 else value) for name, value in raw.items()}


def free_pair_law(alpha: float, beta: float) -> ProjectionPairLaw:
    """Law of a free pair of projections with the given traces.

    Atoms follow the generic-position pattern and the density is the
    explicit square-root profile on [r-, r+].  When alpha or beta is 0
    or 1 the continuous part vanishes and the law is purely atomic.
    """
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ValidationError("traces must lie in [0,1]")
    atoms = generic_atoms(alpha, beta)
    rho = min(alpha, beta, 1.0 - alpha, 1.0 - beta)
    if rho == 0.0:
        density = zero_density()
    else:
        density = free_pair_density(alpha, beta)
    return ProjectionPairLaw(alpha, beta, density=density, **atoms)


_DENSITY_KINDS = {
    "analytic-arcsine": "arcsine",
    "arcsine": "arcsine",
    "analytic-uniform": "uniform",
    "uniform": "uniform",
    "analytic-free-pair": "free_pair",
    "free-pair": "free_pair",
    "free_pair": "free_pair",
    "table": "table",
    "zero": "zero",
}


def _density_from_dict(spec: dict, alpha: float, beta: float, default_mass: float) -> DensitySpec:
    kind_name = spec.get("kind")
    kind = _DENSITY_KINDS.get(str(kind_name))
    if kind is None:
        raise ValidationError(f"unknown density kind {kind_name!r}")
    mass = float(spec.get("mass", default_mass))
    support = tuple(spec.get("support", (0.0, 1.0)))
    if kind == "zero" or mass == 0.0:
        return zero_density()
    if kind == "arcsine":
        return arcsine_density(mass, support)
    if kind == "uniform":
        return uniform_density(mass, support)
    if kind == "free_pair":
        return free_pair_density(alpha, beta)
    nodes = spec.get("nodes")
    values = spec.get("values")
    if nodes is None or values is None:
        raise ValidationError("table density needs nodes and values arrays")
    exponents = tuple(spec.get("edge_exponents", (0.0, 0.0)))
    declared = spec.get("mass", None)
    return table_density(
        np.asarray(nodes, dtype=float),
        np.asarray(values, dtype=float),
        exponents,
        None if declared is None else float(declared),
    )


def load_law(source: str | Path | dict) -> ProjectionPairLaw:
    """Build a validated law from a JSON file, JSON text, or a dict.

    The document, as law_to_dict writes it, carries alpha, beta,
    atoms{a11,a10,a01,a00} and a density object {kind, mass, support,
    edge_exponents}, plus nodes and values for a table.  A declared mass,
    support or edge exponents that the loaded density does not have is
    an error; a table mass within 1e-6 of quadrature is rescaled to it.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):
            try:
                text = Path(source).read_text()
            except OSError as exc:
                raise ValidationError(f"cannot read law file {source}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"law document is not valid JSON: {exc}") from exc
    try:
        alpha = float(doc["alpha"])
        beta = float(doc["beta"])
        atoms_doc = doc.get("atoms", {})
        atoms = {key: float(atoms_doc.get(key, 0.0)) for key in ("a11", "a10", "a01", "a00")}
        density_doc = doc.get("density", {"kind": "zero"})
        density = _density_from_dict(density_doc, alpha, beta, 1.0 - sum(atoms.values()))
        for key in ("mass", "support", "edge_exponents"):
            have = np.ravel(getattr(density, key))
            pairs = zip(np.ravel(density_doc.get(key, have)), have, strict=True)
            if not all(abs(u - v) <= 1e-12 * max(abs(u), abs(v)) for u, v in pairs):
                raise ValidationError(f"{density.kind} density: {key} {density_doc[key]} contradicts {have}")
    except ValidationError:
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"law document is malformed: {exc}") from exc
    return ProjectionPairLaw(alpha, beta, density=density, **atoms)


def law_to_dict(law: ProjectionPairLaw) -> dict:
    """The JSON-ready document that load_law reads back into the same law.

    The density carries its kind, mass, support and edge exponents, and
    a table's nodes and values.  A "cheb" density (the window profile of
    an equilibrium) is written too, but load_law rejects its kind.
    """
    d = law.density
    density: dict = {
        "kind": d.kind,
        "mass": d.mass,
        "support": list(d.support),
        "edge_exponents": list(d.edge_exponents),
    }
    for name in ("nodes", "values"):
        samples = getattr(d, name)
        if samples is not None:
            density[name] = samples.tolist()
    return {"alpha": law.alpha, "beta": law.beta, "atoms": law.atoms, "density": density}


def weighted_norm(f: DensitySpec, p: float, grid: int = DEFAULT_GRID) -> float:
    """Norm (integral of |f|^p x(1-x) dx)^(1/p) of a density over (0,1).

    Edge singularities are handled and divergence is reported as +inf.
    """
    if p < 1:
        raise ValidationError("the weighted norm needs p >= 1")
    return density_weighted_p_norm(f, p, grid)


@dataclass(frozen=True)
class IntegrabilityReport:
    """Finiteness report for the two preconditions of the Fisher functional.

    singular_moment is the integral of (a01+a10)/x + (a00+a11)/(1-x)
    against the density (inf when it diverges); norm_w3 is the weighted
    3-norm of the density.  passed requires both to be finite.
    """

    singular_moment: float
    singular_moment_finite: bool
    norm_w3: float
    norm_w3_finite: bool
    passed: bool


def check_integrability(law: ProjectionPairLaw, grid: int = DEFAULT_GRID) -> IntegrabilityReport:
    """Check the singular-moment and weighted-norm preconditions of a law."""
    d = law.density
    coeff0 = law.coeff_at_0
    coeff1 = law.coeff_at_1
    lo, hi = d.support
    e_left, e_right = d.edge_exponents
    finite = True
    if d.kind != "zero" and d.mass > 0.0:
        if coeff0 > 0.0 and lo == 0.0 and e_left <= 0.0:
            finite = False
        if coeff1 > 0.0 and hi == 1.0 and e_right <= 0.0:
            finite = False
    if not finite:
        moment = float("inf")
    elif d.kind == "zero" or d.mass == 0.0 or (coeff0 == 0.0 and coeff1 == 0.0):
        moment = 0.0
    else:
        moment = density_integrate(
            d, lambda x: coeff0 / x + coeff1 / (1.0 - x), grid
        )
    norm3 = density_weighted_p_norm(d, 3.0, grid)
    norm3_finite = bool(np.isfinite(norm3))
    return IntegrabilityReport(
        singular_moment=moment,
        singular_moment_finite=finite,
        norm_w3=norm3,
        norm_w3_finite=norm3_finite,
        passed=finite and norm3_finite,
    )
