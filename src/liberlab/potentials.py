"""Tilt potentials h and the scalar test functions psi for matrix models."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError

__all__ = [
    "PotentialSpec",
    "zero_potential",
    "poly_potential",
    "load_potential",
    "PsiSpec",
    "parse_psi",
]

_SAMPLE_GRID = np.linspace(0.0, 1.0, 10001)


@dataclass(frozen=True)
class PotentialSpec:
    """A scalar tilt on (0,1) plus its four endpoint diagonal values.

    The profile is either a polynomial in x (kind "poly", coefficients
    low order first) or a cosine sum h(x) = sum c_k cos(k pi x) (kind
    "cosine").  atom_values holds the diagonal entries of the matrix
    potential at the endpoints, in the order h11(0), h22(0), h11(1),
    h22(1); they enter the trace term of the tilted functionals.
    declared_sup_norms may pin sup|h|, sup|h'|, sup|h''| from outside;
    each declared value must dominate the sampled norm on a fixed
    10001-point grid.
    """

    kind: str
    coeffs: tuple[float, ...]
    atom_values: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    declared_sup_norms: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "poly", "cosine"):
            raise ValidationError(f"unknown potential kind {self.kind!r}")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        object.__setattr__(
            self, "atom_values", tuple(float(v) for v in self.atom_values)
        )
        if len(self.atom_values) != 4:
            raise ValidationError("atom_values needs exactly four entries")
        for key, declared in self.declared_sup_norms.items():
            if key not in ("h", "dh", "d2h"):
                raise ValidationError(f"unknown sup-norm key {key!r}")
            sampled = self._sampled_norm(key)
            if sampled > float(declared) * (1.0 + 1e-9) + 1e-12:
                raise ValidationError(
                    f"declared sup-norm {key}={declared} is below the sampled value {sampled}"
                )

    def _sampled_norm(self, key: str) -> float:
        fn = {"h": self.value, "dh": self.dvalue, "d2h": self.d2value}[key]
        return float(np.max(np.abs(fn(_SAMPLE_GRID))))

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "zero" or not self.coeffs:
            return np.zeros_like(x)
        if self.kind == "poly":
            return np.polynomial.polynomial.polyval(x, self.coeffs)
        k = np.arange(1, len(self.coeffs) + 1)
        return np.cos(np.pi * x[..., None] * k) @ np.asarray(self.coeffs)

    def dvalue(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "zero" or not self.coeffs:
            return np.zeros_like(x)
        if self.kind == "poly":
            der = np.polynomial.polynomial.polyder(self.coeffs)
            return np.polynomial.polynomial.polyval(x, der)
        k = np.arange(1, len(self.coeffs) + 1)
        return -np.sin(np.pi * x[..., None] * k) @ (np.pi * k * np.asarray(self.coeffs))

    def d2value(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "zero" or not self.coeffs:
            return np.zeros_like(x)
        if self.kind == "poly":
            der2 = np.polynomial.polynomial.polyder(self.coeffs, 2)
            return np.polynomial.polynomial.polyval(x, der2)
        k = np.arange(1, len(self.coeffs) + 1)
        return -np.cos(np.pi * x[..., None] * k) @ ((np.pi * k) ** 2 * np.asarray(self.coeffs))

    def sup_norm(self, key: str) -> float:
        """sup|h|, sup|h'| or sup|h''|: the declared value if given, else sampled."""
        if key in self.declared_sup_norms:
            return float(self.declared_sup_norms[key])
        return self._sampled_norm(key)


def zero_potential() -> PotentialSpec:
    return PotentialSpec("zero", ())


def poly_potential(coeffs, atom_values=(0.0, 0.0, 0.0, 0.0)) -> PotentialSpec:
    return PotentialSpec("poly", tuple(coeffs), tuple(atom_values))


def _cosine_potential(coeffs, atom_values=(0.0, 0.0, 0.0, 0.0)) -> PotentialSpec:
    return PotentialSpec("cosine", tuple(coeffs), tuple(atom_values))


def load_potential(source: str | Path | dict) -> PotentialSpec:
    """Read a potential from a JSON file, JSON text, or a dict."""
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):
            try:
                text = Path(source).read_text()
            except OSError as exc:
                raise ValidationError(f"cannot read potential file {source}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"potential document is not valid JSON: {exc}") from exc
    try:
        kind = doc.get("kind", "zero")
        coeffs = doc.get("coeffs", ())
        atoms_doc = doc.get("atom_values", {})
        if isinstance(atoms_doc, dict):
            atom_values = tuple(
                float(atoms_doc.get(key, 0.0))
                for key in ("h11_at_0", "h22_at_0", "h11_at_1", "h22_at_1")
            )
        else:
            atom_values = tuple(float(v) for v in atoms_doc)
        sup_norms = {k: float(v) for k, v in doc.get("sup_norms", {}).items()}
        return PotentialSpec(kind, tuple(coeffs), atom_values, sup_norms)
    except ValidationError:
        raise
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValidationError(f"potential document is malformed: {exc}") from exc


@dataclass(frozen=True)
class PsiSpec:
    """Polynomial test function for matrix functionals, low order first."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def __call__(self, x):
        # polyval's Horner loop, run on a plain float without an array round trip
        if not isinstance(x, float):
            x = np.asarray(x, dtype=float)
        acc = self.coeffs[-1] + x * 0.0
        for c in self.coeffs[-2::-1]:
            acc = c + acc * x
        return acc

    def derivative(self, x):
        return PsiSpec(np.polynomial.polynomial.polyder(self.coeffs))(x)


def parse_psi(text: str) -> PsiSpec:
    """Parse "poly:c0,c1,..." into a polynomial test function."""
    if not text.startswith("poly:"):
        raise ValidationError("test function must be given as poly:c0,c1,...")
    try:
        coeffs = tuple(float(part) for part in text[len("poly:"):].split(","))
    except ValueError as exc:
        raise ValidationError(f"bad coefficient list in {text!r}") from exc
    if not coeffs:
        raise ValidationError("empty coefficient list")
    return PsiSpec(coeffs)
