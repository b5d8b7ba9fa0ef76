"""Reflection symmetry: replacing Q by I - Q leaves chi and phi_star unchanged."""

import numpy as np
import pytest

from liberlab.densities import table_density
from liberlab.entropy import chi_proj
from liberlab.fisher import phi_star
from liberlab.laws import ProjectionPairLaw

from conftest import random_generic_law

M = 2048


def reflect(law: ProjectionPairLaw) -> ProjectionPairLaw:
    """The law of (P, I - Q): x -> 1 - x, beta -> 1 - beta, and the atoms
    (a11, a10, a01, a00) -> (a10, a11, a00, a01)."""
    d = law.density
    density = table_density(1.0 - d.nodes[::-1], d.values[::-1], d.edge_exponents[::-1], d.mass)
    return ProjectionPairLaw(
        law.alpha, 1.0 - law.beta, law.a10, law.a11, law.a00, law.a01, density
    )


def test_reflection_leaves_chi_and_phi_star_unchanged(rng):
    for _ in range(5):
        law = random_generic_law(rng)
        mirror = reflect(law)
        assert mirror.generic
        assert chi_proj(mirror, M).chi == pytest.approx(chi_proj(law, M).chi, rel=0, abs=1e-12)
        assert phi_star(mirror, M).phi_star == pytest.approx(phi_star(law, M).phi_star, rel=1e-10)
