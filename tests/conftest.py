"""Shared test helpers: random generic laws, fixture paths, bad documents."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from liberlab.densities import table_density
from liberlab.laws import ProjectionPairLaw, generic_atoms

FIXTURES = Path(__file__).parent / "fixtures"


def _with_density_keys(name: str, **keys) -> dict:
    doc = json.loads((FIXTURES / name).read_text())
    doc["density"].update(keys)
    return doc


# law documents whose density keys contradict the density their kind loads
CONTRADICTING_DOCUMENTS = {
    "free_pair_support": _with_density_keys("free_half.json", support=[0.2, 0.3], edge_exponents=[3, 3]),
    "free_pair_mass": _with_density_keys("free_half.json", mass=0.9),
    "uniform_exponents": _with_density_keys("uniform.json", edge_exponents=[2, 2]),
    "table_support": _with_density_keys("table_bump.json", support=[0.1, 0.9]),
}

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Repeat the acceptance verdict lines after the capture ends.

    The acceptance tests print their PASS/FAIL line as they run, but
    file-descriptor capture swallows those prints on passing tests; the
    summary section makes the scorecard part of every run's output.
    """
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance scorecard")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_generic_law(rng: np.random.Generator, n_nodes: int = 801) -> ProjectionPairLaw:
    """A generic law with a smooth interior bump density.

    Atoms take the unique generic pattern for random traces, the density
    is a wobbled sine-squared bump supported strictly inside (0,1) with
    first-order decay declared at its edges, and the bump carries all
    the remaining mass.
    """
    alpha, beta = rng.uniform(0.12, 0.88, size=2)
    atoms = generic_atoms(alpha, beta)
    mass = 1.0 - sum(atoms.values())
    lo = rng.uniform(0.02, 0.3)
    hi = rng.uniform(0.7, 0.98)
    nodes = np.linspace(lo, hi, n_nodes)
    u = (nodes - lo) / (hi - lo)
    envelope = np.sin(np.pi * u) ** 2
    wobble = 1.0 + 0.6 * np.sin(
        (2 + rng.integers(0, 3)) * np.pi * u + rng.uniform(0, np.pi)
    )
    raw = envelope * wobble**2
    base = table_density(nodes, raw, (1.0, 1.0))
    density = table_density(nodes, raw * (mass / base.mass), (1.0, 1.0), mass)
    return ProjectionPairLaw(alpha, beta, density=density, **atoms)


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


@pytest.fixture
def fixtures_dir():
    return FIXTURES
