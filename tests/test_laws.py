"""Law validation, serialization, genericity, and moment plumbing."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liberlab.densities import free_pair_density, uniform_density, zero_density
from liberlab.errors import ValidationError
from liberlab.laws import (
    ProjectionPairLaw,
    check_integrability,
    free_pair_law,
    generic_atoms,
    law_to_dict,
    load_law,
    weighted_norm,
)

from conftest import random_generic_law


def make_law(alpha, beta, density, a11=0.0, a10=0.0, a01=0.0, a00=0.0):
    return ProjectionPairLaw(alpha, beta, a11, a10, a01, a00, density)


def test_trace_identities_enforced():
    with pytest.raises(ValidationError, match="alpha"):
        make_law(0.3, 0.5, uniform_density(0.6, (0.3, 0.7)), a10=0.1, a00=0.3)
    with pytest.raises(ValidationError, match="beta"):
        make_law(0.3, 0.5, uniform_density(0.6, (0.3, 0.7)), a01=0.1, a00=0.3)
    law = make_law(0.3, 0.5, uniform_density(0.6, (0.3, 0.7)), a01=0.2, a00=0.2)
    assert law.rho == pytest.approx(0.3)


def test_bounds_validation():
    with pytest.raises(ValidationError):
        make_law(1.2, 0.5, zero_density(), a11=0.6, a10=0.6)
    with pytest.raises(ValidationError):
        make_law(0.5, 0.5, uniform_density(1.2), a11=-0.1)
    with pytest.raises(ValidationError, match="mass"):
        make_law(0.5, 0.5, uniform_density(0.9))


def test_generic_atoms_pattern():
    atoms = generic_atoms(0.3, 0.6)
    assert atoms == {
        "a11": 0.0,
        "a00": pytest.approx(0.1),
        "a10": 0.0,
        "a01": pytest.approx(0.3),
    }
    assert generic_atoms(0.7, 0.6)["a11"] == pytest.approx(0.3)


def test_genericity_flag():
    free = free_pair_law(0.4, 0.7)
    assert free.generic
    both_ends = make_law(0.5, 0.5, uniform_density(0.5), a11=0.25, a00=0.25)
    assert not both_ends.generic


def test_free_pair_law_density_matches_constructor():
    law = free_pair_law(0.35, 0.6)
    d = free_pair_density(0.35, 0.6)
    assert law.density.support == d.support
    assert law.density.mass == pytest.approx(d.mass)
    assert law.alpha == 0.35 and law.beta == 0.6


def test_free_pair_law_degenerate_traces():
    law = free_pair_law(0.0, 0.5)
    assert law.density.mass == 0.0
    assert law.a01 == pytest.approx(0.5) and law.a00 == pytest.approx(0.5)


def test_load_law_round_trip(tmp_path):
    law = free_pair_law(0.3, 0.6)
    doc = law_to_dict(law)
    path = tmp_path / "law.json"
    path.write_text(json.dumps(doc))
    again = load_law(str(path))
    assert again.alpha == law.alpha
    assert again.atoms == pytest.approx(law.atoms)
    assert again.density.kind == "free_pair"


def test_load_law_rejects_garbage(tmp_path):
    with pytest.raises(ValidationError):
        load_law('{"alpha": 0.5}')
    with pytest.raises(ValidationError):
        load_law("not json at all {{{")
    with pytest.raises(ValidationError):
        load_law(str(tmp_path / "missing.json"))
    with pytest.raises(ValidationError):
        load_law({"alpha": 0.5, "beta": 0.5, "density": {"kind": "mystery"}})


def test_weighted_norm_uniform():
    assert weighted_norm(uniform_density(1.0), 3.0) == pytest.approx(
        (1.0 / 6.0) ** (1.0 / 3.0), rel=1e-9
    )
    with pytest.raises(ValidationError):
        weighted_norm(uniform_density(1.0), 0.5)


def test_integrability_report_branches():
    free = free_pair_law(0.5, 0.5)
    rep = check_integrability(free)
    assert rep.passed and rep.singular_moment_finite

    asym = free_pair_law(0.3, 0.6)
    rep = check_integrability(asym)
    assert rep.passed
    assert rep.singular_moment > 0.0

    flat_with_atom = make_law(0.4, 0.5, uniform_density(0.8), a01=0.1, a00=0.1)
    rep = check_integrability(flat_with_atom)
    assert not rep.singular_moment_finite
    assert rep.singular_moment == np.inf
    assert not rep.passed


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_laws_satisfy_invariants(seed):
    law = random_generic_law(np.random.default_rng(seed), n_nodes=201)
    total = sum(law.atoms.values()) + law.density.mass
    assert total == pytest.approx(1.0, abs=1e-9)
    assert law.a10 + law.a11 + law.density.mass / 2 == pytest.approx(law.alpha, abs=1e-9)
    assert law.a01 + law.a11 + law.density.mass / 2 == pytest.approx(law.beta, abs=1e-9)
    assert law.generic
    assert 0 < law.rho <= 0.5
