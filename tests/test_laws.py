"""Law validation, serialization, genericity, and moment plumbing."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liberlab.densities import (
    arcsine_density,
    cheb_density,
    free_pair_density,
    uniform_density,
    zero_density,
)
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

from conftest import CONTRADICTING_DOCUMENTS, FIXTURES, random_generic_law


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


ROUND_TRIP_LAWS = {
    "uniform": lambda: load_law(FIXTURES / "uniform.json"),
    "free_half": lambda: load_law(FIXTURES / "free_half.json"),
    "free_asym": lambda: load_law(FIXTURES / "free_asym.json"),
    "table_bump": lambda: load_law(FIXTURES / "table_bump.json"),
    "random_seed3": lambda: random_generic_law(np.random.default_rng(3)),
    "random_seed7": lambda: random_generic_law(np.random.default_rng(7)),
    "arcsine": lambda: make_law(0.5, 0.5, arcsine_density(0.6, (0.1, 0.8)), a11=0.2, a00=0.2),
    "zero": lambda: make_law(0.5, 0.5, zero_density(), a11=0.5, a00=0.5),
}


@pytest.mark.parametrize("name", ROUND_TRIP_LAWS)
def test_load_law_round_trip(name):
    law = ROUND_TRIP_LAWS[name]()
    again = load_law(json.loads(json.dumps(law_to_dict(law))))
    assert (again.alpha, again.beta, again.atoms) == (law.alpha, law.beta, law.atoms)
    d, e = law.density, again.density
    assert (e.kind, e.mass, e.support, e.edge_exponents) == (d.kind, d.mass, d.support, d.edge_exponents)
    if d.kind == "table":
        assert np.array_equal(e.nodes, d.nodes)
        # table_density rescales the values to the declared mass again
        assert np.allclose(e.values, d.values, rtol=4e-15, atol=0.0)
    else:
        assert e.nodes is None and e.values is None


def test_cheb_law_document_does_not_load():
    law = make_law(0.3, 0.6, cheb_density(np.full(64, 0.6 / np.pi), (0.1, 0.9)), a01=0.3, a00=0.1)
    doc = json.loads(json.dumps(law_to_dict(law)))
    assert doc["density"]["kind"] == "cheb" and len(doc["density"]["values"]) == 64
    with pytest.raises(ValidationError, match="unknown density kind 'cheb'"):
        load_law(doc)


@pytest.mark.parametrize("name", CONTRADICTING_DOCUMENTS)
def test_load_law_rejects_density_keys_its_kind_contradicts(name):
    with pytest.raises(ValidationError, match="contradicts"):
        load_law(CONTRADICTING_DOCUMENTS[name])


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
