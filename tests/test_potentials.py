"""Potential and test-function specs: evaluation, derivatives, parsing."""

import numpy as np
import pytest

from liberlab.errors import ValidationError
from liberlab.potentials import (
    PotentialSpec,
    PsiSpec,
    cosine_potential,
    load_potential,
    parse_psi,
    poly_potential,
    zero_potential,
)


def test_zero_potential_is_zero():
    h = zero_potential()
    x = np.linspace(0.01, 0.99, 7)
    assert np.all(h.value(x) == 0.0)
    assert np.all(h.dvalue(x) == 0.0)
    assert h.sup_norm("h") == 0.0


def test_poly_potential_values_and_derivatives():
    h = poly_potential((0.0, 0.0, 0.5))
    x = np.array([0.1, 0.4, 0.9])
    assert np.allclose(h.value(x), 0.5 * x**2)
    assert np.allclose(h.dvalue(x), x)
    assert np.allclose(h.d2value(x), 1.0)
    assert h.sup_norm("dh") == pytest.approx(1.0, rel=1e-3)
    assert h.sup_norm("d2h") == pytest.approx(1.0, rel=1e-3)


def test_cosine_potential_derivatives_match_fd():
    h = cosine_potential((0.3, -0.2))
    x = np.linspace(0.05, 0.95, 9)
    eps = 1e-6
    fd = (h.value(x + eps) - h.value(x - eps)) / (2 * eps)
    assert np.allclose(h.dvalue(x), fd, atol=1e-7)
    fd2 = (h.value(x + eps) - 2 * h.value(x) + h.value(x - eps)) / eps**2
    assert np.allclose(h.d2value(x), fd2, atol=1e-3)


def test_declared_sup_norms():
    h = PotentialSpec("poly", (0.0, 1.0), declared_sup_norms={"dh": 7.0})
    assert h.sup_norm("dh") == 7.0
    with pytest.raises(ValidationError):
        PotentialSpec("poly", (0.0, 1.0), declared_sup_norms={"dh": 0.5})
    with pytest.raises(ValidationError):
        PotentialSpec("poly", (0.0,), declared_sup_norms={"slope": 1.0})


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError):
        PotentialSpec("spline", (1.0,))


def test_atom_values_recorded():
    h = poly_potential((0.0, 1.0), atom_values=(1.0, 2.0, 3.0, 4.0))
    assert h.atom_values == (1.0, 2.0, 3.0, 4.0)
    with pytest.raises(ValidationError):
        PotentialSpec("poly", (0.0,), atom_values=(1.0, 2.0))


def test_load_potential_parsing(tmp_path):
    doc = '{"kind": "poly", "coeffs": [0.0, 0.0, 0.5]}'
    h = load_potential(doc)
    assert h.value(np.array([2.0])) == pytest.approx(2.0)
    path = tmp_path / "h.json"
    path.write_text(doc)
    assert load_potential(str(path)).coeffs == (0.0, 0.0, 0.5)
    with pytest.raises(ValidationError):
        load_potential(str(tmp_path / "nope.json"))
    with pytest.raises(ValidationError):
        load_potential("{broken")


def test_parse_psi():
    psi = parse_psi("poly:0,1")
    assert psi(np.array([0.3])) == pytest.approx(0.3)
    assert psi.derivative(np.array([0.3])) == pytest.approx(1.0)
    quad = parse_psi("poly:0,0,0.5")
    assert quad(2.0) == pytest.approx(2.0)
    with pytest.raises(ValidationError):
        parse_psi("spline:1,2")
    with pytest.raises(ValidationError):
        parse_psi("poly:a,b")


def test_psi_on_a_float_has_the_bits_of_polyval(rng):
    for coeffs in [(0.0, 1.0), (0.0, 0.0, 0.5), (1.5,), (0.3, -1.2, 0.7, 2.5, -0.04)]:
        psi = PsiSpec(coeffs)
        for x in rng.uniform(-0.5, 1.5, 200):
            assert psi(float(x)) == np.polynomial.polynomial.polyval(np.asarray(x), coeffs)
            assert psi(x) == psi(np.array([x]))[0]
            der = np.polynomial.polynomial.polyder(coeffs) if len(coeffs) > 1 else [0.0]
            assert psi.derivative(x) == np.polynomial.polynomial.polyval(np.asarray(x), der)
