"""The graded Gauss-Legendre rule: polynomial exactness and endpoint singularities."""

import numpy as np
import pytest

from liberlab.grids import graded_legendre


def test_graded_legendre_integrates_smooth_functions():
    x, w = graded_legendre(128)
    assert x.shape == w.shape
    assert np.all(np.diff(x) > 0) and np.all(w > 0)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-14)
    assert np.dot(w, x**3) == pytest.approx(0.25, abs=1e-12)
    assert np.dot(w, np.exp(x)) == pytest.approx(np.e - 1.0, abs=1e-12)


def test_graded_legendre_handles_endpoint_singularity():
    x, w = graded_legendre(512)
    assert np.all((x > 0) & (x < 1))
    assert np.dot(w, x**5) == pytest.approx(1.0 / 6, abs=1e-13)
    assert np.dot(w, 1.0 / np.sqrt(x)) == pytest.approx(2.0, rel=1e-5)


def test_graded_legendre_maps_to_a_window():
    x, w = graded_legendre(512, 0.2, 0.7)
    assert np.all((x > 0.2) & (x < 0.7))
    assert np.sum(w) == pytest.approx(0.5, abs=1e-14)
    assert np.dot(w, 1.0 / np.sqrt(0.7 - x)) == pytest.approx(2.0 * np.sqrt(0.5), rel=1e-5)
