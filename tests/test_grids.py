"""The graded Gauss-Legendre rule: polynomial exactness and endpoint singularities."""

import numpy as np
import pytest

from liberlab.entropy import chi_proj
from liberlab.grids import _legendre_rule, graded_legendre
from liberlab.laws import load_law

from conftest import FIXTURES, random_generic_law


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


def test_panel_rule_is_computed_once_and_read_only():
    x, w = graded_legendre(512)
    again = graded_legendre(512)
    assert np.array_equal(x, again[0]) and np.array_equal(w, again[1])
    per = 8
    pts, wts = _legendre_rule(per)
    assert _legendre_rule(per)[0] is pts
    fresh = np.polynomial.legendre.leggauss(per)
    assert np.array_equal(pts, fresh[0]) and np.array_equal(wts, fresh[1])
    with pytest.raises(ValueError):
        pts[0] = 0.0


@pytest.mark.parametrize("m, nodes", [(1, 192), (192, 192), (193, 216), (1024, 1064), (4096, 4104)])
def test_node_count_is_floored_and_rounded_up_per_panel(m, nodes):
    x, w = graded_legendre(m)
    assert x.size == w.size == nodes


@pytest.mark.parametrize(
    "m, a, b",
    # on [0.3, 0.9] at m = 12288, a depth-38 rule rounds a node onto b
    [(24576, 0.0, 1.0), (32768, 0.0, 1.0), (65536, 0.0, 1.0), (12288, 0.3, 0.9)],
)
def test_every_node_is_distinct_and_strictly_inside(m, a, b):
    x, w = graded_legendre(m, a, b)
    assert x[0] > a and x[-1] < b and np.all(np.diff(x) > 0)
    assert np.sum(w) == pytest.approx(b - a, abs=1e-14)


@pytest.mark.parametrize("name", ["random_seed7", "table_bump"])
def test_chi_converges_past_grid_16384(name):
    law = (
        random_generic_law(np.random.default_rng(7))
        if name == "random_seed7"
        else load_law(FIXTURES / "table_bump.json")
    )
    chi = chi_proj(law, 16384).chi
    for grid in (32768, 65536):
        report = chi_proj(law, grid)
        # a node on 1 makes log_moment_1 NaN even where its coefficient is 0
        assert np.isfinite([report.log_moment_0, report.log_moment_1]).all()
        assert report.chi == pytest.approx(chi, abs=1e-8)
