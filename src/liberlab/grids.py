"""The quadrature rule behind every smooth-density functional.

Every compute function takes its resolution as one positive int,
``grid``, defaulting to DEFAULT_GRID.  For square-root-window densities
it is the number of Gauss-Chebyshev angles; for smooth densities and
plain callables it sizes the composite Gauss-Legendre rule below.

graded_legendre places Gauss-Legendre panels on a window [a, b] whose
breakpoints shrink geometrically toward both ends (graded_panels), so
plain weighted sums stay accurate for integrands with integrable
logarithmic or power singularities at the window ends.  Its nodes are
strictly increasing inside (a, b) and its weights are positive and sum
to b - a up to rounding.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["DEFAULT_GRID", "graded_panels", "graded_legendre"]

DEFAULT_GRID = 2048


def graded_panels(size: int) -> np.ndarray:
    """Panel breakpoints on [0,1], geometrically refined toward both ends.

    The dyadic refinement depth grows with the requested size and is
    capped so that nodes in the outermost panels stay representable and
    distinct in double precision.
    """
    levels = min(38, max(12, size // 16))
    left = np.concatenate(([0.0], 2.0 ** np.arange(-levels, 0.0)))
    right = 1.0 - left[::-1]
    return np.concatenate((left, right[1:]))


@lru_cache(maxsize=32)
def _legendre_rule(per: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    pts, wts = np.polynomial.legendre.leggauss(per)
    pts.flags.writeable = False
    wts.flags.writeable = False
    return pts, wts


def graded_legendre(m: int, a: float = 0.0, b: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and dx-weights on [a, b], graded toward both ends.

    The rule has ceil(m / panels) nodes on each panel, at least 8, and
    graded_panels gives at least 24 panels, so every m <= 192 runs on
    192 nodes and larger m round up to a whole number per panel
    (m = 193 gives 216 nodes, 1024 gives 1064, 4096 gives 4104).
    """
    breaks = a + (b - a) * graded_panels(m)
    per = max(8, int(np.ceil(m / (breaks.size - 1))))
    pts, wts = _legendre_rule(per)
    lo = breaks[:-1][:, None]
    hi = breaks[1:][:, None]
    half = 0.5 * (hi - lo)
    return (0.5 * (hi + lo) + half * pts[None, :]).ravel(), (half * wts[None, :]).ravel()
