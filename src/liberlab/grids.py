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


def graded_panels(levels: int) -> np.ndarray:
    """Panel breakpoints on [0,1], refined dyadically `levels` times toward both ends.

    The outermost panels are [0, 2^-levels] and [1 - 2^-levels, 1]; the
    rule built on them is only usable while its nodes round to distinct
    points strictly inside the window, which graded_legendre checks.
    """
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

    The refinement depth grows with m, from 12 to 38 levels, so the
    rule has at least 24 panels with ceil(m / panels) nodes each, at
    least 8: every m <= 192 runs on 192 nodes and larger m round up to
    a whole number per panel (m = 193 gives 216 nodes, 1024 gives 1064,
    4096 gives 4104).  Where the end panels are so thin that a node
    would round onto a or b or onto its neighbour (on [0, 1] first at
    m = 23333, whose 308-node panels reach within half an ulp of 1),
    the depth drops level by level until every node is distinct and
    strictly inside (a, b).
    """
    for levels in range(min(38, max(12, m // 16)), -1, -1):
        breaks = a + (b - a) * graded_panels(levels)
        per = max(8, int(np.ceil(m / (breaks.size - 1))))
        pts, wts = _legendre_rule(per)
        lo = breaks[:-1][:, None]
        hi = breaks[1:][:, None]
        half = 0.5 * (hi - lo)
        x = (0.5 * (hi + lo) + half * pts[None, :]).ravel()
        if a < x[0] and x[-1] < b and np.all(np.diff(x) > 0.0):
            break
    return x, (half * wts[None, :]).ravel()
